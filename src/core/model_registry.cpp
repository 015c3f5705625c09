#include "core/model_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace mcb {

ModelRegistry::ModelRegistry(std::string root_dir) : root_(std::move(root_dir)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

std::string ModelRegistry::path_for(const std::string& tag, std::uint32_t version) const {
  return root_ + "/" + tag + "-v" + std::to_string(version) + ".mcbm";
}

std::vector<std::uint32_t> ModelRegistry::versions(const std::string& tag) const {
  std::vector<std::uint32_t> out;
  std::error_code ec;
  const std::string prefix = tag + "-v";
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!starts_with(name, prefix) || !ends_with(name, ".mcbm")) continue;
    const std::string middle = name.substr(prefix.size(), name.size() - prefix.size() - 5);
    std::uint64_t v = 0;
    if (parse_u64(middle, v)) out.push_back(static_cast<std::uint32_t>(v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint32_t> ModelRegistry::latest_version(const std::string& tag) const {
  const auto all = versions(tag);
  if (all.empty()) return std::nullopt;
  return all.back();
}

std::optional<std::uint32_t> ModelRegistry::save(const ClassificationModel& model,
                                                 const std::string& tag) {
  const std::uint32_t version = latest_version(tag).value_or(0) + 1;
  const std::string path = path_for(tag, version);
  std::ofstream out(path, std::ios::binary);
  // A model smaller than the stream buffer reaches the file only when
  // the stream closes, so the close is part of the write to check.
  const bool saved = out && model.save(out);
  out.close();
  if (!saved || !out) {
    std::error_code ec;
    fs::remove(path, ec);
    return std::nullopt;
  }
  return version;
}

bool ModelRegistry::load_into(ClassificationModel& model, const std::string& tag,
                              std::uint32_t version) const {
  std::ifstream in(path_for(tag, version), std::ios::binary);
  return in && model.load(in);
}

std::optional<ClassificationModel> ModelRegistry::load(
    ModelKind kind, const std::string& tag, std::optional<std::uint32_t> version) const {
  if (!version.has_value()) version = latest_version(tag);
  if (!version.has_value()) return std::nullopt;
  ClassificationModel model(kind);
  if (!load_into(model, tag, *version)) return std::nullopt;
  return model;
}

std::size_t ModelRegistry::prune(const std::string& tag, std::size_t keep_latest) {
  const auto all = versions(tag);
  if (all.size() <= keep_latest) return 0;
  std::size_t removed = 0;
  for (std::size_t i = 0; i + keep_latest < all.size(); ++i) {
    std::error_code ec;
    if (fs::remove(path_for(tag, all[i]), ec)) ++removed;
  }
  return removed;
}

}  // namespace mcb
