// Versioned on-disk model store — the skops.io substitute (paper §III-E:
// "trained model instances are saved to the machine file system ... in
// order to handle and maintain different versions of the models").
//
// Layout: <root>/<tag>-v<N>.mcbm, N monotonically increasing per tag.
// Files carry the MCBM magic header, so foreign files are rejected at
// load time rather than deserialized blindly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/classification_model.hpp"

namespace mcb {

class ModelRegistry {
 public:
  explicit ModelRegistry(std::string root_dir);

  const std::string& root() const noexcept { return root_; }

  /// Persist the model under `tag`; returns the new version number, or
  /// std::nullopt (and no file) when any write, the final flush
  /// included, fails.
  std::optional<std::uint32_t> save(const ClassificationModel& model,
                                    const std::string& tag);

  /// Latest stored version for a tag (nullopt if none).
  std::optional<std::uint32_t> latest_version(const std::string& tag) const;

  /// Load a version (latest when `version` is nullopt) into a fresh
  /// model of the given kind and default config. Returns nullopt on
  /// missing/corrupt files.
  std::optional<ClassificationModel> load(ModelKind kind, const std::string& tag,
                                          std::optional<std::uint32_t> version = {}) const;

  /// Load one version into `model`, keeping the config it was built
  /// with (e.g. the KNN index mode). Returns false on missing/corrupt
  /// files or a kind mismatch.
  bool load_into(ClassificationModel& model, const std::string& tag,
                 std::uint32_t version) const;

  /// All stored versions of a tag, ascending.
  std::vector<std::uint32_t> versions(const std::string& tag) const;

  /// Delete versions older than `keep_latest` (retention policy).
  std::size_t prune(const std::string& tag, std::size_t keep_latest);

  std::string path_for(const std::string& tag, std::uint32_t version) const;

 private:
  std::string root_;
};

}  // namespace mcb
