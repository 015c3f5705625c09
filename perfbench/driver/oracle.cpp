#include "oracle.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/feature_encoder.hpp"
#include "core/model_registry.hpp"
#include "util/json.hpp"

namespace perfbench {

std::pair<std::uint32_t, std::uint32_t> version_window(std::int64_t sent_ns,
                                                       std::int64_t done_ns,
                                                       std::uint32_t base_version,
                                                       const std::vector<TrainEvent>& trains) {
  std::uint32_t lo = base_version;
  std::uint32_t hi = base_version;
  for (const TrainEvent& train : trains) {
    // A retrain answered before the request was written is already live;
    // one written before the response arrived may have swapped in first.
    if (train.done_ns <= sent_ns) lo = std::max(lo, train.version);
    if (train.sent_ns <= done_ns) hi = std::max(hi, train.version);
  }
  return {lo, hi};
}

std::optional<std::vector<mcb::Label>> parse_labels(const std::string& body, bool batch,
                                                    std::size_t expected) {
  const auto json = mcb::Json::parse(body);
  if (!json.has_value() || !json->is_object()) return std::nullopt;
  const auto label_of = [](const mcb::Json& value) -> std::optional<mcb::Label> {
    if (value.is_string() && value.as_string() == "memory-bound") return mcb::kLabelMemoryBound;
    if (value.is_string() && value.as_string() == "compute-bound") return mcb::kLabelComputeBound;
    return std::nullopt;
  };
  std::vector<mcb::Label> out;
  if (!batch) {
    const auto label = label_of((*json)["label"]);
    if (!label.has_value()) return std::nullopt;
    out.push_back(*label);
  } else {
    const mcb::Json& labels = (*json)["labels"];
    if (!labels.is_array()) return std::nullopt;
    for (const mcb::Json& value : labels.as_array()) {
      const auto label = label_of(value);
      if (!label.has_value()) return std::nullopt;
      out.push_back(*label);
    }
  }
  if (out.size() != expected) return std::nullopt;
  return out;
}

std::optional<std::uint32_t> parse_train_version(const std::string& body) {
  const auto json = mcb::Json::parse(body);
  if (!json.has_value() || !(*json)["version"].is_number()) return std::nullopt;
  const std::int64_t version = (*json)["version"].as_int(-1);
  if (version < 0) return std::nullopt;
  return static_cast<std::uint32_t>(version);
}

LabelOracle::LabelOracle(std::span<const mcb::JobRecord> jobs) {
  const mcb::FeatureEncoder encoder;
  std::unordered_map<std::string, std::uint32_t> seen;
  job_to_unique_.reserve(jobs.size());
  for (const mcb::JobRecord& job : jobs) {
    const auto [it, inserted] =
        seen.emplace(encoder.feature_string(job), static_cast<std::uint32_t>(seen.size()));
    if (inserted) unique_jobs_.push_back(job);
    job_to_unique_.push_back(it->second);
  }
}

bool LabelOracle::add_version(const std::string& registry_dir, mcb::ModelKind kind,
                              std::uint32_t version) {
  if (labels_.contains(version)) return true;
  const mcb::ModelRegistry registry(registry_dir);
  const auto model = registry.load(kind, mcb::model_kind_name(kind), version);
  if (!model.has_value() || !model->is_trained()) return false;
  const mcb::FeatureEncoder encoder;
  const mcb::FeatureMatrix x = encoder.encode_batch(unique_jobs_);
  std::vector<mcb::Label> unique_labels = model->inference(x.view());
  std::vector<mcb::Label> per_job(job_to_unique_.size());
  for (std::size_t j = 0; j < per_job.size(); ++j) per_job[j] = unique_labels[job_to_unique_[j]];
  labels_[version] = std::move(per_job);
  return true;
}

void LabelOracle::set_version_labels(std::uint32_t version, std::vector<mcb::Label> labels) {
  labels_[version] = std::move(labels);
}

bool LabelOracle::accepts(std::size_t job, mcb::Label served, std::uint32_t lo,
                          std::uint32_t hi) const {
  for (auto it = labels_.lower_bound(lo); it != labels_.end() && it->first <= hi; ++it) {
    if (job < it->second.size() && it->second[job] == served) return true;
  }
  return false;
}

}  // namespace perfbench
