// The label oracle: what the served model version must have answered.
//
// Every job the benchmark sent is re-encoded offline with the default
// FeatureEncoder (no embedding cache), and each registry version that
// may have answered is loaded with ModelRegistry::load and run through
// ClassificationModel::inference. A served label is correct when some
// version in the request's version window gives the same label: the
// version current when the request was written, up to the newest
// version whose /train was sent before the response arrived.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/classification_model.hpp"
#include "data/job_record.hpp"

namespace perfbench {

/// A /train the driver sent, as the client saw it.
struct TrainEvent {
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  std::uint32_t version = 0;  ///< the version its 201 response named
};

/// [lo, hi] versions that may have answered a request written at
/// `sent_ns` whose response arrived at `done_ns`. `base_version` is the
/// model trained at set-up; `trains` are the completed retrains.
std::pair<std::uint32_t, std::uint32_t> version_window(std::int64_t sent_ns,
                                                       std::int64_t done_ns,
                                                       std::uint32_t base_version,
                                                       const std::vector<TrainEvent>& trains);

/// The labels a classify response carries: `{"label": ...}` from /predict,
/// `{"labels": [...]}` from /classify_batch (`batch`). nullopt when the
/// body is not that shape, a label is not "memory-bound" or
/// "compute-bound", or the count is not `expected`.
std::optional<std::vector<mcb::Label>> parse_labels(const std::string& body, bool batch,
                                                    std::size_t expected);

/// The "version" a 201 /train response names; nullopt if it has none.
std::optional<std::uint32_t> parse_train_version(const std::string& body);

class LabelOracle {
 public:
  /// Encodes `jobs` once, deduplicated by feature string.
  explicit LabelOracle(std::span<const mcb::JobRecord> jobs);

  /// Loads `version` of the model kind's registry tag from
  /// `registry_dir` and labels every job; false if it does not load.
  bool add_version(const std::string& registry_dir, mcb::ModelKind kind,
                   std::uint32_t version);

  /// Installs labels for a version directly (one per job).
  void set_version_labels(std::uint32_t version, std::vector<mcb::Label> labels);

  /// True when a version in [lo, hi] gives `job` the label `served`.
  bool accepts(std::size_t job, mcb::Label served, std::uint32_t lo,
               std::uint32_t hi) const;

  std::size_t unique_rows() const noexcept { return unique_jobs_.size(); }

 private:
  std::vector<mcb::JobRecord> unique_jobs_;
  std::vector<std::uint32_t> job_to_unique_;
  std::map<std::uint32_t, std::vector<mcb::Label>> labels_;  ///< version -> per job
};

}  // namespace perfbench
