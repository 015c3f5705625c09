// The two CI/CD workflows of Figure 1.
//
// Training Workflow:  fetch jobs *executed* in the last alpha days ->
// characterize (Roofline labels) -> encode -> train the Classification
// Model. Optionally sub-samples the window to theta jobs (latest-first
// or uniformly at random — the paper's third experiment).
//
// Inference Workflow: fetch newly *submitted* jobs -> encode -> predict
// memory/compute-bound labels before the jobs execute.
//
// Both encode through the ShardedEmbeddingCache they are given (the
// Framework shares its one cache with serving) or, given none, with the
// uncached FeatureEncoder::encode_batch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/classification_model.hpp"
#include "core/feature_encoder.hpp"
#include "data/data_fetcher.hpp"
#include "ml/baseline.hpp"
#include "roofline/characterizer.hpp"

namespace mcb {

class ThreadPool;

/// Window sub-sampling for retraining (paper §V-B experiment c).
struct ThetaConfig {
  enum class Sampling { kAll, kLatest, kRandom };
  Sampling mode = Sampling::kAll;
  std::size_t theta = 0;       ///< sample size; ignored when mode == kAll
  std::uint64_t seed = 520;    ///< used by kRandom (paper seeds: 520, 90, 1905, 7, 22)
};

/// Apply theta sub-sampling to a window of jobs ordered by end_time.
std::vector<JobRecord> apply_theta(std::vector<JobRecord> jobs, const ThetaConfig& theta);

struct TrainingReport {
  std::size_t jobs_fetched = 0;
  std::size_t jobs_used = 0;          ///< after theta sub-sampling
  std::size_t uncharacterizable = 0;  ///< jobs that fell back to the majority label
  double fetch_seconds = 0.0;
  double characterize_seconds = 0.0;
  double encode_seconds = 0.0;
  double train_seconds = 0.0;         ///< model fit only (paper's "training time")
  std::uint64_t cache_hits = 0;       ///< this run's lookups only (0 without a cache)
  std::uint64_t cache_misses = 0;
  /// Registry version the trained model was saved and published as
  /// (Framework::train_now); nullopt when nothing was published.
  std::optional<std::uint32_t> version;
};

class TrainingWorkflow {
 public:
  TrainingWorkflow(const DataFetcher& fetcher, const Characterizer& characterizer,
                   const FeatureEncoder& encoder, ShardedEmbeddingCache* cache = nullptr,
                   ThreadPool* pool = nullptr);

  /// Train `model` on the jobs executed in [window_start, window_end).
  /// Returns the report; leaves the model untrained if the window is
  /// empty (report.jobs_used == 0).
  TrainingReport run(ClassificationModel& model, TimePoint window_start,
                     TimePoint window_end, const ThetaConfig& theta = {}) const;

  /// Same pipeline for the paper's (job name, #cores) lookup baseline.
  TrainingReport run_baseline(LookupBaseline& baseline, TimePoint window_start,
                              TimePoint window_end, const ThetaConfig& theta = {}) const;

 private:
  const DataFetcher* fetcher_;
  const Characterizer* characterizer_;
  const FeatureEncoder* encoder_;
  ShardedEmbeddingCache* cache_;
  ThreadPool* pool_;
};

struct InferenceReport {
  std::vector<std::uint64_t> job_ids;
  std::vector<Label> predictions;
  double fetch_seconds = 0.0;
  double encode_seconds = 0.0;
  double predict_seconds = 0.0;

  std::size_t size() const noexcept { return predictions.size(); }
  /// Per-job inference latency including encoding (the paper's metric).
  double seconds_per_job() const noexcept {
    return predictions.empty()
               ? 0.0
               : (encode_seconds + predict_seconds) / static_cast<double>(predictions.size());
  }
};

class InferenceWorkflow {
 public:
  InferenceWorkflow(const DataFetcher& fetcher, const FeatureEncoder& encoder,
                    ShardedEmbeddingCache* cache = nullptr, ThreadPool* pool = nullptr);

  /// Predict for all jobs *submitted* in [start, end).
  InferenceReport run(const ClassificationModel& model, TimePoint start, TimePoint end) const;

  /// Predict for an explicit batch (e.g. a single just-submitted job).
  InferenceReport run_jobs(const ClassificationModel& model,
                           std::span<const JobRecord> jobs) const;

  /// Baseline counterpart (no encoding; key extraction only).
  InferenceReport run_jobs_baseline(const LookupBaseline& baseline,
                                    std::span<const JobRecord> jobs) const;

 private:
  const DataFetcher* fetcher_;
  const FeatureEncoder* encoder_;
  ShardedEmbeddingCache* cache_;
  ThreadPool* pool_;
};

}  // namespace mcb
