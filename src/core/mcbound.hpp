// mcbound::Framework — the top-level facade tying the components of
// Figure 1 together: Data Fetcher + Job Characterizer + Feature Encoder +
// Classification Model + model registry, wired by a FrameworkConfig.
//
// A deployment constructs one Framework over its jobs data storage and
// drives it with the two workflows:
//   framework.train_now(now)        -> Training Workflow (cron, every beta days)
//   framework.predict_job(job)      -> Inference Workflow (per submission)
//   framework.predict_range(a, b)   -> Inference Workflow (periodic batch)
// The HTTP facade in src/serve exposes the same operations over JSON.
//
// Thread safety. A serving framework shares exactly three things: the
// job store (immutable once built), one bounded embedding cache
// (internally synchronized) and the model-snapshot pointer. The trained
// model is published as an immutable ModelSnapshot behind a shared_ptr.
// Every call below is safe to make concurrently with every other: any
// number of readers (predict_*, snapshot, has_model, model_version,
// model) run alongside each other and alongside one train_now /
// load_latest_model. Readers copy the snapshot pointer once under a
// mutex held only for that copy, then classify without any lock, so a
// retrain never stalls them. Writers serialize on a private train mutex
// (a second train_now waits for the first), build and save the
// candidate under it, and swap the pointer only after the registry save
// succeeds. An old snapshot stays alive until its last reader drops it.
// Training and inference encode through the same cache, keyed by the
// feature string, so a retrain reuses the embeddings serving computed
// and vice versa. The accessors config(), encoder(), characterizer(),
// registry(), store() and embedding_cache() return members fixed at
// construction.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/model_registry.hpp"
#include "core/online_evaluator.hpp"
#include "core/workflows.hpp"
#include "data/data_fetcher.hpp"
#include "util/sync.hpp"

namespace mcb {

/// One published model: the trained classifier and the registry version
/// it was saved as. Never modified after publication.
struct ModelSnapshot {
  ClassificationModel model;
  std::uint32_t version = 0;
};

class Framework {
 public:
  /// The store is the deployment's jobs data storage; it must outlive
  /// the framework.
  Framework(FrameworkConfig config, const JobStore& store, ThreadPool* pool = nullptr);

  const FrameworkConfig& config() const noexcept { return config_; }
  const Characterizer& characterizer() const noexcept { return characterizer_; }
  const FeatureEncoder& encoder() const noexcept { return encoder_; }
  const ModelRegistry& registry() const noexcept { return registry_; }
  const JobStore& store() const noexcept { return *store_; }
  /// The embedding cache behind train_now and predict_* (for its stats).
  const ShardedEmbeddingCache& embedding_cache() const noexcept { return cache_; }

  /// The published model, or nullptr before the first successful
  /// train_now()/load_latest_model(). Load it once per request and use
  /// that copy for every answer the request gives.
  std::shared_ptr<const ModelSnapshot> snapshot() const MCB_EXCLUDES(snapshot_mutex_);

  bool has_model() const { return snapshot() != nullptr; }
  std::optional<std::uint32_t> model_version() const;
  std::string model_name() const { return model_kind_name(config_.model); }

  /// The published classifier (sharing the snapshot's lifetime), or
  /// nullptr before the first model.
  std::shared_ptr<const ClassificationModel> model() const;

  /// Training Workflow: fetch the trailing alpha-day window ending at
  /// `now`, characterize, encode, train, and persist a new model version
  /// to the registry; the model is published only once saved, and
  /// report.version names it. jobs_used == 0 means the window was empty;
  /// jobs_used > 0 without a version means the save failed and the
  /// previous model keeps serving.
  TrainingReport train_now(TimePoint now) MCB_EXCLUDES(train_mutex_);

  /// Load and publish the newest persisted model instead of training
  /// (warm restart). Returns false, publishing nothing, when the
  /// registry holds no loadable model.
  bool load_latest_model() MCB_EXCLUDES(train_mutex_);

  /// Inference Workflow for one not-yet-executed job.
  std::optional<Boundedness> predict_job(const JobRecord& job) const;

  /// Batched Inference Workflow (serving fast path): group the jobs by
  /// feature string, encode each distinct string once through the
  /// canonical-text LRU cache — the framework's own unless `text_cache`
  /// names another — classify the distinct rows in a single pool
  /// dispatch over the batched model kernels, and give each job the
  /// label of its string (paper §V-C: Fugaku jobs arrive in batches of
  /// identical jobs). Returns an empty vector when no model is trained.
  std::vector<Label> predict_batch(std::span<const JobRecord> jobs,
                                   ShardedEmbeddingCache* text_cache = nullptr) const;

  /// predict_batch against a snapshot the caller already holds, so the
  /// labels and the version reported with them come from one model.
  std::vector<Label> predict_batch(const ModelSnapshot& snapshot,
                                   std::span<const JobRecord> jobs,
                                   ShardedEmbeddingCache* text_cache = nullptr) const;

  /// Inference Workflow for all jobs submitted in [start, end).
  InferenceReport predict_range(TimePoint start, TimePoint end) const;

  /// Stand-alone characterization of an executed job (paper §VI:
  /// MCBound as an analysis tool).
  std::optional<Boundedness> characterize_job(const JobRecord& job) const {
    return characterizer_.characterize(job);
  }
  std::optional<JobMetrics> job_metrics(const JobRecord& job) const {
    return characterizer_.compute_metrics(job);
  }

 private:
  ClassificationModel make_model() const;
  /// Swap in a saved model; the replaced snapshot is released outside
  /// the lock.
  void publish(ClassificationModel model, std::uint32_t version)
      MCB_REQUIRES(train_mutex_) MCB_EXCLUDES(snapshot_mutex_);

  FrameworkConfig config_;
  const JobStore* store_;
  StoreDataFetcher fetcher_;
  Characterizer characterizer_;
  FeatureEncoder encoder_;
  ThreadPool* pool_;

  /// Internally synchronized; mutable because const predict_* fill it.
  mutable ShardedEmbeddingCache cache_;

  /// Serializes writers: train_now, load_latest_model and the registry
  /// writes they make.
  Mutex train_mutex_;
  ModelRegistry registry_;

  /// Held only to copy or swap snapshot_, never across training,
  /// saving or inference.
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const ModelSnapshot> snapshot_ MCB_GUARDED_BY(snapshot_mutex_);
};

}  // namespace mcb
