#include "core/mcbound.hpp"

#include "obs/trace.hpp"

namespace mcb {

Framework::Framework(FrameworkConfig config, const JobStore& store, ThreadPool* pool)
    : config_(std::move(config)),
      store_(&store),
      fetcher_(store),
      characterizer_(config_.machine),
      encoder_(config_.features, config_.encoder),
      pool_(pool),
      cache_(encoder_.dim()),
      registry_(config_.registry_dir) {}

ClassificationModel Framework::make_model() const {
  return ClassificationModel(config_.model, config_.knn, config_.forest);
}

std::shared_ptr<const ModelSnapshot> Framework::snapshot() const {
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

std::optional<std::uint32_t> Framework::model_version() const {
  const auto current = snapshot();
  if (current == nullptr) return std::nullopt;
  return current->version;
}

std::shared_ptr<const ClassificationModel> Framework::model() const {
  auto current = snapshot();
  if (current == nullptr) return nullptr;
  const ClassificationModel* model = &current->model;
  return {std::move(current), model};
}

void Framework::publish(ClassificationModel model, std::uint32_t version) {
  std::shared_ptr<const ModelSnapshot> next =
      std::make_shared<const ModelSnapshot>(ModelSnapshot{std::move(model), version});
  MutexLock lock(snapshot_mutex_);
  snapshot_.swap(next);
}

TrainingReport Framework::train_now(TimePoint now) {
  const TimePoint window_start =
      now - static_cast<std::int64_t>(config_.alpha_days) * kSecondsPerDay;
  MutexLock lock(train_mutex_);
  const TrainingWorkflow workflow(fetcher_, characterizer_, encoder_, &cache_, pool_);
  ClassificationModel candidate = make_model();
  TrainingReport report = workflow.run(candidate, window_start, now, config_.theta);
  if (candidate.is_trained()) {
    report.version = registry_.save(candidate, model_name());
    if (report.version.has_value()) publish(std::move(candidate), *report.version);
  }
  return report;
}

bool Framework::load_latest_model() {
  MutexLock lock(train_mutex_);
  const auto version = registry_.latest_version(model_name());
  if (!version.has_value()) return false;
  ClassificationModel model = make_model();
  if (!registry_.load_into(model, model_name(), *version) || !model.is_trained()) {
    return false;
  }
  publish(std::move(model), *version);
  return true;
}

std::optional<Boundedness> Framework::predict_job(const JobRecord& job) const {
  const std::vector<Label> labels = predict_batch({&job, 1});
  if (labels.empty()) return std::nullopt;
  return to_boundedness(labels.front());
}

std::vector<Label> Framework::predict_batch(std::span<const JobRecord> jobs,
                                            ShardedEmbeddingCache* text_cache) const {
  const auto current = snapshot();
  if (current == nullptr) return {};
  return predict_batch(*current, jobs, text_cache);
}

std::vector<Label> Framework::predict_batch(const ModelSnapshot& snapshot,
                                            std::span<const JobRecord> jobs,
                                            ShardedEmbeddingCache* text_cache) const {
  if (jobs.empty()) return {};
  // encode_batch_cached opens its own kCacheLookup/kEncode spans.
  const FeatureMatrix x =
      encoder_.encode_batch_cached(jobs, text_cache != nullptr ? *text_cache : cache_, pool_);
  obs::Span classify_span(obs::Stage::kClassify);
  return snapshot.model.inference(x.view(), pool_);
}

InferenceReport Framework::predict_range(TimePoint start, TimePoint end) const {
  const auto current = snapshot();
  if (current == nullptr) return {};
  const InferenceWorkflow workflow(fetcher_, encoder_, &cache_, pool_);
  return workflow.run(current->model, start, end);
}

}  // namespace mcb
