#include "core/workflows.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

std::vector<JobRecord> apply_theta(std::vector<JobRecord> jobs, const ThetaConfig& theta) {
  if (theta.mode == ThetaConfig::Sampling::kAll || theta.theta == 0 ||
      jobs.size() <= theta.theta) {
    return jobs;
  }
  if (theta.mode == ThetaConfig::Sampling::kLatest) {
    // Jobs arrive ordered by end_time; keep the most recent theta.
    jobs.erase(jobs.begin(),
               jobs.begin() + static_cast<std::ptrdiff_t>(jobs.size() - theta.theta));
    return jobs;
  }
  // Uniform random subset, deterministic in the seed.
  Rng rng(theta.seed);
  auto picks = rng.sample_indices(jobs.size(), theta.theta);
  std::sort(picks.begin(), picks.end());  // keep temporal order
  std::vector<JobRecord> out;
  out.reserve(picks.size());
  for (const std::size_t i : picks) out.push_back(std::move(jobs[i]));
  return out;
}

TrainingWorkflow::TrainingWorkflow(const DataFetcher& fetcher,
                                   const Characterizer& characterizer,
                                   const FeatureEncoder& encoder,
                                   ShardedEmbeddingCache* cache, ThreadPool* pool)
    : fetcher_(&fetcher), characterizer_(&characterizer), encoder_(&encoder), cache_(cache),
      pool_(pool) {}

TrainingReport TrainingWorkflow::run(ClassificationModel& model, TimePoint window_start,
                                     TimePoint window_end, const ThetaConfig& theta) const {
  TrainingReport report;
  Stopwatch sw;
  std::vector<JobRecord> jobs =
      fetcher_->fetch(window_start, window_end, JobQuery::TimeField::kEndTime);
  report.fetch_seconds = sw.seconds();
  report.jobs_fetched = jobs.size();

  jobs = apply_theta(std::move(jobs), theta);
  report.jobs_used = jobs.size();
  if (jobs.empty()) return report;

  sw.reset();
  const std::vector<Boundedness> raw_labels =
      characterizer_->generate_labels(jobs, &report.uncharacterizable);
  report.characterize_seconds = sw.seconds();

  std::vector<Label> labels(raw_labels.size());
  std::transform(raw_labels.begin(), raw_labels.end(), labels.begin(),
                 [](Boundedness b) { return to_label(b); });

  sw.reset();
  std::size_t misses = 0;
  const FeatureMatrix x = cache_ != nullptr
                              ? encoder_->encode_batch_cached(jobs, *cache_, pool_, &misses)
                              : encoder_->encode_batch(jobs, pool_);
  report.encode_seconds = sw.seconds();
  if (cache_ != nullptr) {
    report.cache_hits = jobs.size() - misses;
    report.cache_misses = misses;
  }

  sw.reset();
  model.training(x.view(), labels, pool_);
  report.train_seconds = sw.seconds();
  return report;
}

TrainingReport TrainingWorkflow::run_baseline(LookupBaseline& baseline,
                                              TimePoint window_start, TimePoint window_end,
                                              const ThetaConfig& theta) const {
  TrainingReport report;
  Stopwatch sw;
  std::vector<JobRecord> jobs =
      fetcher_->fetch(window_start, window_end, JobQuery::TimeField::kEndTime);
  report.fetch_seconds = sw.seconds();
  report.jobs_fetched = jobs.size();

  jobs = apply_theta(std::move(jobs), theta);
  report.jobs_used = jobs.size();
  if (jobs.empty()) return report;

  sw.reset();
  const std::vector<Boundedness> raw_labels =
      characterizer_->generate_labels(jobs, &report.uncharacterizable);
  report.characterize_seconds = sw.seconds();

  std::vector<LookupBaseline::Key> keys;
  keys.reserve(jobs.size());
  std::vector<Label> labels;
  labels.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    keys.push_back({jobs[i].job_name, jobs[i].cores_requested});
    labels.push_back(to_label(raw_labels[i]));
  }

  sw.reset();
  baseline.fit(keys, labels);
  report.train_seconds = sw.seconds();
  return report;
}

InferenceWorkflow::InferenceWorkflow(const DataFetcher& fetcher, const FeatureEncoder& encoder,
                                     ShardedEmbeddingCache* cache, ThreadPool* pool)
    : fetcher_(&fetcher), encoder_(&encoder), cache_(cache), pool_(pool) {}

InferenceReport InferenceWorkflow::run(const ClassificationModel& model, TimePoint start,
                                       TimePoint end) const {
  Stopwatch sw;
  const std::vector<JobRecord> jobs =
      fetcher_->fetch(start, end, JobQuery::TimeField::kSubmitTime);
  InferenceReport report = run_jobs(model, jobs);
  report.fetch_seconds = sw.seconds() - report.encode_seconds - report.predict_seconds;
  return report;
}

InferenceReport InferenceWorkflow::run_jobs(const ClassificationModel& model,
                                            std::span<const JobRecord> jobs) const {
  InferenceReport report;
  report.job_ids.reserve(jobs.size());
  for (const auto& job : jobs) report.job_ids.push_back(job.job_id);
  if (jobs.empty()) return report;

  Stopwatch sw;
  const FeatureMatrix x = cache_ != nullptr ? encoder_->encode_batch_cached(jobs, *cache_, pool_)
                                            : encoder_->encode_batch(jobs, pool_);
  report.encode_seconds = sw.seconds();

  sw.reset();
  report.predictions = model.inference(x.view(), pool_);
  report.predict_seconds = sw.seconds();
  return report;
}

InferenceReport InferenceWorkflow::run_jobs_baseline(const LookupBaseline& baseline,
                                                     std::span<const JobRecord> jobs) const {
  InferenceReport report;
  report.job_ids.reserve(jobs.size());
  std::vector<LookupBaseline::Key> keys;
  keys.reserve(jobs.size());
  for (const auto& job : jobs) {
    report.job_ids.push_back(job.job_id);
    keys.push_back({job.job_name, job.cores_requested});
  }
  if (jobs.empty()) return report;
  Stopwatch sw;
  report.predictions = baseline.predict(keys);
  report.predict_seconds = sw.seconds();
  return report;
}

}  // namespace mcb
