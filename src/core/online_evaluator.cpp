#include "core/online_evaluator.hpp"

#include <algorithm>

namespace mcb {

OnlineEvaluator::OnlineEvaluator(const JobStore& store, const Characterizer& characterizer,
                                 const FeatureEncoder& encoder, ThreadPool* pool)
    : store_(&store), characterizer_(&characterizer), encoder_(&encoder), pool_(pool) {}

template <typename TrainFn, typename PredictFn>
OnlineEvalResult OnlineEvaluator::run_loop(const OnlineEvalConfig& config, TrainFn&& train,
                                           PredictFn&& predict) const {
  OnlineEvalResult result;
  Stopwatch total;

  const std::int64_t beta_secs =
      static_cast<std::int64_t>(std::max(config.beta_days, 1)) * kSecondsPerDay;
  const std::int64_t alpha_secs =
      static_cast<std::int64_t>(std::max(config.alpha_days, 1)) * kSecondsPerDay;

  for (TimePoint t = config.test_start; t < config.test_end; t += beta_secs) {
    const TimePoint window_start =
        config.growing_window ? config.data_start : std::max(config.data_start, t - alpha_secs);

    TrainingReport train_report;
    const bool trained = train(window_start, t, train_report);
    if (!trained || train_report.jobs_used == 0) {
      ++result.skipped_windows;
      continue;
    }
    ++result.retrains;
    result.train_seconds.add(train_report.train_seconds);
    result.train_set_size.add(static_cast<double>(train_report.jobs_used));

    // Predict every job submitted until the next retrain.
    const TimePoint predict_end = std::min(config.test_end, t + beta_secs);
    JobQuery q;
    q.field = JobQuery::TimeField::kSubmitTime;
    q.start_time = t;
    q.end_time = predict_end;
    const auto submitted = store_->query(q);
    if (submitted.empty()) continue;

    std::vector<JobRecord> batch;
    batch.reserve(submitted.size());
    for (const JobRecord* job : submitted) batch.push_back(*job);

    InferenceReport inf_report;
    predict(batch, inf_report);
    if (inf_report.predictions.size() != batch.size()) continue;

    result.predictions += batch.size();
    result.inference_seconds_per_job.add(inf_report.seconds_per_job());
    result.encode_seconds_per_job.add(
        inf_report.encode_seconds / static_cast<double>(batch.size()));

    // Score against the Roofline ground truth (available once the jobs
    // have completed; the paper's evaluate script does this at the end).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto truth = characterizer_->characterize(batch[i]);
      if (!truth.has_value()) continue;  // uncharacterizable: no ground truth
      result.confusion.add(to_label(*truth), inf_report.predictions[i]);
    }
  }

  result.total_seconds = total.seconds();
  return result;
}

OnlineEvalResult OnlineEvaluator::evaluate(
    const std::function<ClassificationModel()>& make_model,
    const OnlineEvalConfig& config) const {
  StoreDataFetcher fetcher(*store_);
  ShardedEmbeddingCache cache(encoder_->dim());
  const TrainingWorkflow training(fetcher, *characterizer_, *encoder_, &cache, pool_);
  const InferenceWorkflow inference(fetcher, *encoder_, &cache, pool_);

  std::optional<ClassificationModel> model;
  return run_loop(
      config,
      [&](TimePoint start, TimePoint end, TrainingReport& report) {
        model.emplace(make_model());
        report = training.run(*model, start, end, config.theta);
        return model->is_trained();
      },
      [&](std::span<const JobRecord> jobs, InferenceReport& report) {
        report = inference.run_jobs(*model, jobs);
      });
}

OnlineEvalResult OnlineEvaluator::evaluate_baseline(const OnlineEvalConfig& config) const {
  StoreDataFetcher fetcher(*store_);
  const TrainingWorkflow training(fetcher, *characterizer_, *encoder_, nullptr, pool_);
  const InferenceWorkflow inference(fetcher, *encoder_, nullptr, pool_);

  LookupBaseline baseline(kNumBoundednessClasses);
  return run_loop(
      config,
      [&](TimePoint start, TimePoint end, TrainingReport& report) {
        report = training.run_baseline(baseline, start, end, config.theta);
        return baseline.is_fitted();
      },
      [&](std::span<const JobRecord> jobs, InferenceReport& report) {
        report = inference.run_jobs_baseline(baseline, jobs);
      });
}

}  // namespace mcb
