// End-to-end integration tests: synthetic Fugaku workload -> job store ->
// characterization -> online training/inference -> evaluation, plus the
// HTTP deployment path. These assert the *shape* of the paper's headline
// results at reduced scale (see DESIGN.md §3-4).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "core/mcbound.hpp"
#include "core/online_evaluator.hpp"
#include "roofline/analysis.hpp"
#include "serve/api.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace mcb {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = std::make_unique<WorkloadConfig>(scaled_workload_config(200.0, 15));
    WorkloadGenerator generator(*config_);
    store_ = std::make_unique<JobStore>();
    store_->insert_all(generator.generate());
    pool_ = std::make_unique<ThreadPool>();
  }
  static void TearDownTestSuite() {
    pool_.reset();
    store_.reset();
    config_.reset();
  }

  static std::unique_ptr<WorkloadConfig> config_;
  static std::unique_ptr<JobStore> store_;
  /// Shared by every OnlineEvaluator: forest trees are seeded per tree
  /// and KNN queries are independent, so results match a serial run.
  static std::unique_ptr<ThreadPool> pool_;
};

std::unique_ptr<WorkloadConfig> IntegrationTest::config_;
std::unique_ptr<JobStore> IntegrationTest::store_;
std::unique_ptr<ThreadPool> IntegrationTest::pool_;

TEST_F(IntegrationTest, WorkloadShapeMatchesPaperAnalysis) {
  const Characterizer ch(config_->machine);
  const auto analysis = analyze_jobs(ch, store_->all());
  ASSERT_GT(analysis.jobs.size(), 10'000U);

  // §IV-C: majority memory-bound, skew toward intensities below ridge.
  const double ratio = analysis.breakdown.memory_to_compute_ratio();
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 5.5);

  // §IV-C: suboptimal frequency selection on both sides.
  EXPECT_GT(analysis.breakdown.memory_bound_normal_fraction(), 0.40);
  EXPECT_LT(analysis.breakdown.compute_bound_boost_fraction(), 0.50);
}

TEST_F(IntegrationTest, OnlineKnnReachesPaperBandAndBeatsStaleSettings) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(*store_, ch, encoder, pool_.get());

  OnlineEvalConfig best;
  best.alpha_days = 30;
  best.beta_days = 1;
  const auto knn =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, best);
  EXPECT_EQ(knn.retrains, 29U);  // daily retrain through February
  EXPECT_GT(knn.predictions, 1000U);
  // Paper: F1 >= 0.89 at full scale; at ~0.4% of the data volume we
  // accept a band that still rules out degenerate classifiers.
  EXPECT_GT(knn.f1_macro(), 0.80);
  EXPECT_LT(knn.f1_macro(), 0.99);  // straddler noise must be present

  // Stale model (beta = 10) must do worse than daily retraining.
  OnlineEvalConfig stale = best;
  stale.beta_days = 10;
  const auto stale_knn =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, stale);
  EXPECT_LT(stale_knn.f1_macro(), knn.f1_macro() + 0.005);
}

TEST_F(IntegrationTest, RandomForestMatchesOrBeatsKnn) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(*store_, ch, encoder, pool_.get());

  OnlineEvalConfig rf_config;
  // The paper's best RF setting is alpha = 15 at 25K jobs/day; at the
  // reduced test scale RF needs the same 30-day window as KNN for full
  // app coverage (the paper finds RF insensitive to alpha at full scale).
  rf_config.alpha_days = 30;
  rf_config.beta_days = 1;
  RandomForestConfig forest;
  forest.n_trees = 100;
  forest.tree.max_features = 48;
  const auto rf = evaluator.evaluate(
      [&] { return ClassificationModel(ModelKind::kRandomForest, {}, forest); },
      rf_config);
  // 0.80 rules out a majority-class predictor (whose F1-macro is ~0.44).
  EXPECT_GT(rf.f1_macro(), 0.80);

  OnlineEvalConfig knn_config;
  knn_config.alpha_days = 30;
  knn_config.beta_days = 1;
  const auto knn =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, knn_config);
  // Paper §V-C(d): RF 0.90 vs KNN 0.89 — near-parity with RF ahead.
  EXPECT_GT(rf.f1_macro(), knn.f1_macro() - 0.03);
}

TEST_F(IntegrationTest, BothModelsBeatTheLookupBaseline) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(*store_, ch, encoder, pool_.get());

  OnlineEvalConfig config;
  config.alpha_days = 30;
  config.beta_days = 1;
  const auto knn =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);
  const auto baseline = evaluator.evaluate_baseline(config);
  // Paper §V-C(a): baseline 0.83 vs 0.90.
  EXPECT_GT(knn.f1_macro(), baseline.f1_macro() + 0.02);
}

TEST_F(IntegrationTest, TrainingTimeScalesWithAlphaForRf) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(*store_, ch, encoder, pool_.get());

  RandomForestConfig forest;
  forest.n_trees = 30;
  OnlineEvalConfig small, large;
  small.alpha_days = 15;
  large.alpha_days = 60;
  // Limit to one retrain each to keep the test fast.
  small.beta_days = large.beta_days = 40;
  const auto small_result = evaluator.evaluate(
      [&] { return ClassificationModel(ModelKind::kRandomForest, {}, forest); }, small);
  const auto large_result = evaluator.evaluate(
      [&] { return ClassificationModel(ModelKind::kRandomForest, {}, forest); }, large);
  // Fig. 7: RF training time grows with the window.
  EXPECT_GT(large_result.train_set_size.mean(), small_result.train_set_size.mean() * 2);
  EXPECT_GT(large_result.train_seconds.mean(), small_result.train_seconds.mean());
}

TEST_F(IntegrationTest, EmbeddingCacheEliminatesRecomputation) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  StoreDataFetcher fetcher(*store_);
  ShardedEmbeddingCache cache(encoder.dim());
  const TrainingWorkflow training(fetcher, ch, encoder, &cache);

  const TimePoint t = timepoint_from_ymd(2024, 2, 1);
  ClassificationModel first(ModelKind::kKnn);
  const auto report1 = training.run(first, t - 15 * kSecondsPerDay, t);
  EXPECT_EQ(report1.cache_hits, 0U);
  EXPECT_EQ(report1.cache_misses, report1.jobs_used);

  // Retraining a day later re-uses the overlapping encodings (§V-A), and
  // recurring jobs share one entry, so the cache holds far fewer rows
  // than the window has jobs and never more than its capacity.
  ClassificationModel second(ModelKind::kKnn);
  const auto report2 =
      training.run(second, t - 14 * kSecondsPerDay, t + kSecondsPerDay);
  EXPECT_GT(report2.cache_hits, report2.cache_misses * 5);
  EXPECT_EQ(report2.cache_hits + report2.cache_misses, report2.jobs_used);
  EXPECT_LT(cache.size(), report2.jobs_used);
  EXPECT_LE(cache.size(), cache.capacity());

  // Cached rows are the rows a fresh encoding gives.
  const auto window = fetcher.fetch(t - 14 * kSecondsPerDay, t + kSecondsPerDay,
                                    JobQuery::TimeField::kEndTime);
  EXPECT_EQ(encoder.encode_batch_cached(window, cache).storage(),
            encoder.encode_batch(window).storage());
}

TEST_F(IntegrationTest, ThetaRandomBeatsLatestAtSmallBudgets) {
  const Characterizer ch(config_->machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(*store_, ch, encoder, pool_.get());

  OnlineEvalConfig config;
  config.alpha_days = 30;
  config.beta_days = 2;  // fewer retrains to keep runtime sane
  config.theta.theta = 200;

  config.theta.mode = ThetaConfig::Sampling::kLatest;
  const auto latest =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);

  config.theta.mode = ThetaConfig::Sampling::kRandom;
  double random_sum = 0.0;
  for (const std::uint64_t seed : {520ULL, 90ULL, 1905ULL}) {
    config.theta.seed = seed;
    random_sum += evaluator
                      .evaluate([] { return ClassificationModel(ModelKind::kKnn); },
                                config)
                      .f1_macro();
  }
  const double random_mean = random_sum / 3.0;
  // Figs. 9/10: random sampling dominates latest-first at small theta
  // (batches of identical jobs make "latest" redundant).
  EXPECT_GT(random_mean, latest.f1_macro());
}

TEST_F(IntegrationTest, FullDeploymentOverHttp) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_integration_api").string();
  fs::remove_all(registry_dir);

  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  config.alpha_days = 30;
  Framework framework(config, *store_);
  ApiServer api(framework);
  ASSERT_TRUE(api.start(0));

  int status = 0;
  std::string body;
  const TimePoint feb1 = timepoint_from_ymd(2024, 2, 1);
  ASSERT_TRUE(http_request(api.port(), "POST", "/train",
                           "{\"now\": " + std::to_string(feb1) + "}", status, body));
  ASSERT_EQ(status, 201) << body;

  // Predict a real February submission and compare against ground truth.
  JobQuery q;
  q.field = JobQuery::TimeField::kSubmitTime;
  q.start_time = feb1;
  q.end_time = feb1 + kSecondsPerDay;
  const auto submitted = store_->query(q);
  ASSERT_FALSE(submitted.empty());

  const Characterizer ch(config_->machine);
  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(submitted.size(), 50); ++i) {
    const JobRecord& job = *submitted[i];
    ASSERT_TRUE(http_request(api.port(), "POST", "/predict",
                             job_to_json(job).dump(), status, body));
    ASSERT_EQ(status, 200) << body;
    const auto response = Json::parse(body);
    const auto predicted = parse_boundedness((*response)["label"].as_string());
    ASSERT_TRUE(predicted.has_value());
    const auto truth = ch.characterize(job);
    ASSERT_TRUE(truth.has_value());
    correct += *predicted == *truth;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.7);
  api.stop();
  fs::remove_all(registry_dir);
}

TEST_F(IntegrationTest, CsvExportReimportPreservesEvaluation) {
  const std::string path = (fs::temp_directory_path() / "mcb_trace.csv").string();
  ASSERT_TRUE(store_->save_csv(path));
  JobStore reloaded;
  std::string error;
  ASSERT_TRUE(reloaded.load_csv(path, &error)) << error;
  ASSERT_EQ(reloaded.size(), store_->size());

  const Characterizer ch(config_->machine);
  const auto original = analyze_jobs(ch, store_->all());
  const auto roundtrip = analyze_jobs(ch, reloaded.all());
  EXPECT_EQ(roundtrip.breakdown.total(), original.breakdown.total());
  EXPECT_EQ(roundtrip.breakdown.by_label(Boundedness::kComputeBound),
            original.breakdown.by_label(Boundedness::kComputeBound));
  fs::remove(path);
}

}  // namespace
}  // namespace mcb
