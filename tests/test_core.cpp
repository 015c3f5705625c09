// Tests for the core MCBound framework: feature encoding + cache, the
// classification-model wrapper, theta sub-sampling, the training and
// inference workflows, the online evaluator, the model registry, the
// JSON config and the Framework facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "core/config.hpp"
#include "core/mcbound.hpp"
#include "core/online_evaluator.hpp"
#include "core/workflows.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace mcb {
namespace {

namespace fs = std::filesystem;

JobRecord submission(std::uint64_t id, const std::string& user, const std::string& name,
                     std::uint32_t nodes = 2, FrequencyMode freq = FrequencyMode::kNormal) {
  JobRecord job;
  job.job_id = id;
  job.user_name = user;
  job.job_name = name;
  job.environment = "lang/tcsds-1.2.38";
  job.nodes_requested = nodes;
  job.cores_requested = nodes * 48;
  job.frequency = freq;
  job.nodes_allocated = nodes;
  return job;
}

/// `prefix` followed by `n`, e.g. "app_3".
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// Executed job with counters that make it memory- or compute-bound.
JobRecord executed(std::uint64_t id, const std::string& name, bool compute_bound,
                   TimePoint end_time) {
  JobRecord job = submission(id, "u00001", name);
  job.submit_time = end_time - 1000;
  job.start_time = end_time - 900;
  job.end_time = end_time;
  if (compute_bound) {
    job.perf2 = 1e15;
    job.perf4 = job.perf5 = 1e6;
  } else {
    job.perf2 = 1e6;
    job.perf4 = job.perf5 = 1e12;
  }
  return job;
}

// -------------------------------------------------------- label mapping

TEST(Labels, RoundTrip) {
  EXPECT_EQ(to_label(Boundedness::kMemoryBound), kLabelMemoryBound);
  EXPECT_EQ(to_label(Boundedness::kComputeBound), kLabelComputeBound);
  EXPECT_EQ(to_boundedness(kLabelMemoryBound), Boundedness::kMemoryBound);
  EXPECT_EQ(to_boundedness(kLabelComputeBound), Boundedness::kComputeBound);
  EXPECT_EQ(boundedness_class_names().size(), kNumBoundednessClasses);
}

// ------------------------------------------------------ feature encoder

TEST(FeatureEncoder, DefaultFeatureSetMatchesPaper) {
  const auto features = default_feature_set();
  // user name, job name, #cores, #nodes, environment + frequency (§V-A).
  ASSERT_EQ(features.size(), 6U);
  EXPECT_EQ(features[0], JobFeature::kUserName);
  EXPECT_EQ(features[5], JobFeature::kFrequency);
}

TEST(FeatureEncoder, FeatureStringIsCommaJoined) {
  const FeatureEncoder encoder;
  const JobRecord job = submission(1, "u00077", "wrf_sim_a", 4, FrequencyMode::kBoost);
  EXPECT_EQ(encoder.feature_string(job), "u00077,wrf_sim_a,192,4,lang/tcsds-1.2.38,2200");
}

TEST(FeatureEncoder, CustomFeatureSubset) {
  const FeatureEncoder encoder({JobFeature::kJobName, JobFeature::kNodesRequested});
  const JobRecord job = submission(1, "u1", "gemm", 8);
  EXPECT_EQ(encoder.feature_string(job), "gemm,8");
}

TEST(FeatureEncoder, EncodeBatchShape) {
  const FeatureEncoder encoder;
  std::vector<JobRecord> jobs{submission(1, "a", "x"), submission(2, "b", "y")};
  const FeatureMatrix m = encoder.encode_batch(jobs);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), encoder.dim());
}

TEST(FeatureEncoder, FrequencyChangesEncoding) {
  const FeatureEncoder encoder;
  JobRecord a = submission(1, "u", "job");
  JobRecord b = a;
  b.frequency = FrequencyMode::kBoost;
  EXPECT_NE(encoder.encode(a), encoder.encode(b));
}

TEST(CachedEncoding, ReportsThisCallsMisses) {
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim());
  std::vector<JobRecord> jobs{submission(1, "a", "x"), submission(2, "b", "y")};
  std::size_t misses = 0;
  const FeatureMatrix first = encoder.encode_batch_cached(jobs, cache, nullptr, &misses);
  EXPECT_EQ(misses, 2U);
  EXPECT_EQ(cache.size(), 2U);

  const FeatureMatrix second = encoder.encode_batch_cached(jobs, cache, nullptr, &misses);
  EXPECT_EQ(misses, 0U);
  EXPECT_EQ(cache.stats().hits, 2U);
  EXPECT_EQ(second.storage(), first.storage());
}

TEST(CachedEncoding, CachedRowsMatchFreshEncoding) {
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim());
  // A repeated string and a recurring job under a new id: both hit.
  std::vector<JobRecord> jobs{submission(7, "u9", "qcd_run_z"), submission(8, "u9", "qcd_run_z"),
                              submission(9, "u1", "wrf_sim_a", 4, FrequencyMode::kBoost)};
  const FeatureMatrix fresh = encoder.encode_batch(jobs);
  EXPECT_EQ(encoder.encode_batch_cached(jobs, cache).storage(), fresh.storage());  // misses
  EXPECT_EQ(encoder.encode_batch_cached(jobs, cache).storage(), fresh.storage());  // hits
}

TEST(CachedEncoding, AnonymousJobsWithDifferentTextGetDifferentRows) {
  // Regression: two ad-hoc jobs with job_id == 0 must not share an
  // embedding through the cache. The key is the text, not the id.
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim());
  std::vector<JobRecord> first{submission(0, "u1", "stream_app")};
  std::vector<JobRecord> second{submission(0, "u2", "dgemm_app")};
  const FeatureMatrix a = encoder.encode_batch_cached(first, cache);
  const FeatureMatrix b = encoder.encode_batch_cached(second, cache);
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_NE(a.storage(), b.storage());
  EXPECT_EQ(a.storage(), encoder.encode_batch(first).storage());
  EXPECT_EQ(b.storage(), encoder.encode_batch(second).storage());
}

TEST(CachedEncoding, WindowWiderThanCapacityStaysBounded) {
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim(), EmbeddingCacheConfig{.capacity = 8, .shards = 2});
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 50; ++i) {
    jobs.push_back(submission(i, "u1", "app_" + std::to_string(i)));
  }
  const FeatureMatrix fresh = encoder.encode_batch(jobs);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(encoder.encode_batch_cached(jobs, cache).storage(), fresh.storage());
    EXPECT_LE(cache.size(), cache.capacity());
  }
}

TEST(CachedEncoding, ColdBatchEncodesEachDistinctStringOnce) {
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim());
  // Three texts over nine jobs: repeats under new ids, job_id 0 three times.
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 9; ++i) {
    jobs.push_back(submission(i % 4 == 0 ? 0 : i, numbered("u", i % 3), numbered("app_", i % 3)));
  }
  std::set<std::string> distinct;
  for (const JobRecord& job : jobs) distinct.insert(encoder.feature_string(job));
  ASSERT_EQ(distinct.size(), 3U);

  const FeatureMatrix fresh = encoder.encode_batch(jobs);
  std::size_t misses = 0;
  EXPECT_EQ(encoder.encode_batch_cached(jobs, cache, nullptr, &misses).storage(),
            fresh.storage());
  EXPECT_EQ(misses, distinct.size());
  EXPECT_EQ(cache.stats().misses, distinct.size());
  EXPECT_EQ(cache.stats().hits, 0U);
  // Warm: one lookup, and one hit, per distinct string.
  EXPECT_EQ(encoder.encode_batch_cached(jobs, cache, nullptr, &misses).storage(),
            fresh.storage());
  EXPECT_EQ(misses, 0U);
  EXPECT_EQ(cache.stats().hits, distinct.size());
}

TEST(CachedEncoding, DistinctRowsMapEveryJobToItsRow) {
  const FeatureEncoder encoder;
  ShardedEmbeddingCache cache(encoder.dim());
  std::vector<JobRecord> jobs{submission(5, "u1", "x"), submission(6, "u2", "y"),
                              submission(7, "u1", "x"), submission(0, "u3", "z"),
                              submission(0, "u2", "y")};
  const FeatureMatrix fresh = encoder.encode_batch(jobs);
  const FeatureEncoder::DistinctRows x = encoder.encode_distinct_cached(jobs, cache);
  EXPECT_EQ(cache.stats().misses, 3U);
  ASSERT_EQ(x.rows.rows(), 3U);
  EXPECT_EQ(x.slot, (std::vector<std::size_t>{0, 1, 0, 2, 1}));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto row = x.rows.row(x.slot[i]);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), fresh.row(i).begin())) << i;
  }
}

// ------------------------------------------------- classification model

TEST(ClassificationModel, KindParsing) {
  EXPECT_EQ(*parse_model_kind("knn"), ModelKind::kKnn);
  EXPECT_EQ(*parse_model_kind("rf"), ModelKind::kRandomForest);
  EXPECT_EQ(*parse_model_kind("random_forest"), ModelKind::kRandomForest);
  EXPECT_FALSE(parse_model_kind("svm").has_value());
  EXPECT_STREQ(model_kind_name(ModelKind::kKnn), "knn");
}

TEST(ClassificationModel, TrainingAndInference) {
  KnnConfig knn;
  knn.k = 1;  // 4 training points; the default k = 5 would always tie
  ClassificationModel model(ModelKind::kKnn, knn);
  EXPECT_FALSE(model.is_trained());
  FeatureMatrix x(4, 2);
  for (int i = 0; i < 4; ++i) x.row(i)[0] = static_cast<float>(i < 2 ? 0 : 10);
  const std::vector<Label> y{0, 0, 1, 1};
  model.training(x.view(), y);
  EXPECT_TRUE(model.is_trained());
  const auto pred = model.inference(x.view());
  EXPECT_EQ(pred, y);
}

// ------------------------------------------------------ theta sampling

TEST(ApplyTheta, AllModeKeepsEverything) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(executed(i, "j", false, 1000 + i));
  EXPECT_EQ(apply_theta(jobs, ThetaConfig{}).size(), 10U);
}

TEST(ApplyTheta, LatestKeepsMostRecent) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(executed(i, "j", false, 1000 + i));
  ThetaConfig theta;
  theta.mode = ThetaConfig::Sampling::kLatest;
  theta.theta = 3;
  const auto kept = apply_theta(jobs, theta);
  ASSERT_EQ(kept.size(), 3U);
  EXPECT_EQ(kept[0].job_id, 7U);
  EXPECT_EQ(kept[2].job_id, 9U);
}

TEST(ApplyTheta, RandomIsDeterministicInSeedAndOrdered) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back(executed(i, "j", false, 1000 + i));
  ThetaConfig theta;
  theta.mode = ThetaConfig::Sampling::kRandom;
  theta.theta = 10;
  theta.seed = 520;
  const auto a = apply_theta(jobs, theta);
  const auto b = apply_theta(jobs, theta);
  ASSERT_EQ(a.size(), 10U);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].job_id, b[i].job_id);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1].end_time, a[i].end_time);

  theta.seed = 90;
  const auto c = apply_theta(jobs, theta);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) differs = differs || c[i].job_id != a[i].job_id;
  EXPECT_TRUE(differs);
}

TEST(ApplyTheta, ThetaLargerThanWindowIsNoop) {
  std::vector<JobRecord> jobs{executed(1, "j", false, 1000)};
  ThetaConfig theta;
  theta.mode = ThetaConfig::Sampling::kRandom;
  theta.theta = 100;
  EXPECT_EQ(apply_theta(jobs, theta).size(), 1U);
}

// ------------------------------------------------------------ workflows

class WorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 40 memory-bound "stream_app" + 40 compute-bound "dgemm_app" jobs
    // executed across 4 days.
    std::vector<JobRecord> jobs;
    for (std::uint64_t i = 1; i <= 80; ++i) {
      const bool compute = i % 2 == 1;
      JobRecord job = executed(i, compute ? "dgemm_app" : "stream_app", compute,
                               base_ + static_cast<TimePoint>(i) * 3600);
      job.user_name = compute ? "u00002" : "u00001";
      jobs.push_back(std::move(job));
    }
    store_.insert_all(std::move(jobs));
  }

  TimePoint base_ = timepoint_from_ymd(2024, 1, 1) + 1000;
  JobStore store_;
  Characterizer characterizer_{fugaku_node_spec()};
  FeatureEncoder encoder_;
};

TEST_F(WorkflowTest, TrainingWorkflowProducesWorkingModel) {
  StoreDataFetcher fetcher(store_);
  ShardedEmbeddingCache cache(encoder_.dim());
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, &cache);

  ClassificationModel model(ModelKind::kKnn);
  const auto report = training.run(model, 0, timepoint_from_ymd(2024, 2, 1));
  EXPECT_EQ(report.jobs_fetched, 80U);
  EXPECT_EQ(report.jobs_used, 80U);
  EXPECT_EQ(report.uncharacterizable, 0U);
  EXPECT_TRUE(model.is_trained());
  // Two distinct feature strings (stream_app by u00001, dgemm_app by
  // u00002): each is encoded once, and the other 78 rows are copies.
  EXPECT_EQ(report.cache_misses, 2U);
  EXPECT_EQ(report.cache_hits, 78U);

  // Inference on fresh submissions of the two app families.
  const InferenceWorkflow inference(fetcher, encoder_, &cache);
  std::vector<JobRecord> unseen{submission(100, "u00001", "stream_app"),
                                submission(101, "u00002", "dgemm_app")};
  const auto result = inference.run_jobs(model, unseen);
  ASSERT_EQ(result.predictions.size(), 2U);
  EXPECT_EQ(result.predictions[0], kLabelMemoryBound);
  EXPECT_EQ(result.predictions[1], kLabelComputeBound);
  EXPECT_EQ(result.job_ids[0], 100U);
}

TEST_F(WorkflowTest, EmptyWindowLeavesModelUntrained) {
  StoreDataFetcher fetcher(store_);
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, nullptr);
  ClassificationModel model(ModelKind::kKnn);
  const auto report = training.run(model, 0, 10);  // before any job
  EXPECT_EQ(report.jobs_used, 0U);
  EXPECT_FALSE(model.is_trained());
}

TEST_F(WorkflowTest, TrainingReportTimesArePopulated) {
  StoreDataFetcher fetcher(store_);
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, nullptr);
  ClassificationModel model(ModelKind::kRandomForest, {},
                            [] {
                              RandomForestConfig c;
                              c.n_trees = 5;
                              return c;
                            }());
  const auto report = training.run(model, 0, timepoint_from_ymd(2024, 2, 1));
  EXPECT_GT(report.train_seconds, 0.0);
  EXPECT_GT(report.encode_seconds, 0.0);
  EXPECT_GE(report.characterize_seconds, 0.0);
}

TEST_F(WorkflowTest, InferenceWorkflowFetchesBySubmitTime) {
  StoreDataFetcher fetcher(store_);
  ShardedEmbeddingCache cache(encoder_.dim());
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, &cache);
  ClassificationModel model(ModelKind::kKnn);
  training.run(model, 0, timepoint_from_ymd(2024, 2, 1));

  const InferenceWorkflow inference(fetcher, encoder_, &cache);
  // All 80 jobs were submitted within the period.
  const auto result = inference.run(model, 0, timepoint_from_ymd(2024, 2, 1));
  EXPECT_EQ(result.size(), 80U);
  EXPECT_GE(result.seconds_per_job(), 0.0);
}

TEST_F(WorkflowTest, BaselineWorkflowLearnsLookup) {
  StoreDataFetcher fetcher(store_);
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, nullptr);
  LookupBaseline baseline;
  const auto report =
      training.run_baseline(baseline, 0, timepoint_from_ymd(2024, 2, 1));
  EXPECT_EQ(report.jobs_used, 80U);
  EXPECT_TRUE(baseline.is_fitted());

  const InferenceWorkflow inference(fetcher, encoder_, nullptr);
  std::vector<JobRecord> unseen{submission(200, "u00001", "stream_app"),
                                submission(201, "u00002", "dgemm_app")};
  const auto result = inference.run_jobs_baseline(baseline, unseen);
  EXPECT_EQ(result.predictions[0], kLabelMemoryBound);
  EXPECT_EQ(result.predictions[1], kLabelComputeBound);
}

TEST_F(WorkflowTest, ThetaRestrictsTrainingSize) {
  StoreDataFetcher fetcher(store_);
  const TrainingWorkflow training(fetcher, characterizer_, encoder_, nullptr);
  ClassificationModel model(ModelKind::kKnn);
  ThetaConfig theta;
  theta.mode = ThetaConfig::Sampling::kLatest;
  theta.theta = 10;
  const auto report = training.run(model, 0, timepoint_from_ymd(2024, 2, 1), theta);
  EXPECT_EQ(report.jobs_fetched, 80U);
  EXPECT_EQ(report.jobs_used, 10U);
}

// ------------------------------------------------------ online evaluator

TEST(OnlineEvaluator, PerfectlySeparableWorkloadScoresHigh) {
  const TimePoint start = timepoint_from_ymd(2023, 12, 1);
  const TimePoint test_start = timepoint_from_ymd(2023, 12, 20);
  const TimePoint test_end = timepoint_from_ymd(2023, 12, 27);
  std::vector<JobRecord> jobs;
  std::uint64_t id = 0;
  for (TimePoint t = start; t < test_end; t += 3600) {
    const bool compute = (id % 2) == 1;
    JobRecord job = executed(id, compute ? "dgemm_app" : "stream_app", compute, t + 2000);
    job.user_name = compute ? "u2" : "u1";
    job.submit_time = t;
    job.start_time = t + 100;
    jobs.push_back(std::move(job));
    ++id;
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  const Characterizer ch(fugaku_node_spec());
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, ch, encoder);

  OnlineEvalConfig config;
  config.alpha_days = 10;
  config.beta_days = 1;
  config.data_start = start;
  config.test_start = test_start;
  config.test_end = test_end;

  const auto result =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);
  EXPECT_EQ(result.retrains, 7U);
  EXPECT_GT(result.predictions, 100U);
  EXPECT_GT(result.f1_macro(), 0.99);
  EXPECT_GT(result.train_set_size.mean(), 0.0);
  EXPECT_GE(result.inference_seconds_per_job.mean(), 0.0);

  const auto baseline_result = evaluator.evaluate_baseline(config);
  EXPECT_GT(baseline_result.f1_macro(), 0.99);
}

TEST(OnlineEvaluator, SkipsWindowsWithoutData) {
  JobStore store;  // empty
  const Characterizer ch(fugaku_node_spec());
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, ch, encoder);
  OnlineEvalConfig config;
  config.data_start = 0;
  config.test_start = kSecondsPerDay * 10;
  config.test_end = kSecondsPerDay * 13;
  const auto result =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);
  EXPECT_EQ(result.retrains, 0U);
  EXPECT_EQ(result.skipped_windows, 3U);
  EXPECT_EQ(result.predictions, 0U);
}

TEST(OnlineEvaluator, GrowingWindowUsesAllHistory) {
  const TimePoint start = timepoint_from_ymd(2023, 12, 1);
  std::vector<JobRecord> jobs;
  std::uint64_t id = 0;
  for (TimePoint t = start; t < start + 20 * kSecondsPerDay; t += 7200) {
    JobRecord job = executed(id, "stream_app", false, t + 2000);
    job.submit_time = t;
    job.start_time = t + 100;
    jobs.push_back(std::move(job));
    ++id;
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  const Characterizer ch(fugaku_node_spec());
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, ch, encoder);

  OnlineEvalConfig config;
  config.alpha_days = 2;
  config.beta_days = 5;
  config.data_start = start;
  config.test_start = start + 15 * kSecondsPerDay;
  config.test_end = start + 20 * kSecondsPerDay;

  const auto sliding =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);
  config.growing_window = true;
  const auto growing =
      evaluator.evaluate([] { return ClassificationModel(ModelKind::kKnn); }, config);
  EXPECT_GT(growing.train_set_size.mean(), sliding.train_set_size.mean() * 3);
}

// --------------------------------------------------------- model registry

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "mcb_registry_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ClassificationModel trained_knn() {
    ClassificationModel model(ModelKind::kKnn);
    FeatureMatrix x(4, 2);
    for (int i = 0; i < 4; ++i) x.row(i)[0] = static_cast<float>(i);
    const std::vector<Label> y{0, 0, 1, 1};
    model.training(x.view(), y);
    return model;
  }

  std::string dir_;
};

TEST_F(RegistryTest, SaveAssignsIncreasingVersions) {
  ModelRegistry registry(dir_);
  const auto model = trained_knn();
  EXPECT_EQ(registry.save(model, "knn"), 1U);
  EXPECT_EQ(registry.save(model, "knn"), 2U);
  EXPECT_EQ(registry.save(model, "other"), 1U);
  EXPECT_EQ(registry.latest_version("knn"), 2U);
  EXPECT_EQ(registry.versions("knn").size(), 2U);
}

TEST_F(RegistryTest, LoadLatestAndSpecificVersion) {
  ModelRegistry registry(dir_);
  registry.save(trained_knn(), "knn");
  registry.save(trained_knn(), "knn");
  const auto latest = registry.load(ModelKind::kKnn, "knn");
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->is_trained());
  const auto v1 = registry.load(ModelKind::kKnn, "knn", 1);
  ASSERT_TRUE(v1.has_value());
  EXPECT_FALSE(registry.load(ModelKind::kKnn, "knn", 99).has_value());
  EXPECT_FALSE(registry.load(ModelKind::kKnn, "missing").has_value());
}

TEST_F(RegistryTest, PruneKeepsNewest) {
  ModelRegistry registry(dir_);
  for (int i = 0; i < 5; ++i) registry.save(trained_knn(), "knn");
  EXPECT_EQ(registry.prune("knn", 2), 3U);
  const auto versions = registry.versions("knn");
  ASSERT_EQ(versions.size(), 2U);
  EXPECT_EQ(versions[0], 4U);
  EXPECT_EQ(versions[1], 5U);
}

TEST_F(RegistryTest, CorruptFileIsRejectedNotCrashing) {
  ModelRegistry registry(dir_);
  registry.save(trained_knn(), "knn");
  // Overwrite the stored version with garbage.
  {
    std::ofstream out(registry.path_for("knn", 1), std::ios::binary | std::ios::trunc);
    out << "this is not a model file";
  }
  EXPECT_FALSE(registry.load(ModelKind::kKnn, "knn").has_value());
  // A subsequent save still picks the next version number.
  EXPECT_EQ(registry.save(trained_knn(), "knn"), 2U);
  EXPECT_TRUE(registry.load(ModelKind::kKnn, "knn", 2).has_value());
}

TEST_F(RegistryTest, ForeignFilesInRegistryDirAreIgnored) {
  ModelRegistry registry(dir_);
  {
    std::ofstream out(dir_ + "/README.txt");
    out << "not a model";
  }
  {
    std::ofstream out(dir_ + "/knn-vX.mcbm");  // malformed version
    out << "junk";
  }
  EXPECT_TRUE(registry.versions("knn").empty());
  EXPECT_FALSE(registry.latest_version("knn").has_value());
}

TEST_F(RegistryTest, FailedFlushReturnsNoVersionAndNoFile) {
  // A model this small sits in the stream buffer until the file
  // closes, so the failing write is the final flush.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ModelRegistry registry(dir_);
  const std::string path = registry.path_for("knn", 1);
  fs::create_symlink("/dev/full", path);
  EXPECT_EQ(registry.save(trained_knn(), "knn"), std::nullopt);
  EXPECT_FALSE(fs::is_symlink(fs::symlink_status(path)));
  EXPECT_FALSE(registry.latest_version("knn").has_value());
}

TEST_F(RegistryTest, LoadRejectsWrongKind) {
  ModelRegistry registry(dir_);
  registry.save(trained_knn(), "knn");
  EXPECT_FALSE(registry.load(ModelKind::kRandomForest, "knn").has_value());
}

// ----------------------------------------------------------------- config

TEST(Config, DefaultsRoundTripThroughJson) {
  const FrameworkConfig original;
  std::string error;
  const auto parsed = FrameworkConfig::from_json(original.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->alpha_days, original.alpha_days);
  EXPECT_EQ(parsed->beta_days, original.beta_days);
  EXPECT_EQ(parsed->model, original.model);
  EXPECT_EQ(parsed->features, original.features);
  EXPECT_EQ(parsed->encoder.dim, original.encoder.dim);
  EXPECT_DOUBLE_EQ(parsed->machine.peak_gflops, original.machine.peak_gflops);
}

TEST(Config, RejectsUnknownKeys) {
  std::string error;
  const auto json = Json::parse(R"({"alpha_dayz": 15})");
  EXPECT_FALSE(FrameworkConfig::from_json(*json, &error).has_value());
  EXPECT_NE(error.find("alpha_dayz"), std::string::npos);
}

TEST(Config, RejectsInvalidValues) {
  std::string error;
  EXPECT_FALSE(
      FrameworkConfig::from_json(*Json::parse(R"({"alpha_days": 0})"), &error).has_value());
  EXPECT_FALSE(
      FrameworkConfig::from_json(*Json::parse(R"({"model": {"kind": "svm"}})"), &error)
          .has_value());
  EXPECT_FALSE(
      FrameworkConfig::from_json(*Json::parse(R"({"features": ["bogus"]})"), &error)
          .has_value());
  EXPECT_FALSE(FrameworkConfig::from_json(
                   *Json::parse(R"({"machine": {"peak_gflops": -1}})"), &error)
                   .has_value());
}

TEST(Config, ParsesPartialOverrides) {
  // The retired knn_index_* keys still load, and change nothing.
  const auto json = Json::parse(
      R"({"model": {"kind": "knn", "knn_k": 7, "knn_index_mode": "none",
                    "knn_index_min_rows": 64, "knn_index_leaf_size": 0},
          "alpha_days": 30, "theta": {"mode": "random", "theta": 100}})");
  const auto config = FrameworkConfig::from_json(*json);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->model, ModelKind::kKnn);
  EXPECT_EQ(config->knn.k, 7U);
  EXPECT_EQ(config->knn.index.mode, KnnIndexMode::kBoundTree);
  EXPECT_EQ(config->knn.index.leaf_size, KnnIndexConfig{}.leaf_size);
  EXPECT_EQ(config->alpha_days, 30);
  EXPECT_EQ(config->theta.mode, ThetaConfig::Sampling::kRandom);
  EXPECT_EQ(config->theta.theta, 100U);
}

TEST(Config, FileRoundTrip) {
  const std::string path = (fs::temp_directory_path() / "mcb_config_test.json").string();
  FrameworkConfig config;
  config.alpha_days = 30;
  config.model = ModelKind::kKnn;
  ASSERT_TRUE(config.save_file(path));
  std::string error;
  const auto loaded = FrameworkConfig::load_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->alpha_days, 30);
  EXPECT_EQ(loaded->model, ModelKind::kKnn);
  fs::remove(path);
}

TEST(Config, ParseJobFeatureNames) {
  EXPECT_EQ(*parse_job_feature("user_name"), JobFeature::kUserName);
  EXPECT_EQ(*parse_job_feature("frequency"), JobFeature::kFrequency);
  EXPECT_FALSE(parse_job_feature("gpu_count").has_value());
}

// -------------------------------------------------------------- framework

TEST(Framework, TrainPredictAndRegistryLifecycle) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_framework_test").string();
  fs::remove_all(registry_dir);

  const TimePoint base = timepoint_from_ymd(2024, 1, 10);
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const bool compute = i % 2 == 1;
    JobRecord job = executed(i, compute ? "dgemm_app" : "stream_app", compute,
                             base + static_cast<TimePoint>(i) * 3600);
    job.user_name = compute ? "u2" : "u1";
    jobs.push_back(std::move(job));
  }
  JobStore store;
  store.insert_all(std::move(jobs));

  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  config.alpha_days = 30;
  Framework framework(config, store);
  EXPECT_FALSE(framework.has_model());
  EXPECT_FALSE(framework.predict_job(submission(1, "u1", "stream_app")).has_value());

  const auto report = framework.train_now(base + 100 * 3600);
  EXPECT_GT(report.jobs_used, 0U);
  EXPECT_TRUE(framework.has_model());
  EXPECT_EQ(framework.model_version(), 1U);

  const auto label = framework.predict_job(submission(1000, "u1", "stream_app"));
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(*label, Boundedness::kMemoryBound);
  const auto label2 = framework.predict_job(submission(1001, "u2", "dgemm_app"));
  ASSERT_TRUE(label2.has_value());
  EXPECT_EQ(*label2, Boundedness::kComputeBound);

  // A fresh framework can warm-start from the registry.
  Framework warm(config, store);
  EXPECT_FALSE(warm.has_model());
  EXPECT_TRUE(warm.load_latest_model());
  EXPECT_TRUE(warm.has_model());
  const auto warm_label = warm.predict_job(submission(2000, "u2", "dgemm_app"));
  ASSERT_TRUE(warm_label.has_value());
  EXPECT_EQ(*warm_label, Boundedness::kComputeBound);

  // Characterization is available without a model.
  EXPECT_EQ(*framework.characterize_job(executed(5000, "x", true, base + 1'000'000)),
            Boundedness::kComputeBound);

  fs::remove_all(registry_dir);
}

TEST(Framework, WarmRestartLoadsNewestVersionWithConfiguredModel) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_framework_warm").string();
  fs::remove_all(registry_dir);

  // 700 jobs: enough rows that the default KNN config would build the
  // spatial index, which this deployment switches off.
  const TimePoint base = timepoint_from_ymd(2024, 1, 10);
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 700; ++i) {
    const bool compute = i % 7 < 3;
    JobRecord job =
        executed(i, numbered("app_", i % 7), compute, base + static_cast<TimePoint>(i) * 3000);
    job.user_name = numbered("u", i % 5);
    jobs.push_back(std::move(job));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  config.alpha_days = 60;
  config.knn.index.mode = KnnIndexMode::kNone;
  Framework trainer(config, store);
  EXPECT_EQ(trainer.train_now(base + 600 * 3000).version, 1U);
  EXPECT_EQ(trainer.train_now(base + 701 * 3000).version, 2U);

  Framework warm(config, store);
  ASSERT_TRUE(warm.load_latest_model());
  EXPECT_EQ(warm.model_version(), 2U);
  const KnnIndexStats* stats = warm.model()->knn_index_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->mode, KnnIndexMode::kNone);  // scan, as configured
  std::vector<JobRecord> queries;
  for (std::uint64_t i = 0; i < 21; ++i) {
    queries.push_back(submission(5000 + i, numbered("u", i % 5), numbered("app_", i % 7)));
  }
  const std::vector<Label> expected = trainer.predict_batch(queries);
  ASSERT_EQ(expected.size(), queries.size());
  EXPECT_EQ(warm.predict_batch(queries), expected);

  // An empty registry publishes nothing.
  FrameworkConfig empty_config = config;
  empty_config.registry_dir = registry_dir + "-empty";
  Framework empty(empty_config, store);
  EXPECT_FALSE(empty.load_latest_model());
  EXPECT_FALSE(empty.has_model());

  fs::remove_all(registry_dir);
  fs::remove_all(empty_config.registry_dir);
}

TEST(Framework, FailedSaveKeepsThePreviousModelServing) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_framework_save_fail").string();
  fs::remove_all(registry_dir);
  const TimePoint base = timepoint_from_ymd(2024, 1, 10);
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    jobs.push_back(executed(i, "stream_app", false, base + static_cast<TimePoint>(i) * 3600));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  Framework framework(config, store);
  ASSERT_EQ(framework.train_now(base + 40 * 3600).version, 1U);
  const auto first = framework.snapshot();

  // A directory where version 2's file would go makes the next save fail.
  fs::create_directories(ModelRegistry(registry_dir).path_for("knn", 2));
  const TrainingReport report = framework.train_now(base + 40 * 3600);
  EXPECT_GT(report.jobs_used, 0U);
  EXPECT_FALSE(report.version.has_value());
  EXPECT_EQ(framework.model_version(), 1U);
  EXPECT_EQ(framework.snapshot(), first);
  fs::remove_all(registry_dir);
}

TEST(Framework, PredictRangeUsesSubmitTimes) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_framework_range").string();
  fs::remove_all(registry_dir);

  const TimePoint base = timepoint_from_ymd(2024, 1, 10);
  std::vector<JobRecord> jobs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    jobs.push_back(executed(i, "stream_app", false, base + static_cast<TimePoint>(i) * 3600));
  }
  JobStore store;
  store.insert_all(std::move(jobs));
  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  Framework framework(config, store);
  framework.train_now(base + 40 * 3600);
  const auto report = framework.predict_range(base - 2000, base + 40 * 3600);
  EXPECT_EQ(report.size(), 40U);
  fs::remove_all(registry_dir);
}

TEST(Framework, TrainingCountsOnlyItsOwnCacheLookups) {
  const std::string registry_dir =
      (fs::temp_directory_path() / "mcb_framework_shared_cache").string();
  fs::remove_all(registry_dir);
  const WorkloadConfig workload = scaled_workload_config(40, 3);
  JobStore store;
  store.insert_all(WorkloadGenerator(workload).generate());
  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = ModelKind::kKnn;
  Framework framework(config, store);
  const TimePoint t0 = workload.start_time + 45 * kSecondsPerDay;
  const TimePoint t1 = t0 + 5 * kSecondsPerDay;
  ASSERT_TRUE(framework.train_now(t0).version.has_value());

  // Held out: submitted after the second training window closes.
  JobQuery q;
  q.field = JobQuery::TimeField::kSubmitTime;
  q.start_time = t1;
  q.end_time = t1 + 2 * kSecondsPerDay;
  std::vector<JobRecord> held_out;
  for (const JobRecord* job : store.query(q)) held_out.push_back(*job);
  ASSERT_FALSE(held_out.empty());

  // Two serving threads use the framework's cache throughout the retrain.
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      do {
        EXPECT_EQ(framework.predict_batch(held_out).size(), held_out.size());
        if (started.load() < 2) started.fetch_add(1);
      } while (!stop.load());
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  const TrainingReport report = framework.train_now(t1);
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(report.version.has_value());
  EXPECT_EQ(report.cache_hits + report.cache_misses, report.jobs_used);

  // The published model labels like one fitted on uncached rows of the window.
  const StoreDataFetcher fetcher(store);
  const TrainingWorkflow uncached(fetcher, framework.characterizer(), framework.encoder());
  ClassificationModel reference(config.model, config.knn, config.forest);
  const TimePoint window_start = t1 - static_cast<TimePoint>(config.alpha_days) * kSecondsPerDay;
  EXPECT_EQ(uncached.run(reference, window_start, t1, config.theta).jobs_used, report.jobs_used);
  const FeatureMatrix x = framework.encoder().encode_batch(held_out);
  EXPECT_EQ(framework.predict_batch(held_out), reference.inference(x.view()));
  fs::remove_all(registry_dir);
}

/// Trains a `kind` framework on a synthetic trace, then checks that
/// predict_batch, which classifies one row per distinct feature string,
/// labels each batch exactly as per-row inference over encode_batch.
void expect_batches_label_as_per_row_inference(ModelKind kind, ThreadPool* pool) {
  const std::string registry_dir =
      (fs::temp_directory_path() / ("mcb_framework_distinct_" + std::string(model_kind_name(kind))))
          .string();
  fs::remove_all(registry_dir);
  const WorkloadConfig workload = scaled_workload_config(60, 5);
  JobStore store;
  store.insert_all(WorkloadGenerator(workload).generate());
  FrameworkConfig config;
  config.registry_dir = registry_dir;
  config.model = kind;
  config.forest.n_trees = 20;
  config.forest.tree.max_features = 48;  // as `mcbound serve` configures RF
  Framework framework(config, store, pool);
  const TimePoint t = workload.start_time + 40 * kSecondsPerDay;
  ASSERT_TRUE(framework.train_now(t).version.has_value());
  const auto snapshot = framework.snapshot();

  // Submissions after the window, in trace order: recurring texts.
  JobQuery q;
  q.field = JobQuery::TimeField::kSubmitTime;
  q.start_time = t;
  q.end_time = t + 10 * kSecondsPerDay;
  std::vector<JobRecord> repeated;
  for (const JobRecord* job : store.query(q)) repeated.push_back(*job);
  std::vector<JobRecord> all_distinct;
  std::set<std::string> seen;
  for (const JobRecord& job : repeated) {
    if (seen.insert(framework.encoder().feature_string(job)).second) all_distinct.push_back(job);
  }
  ASSERT_LT(all_distinct.size(), repeated.size());
  ASSERT_GE(all_distinct.size(), 4U);
  // Different texts, all job_id 0.
  std::vector<JobRecord> anonymous = all_distinct;
  for (JobRecord& job : anonymous) job.job_id = 0;
  // One text under eight new ids, interleaved with another under four.
  std::vector<JobRecord> one_text_many_ids;
  for (std::uint64_t i = 0; i < 12; ++i) {
    JobRecord job = all_distinct[i % 3 == 2 ? 1 : 0];
    job.job_id = 90'000 + i;
    one_text_many_ids.push_back(std::move(job));
  }
  const std::vector<JobRecord> one_job{repeated.back()};

  const std::pair<const char*, const std::vector<JobRecord>*> batches[] = {
      {"repeated strings", &repeated},
      {"job_id 0, different texts", &anonymous},
      {"one text, several ids", &one_text_many_ids},
      {"all distinct", &all_distinct},
      {"one job", &one_job},
  };
  for (const auto& [what, jobs] : batches) {
    const FeatureMatrix x = framework.encoder().encode_batch(*jobs, pool);
    const std::vector<Label> expected = snapshot->model.inference(x.view());
    // Through the framework's cache (warmed by training), then through a
    // cold one.
    EXPECT_EQ(framework.predict_batch(*snapshot, *jobs), expected) << what;
    ShardedEmbeddingCache cold(framework.encoder().dim());
    EXPECT_EQ(framework.predict_batch(*snapshot, *jobs, &cold), expected) << what;
  }
  // The labels differ from job to job, so a job given another's row or
  // label would show.
  const FeatureMatrix x = framework.encoder().encode_batch(repeated);
  const std::vector<Label> labels = snapshot->model.inference(x.view());
  EXPECT_NE(std::count(labels.begin(), labels.end(), kLabelMemoryBound), 0);
  EXPECT_NE(std::count(labels.begin(), labels.end(), kLabelComputeBound), 0);
  fs::remove_all(registry_dir);
}

TEST(DistinctBatching, KnnLabelsEqualPerRowInference) {
  expect_batches_label_as_per_row_inference(ModelKind::kKnn, nullptr);
}

TEST(DistinctBatching, RfLabelsEqualPerRowInference) {
  ThreadPool pool(2);
  expect_batches_label_as_per_row_inference(ModelKind::kRandomForest, &pool);
}

}  // namespace
}  // namespace mcb
