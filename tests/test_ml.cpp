// Tests for the ml module: metrics, feature binning, decision trees,
// random forests, KNN, the lookup baseline and model serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>

#include "ml/baseline.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/knn_regressor.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcb {
namespace {

/// Gaussian two-blob dataset: class 0 around -1, class 1 around +1 in the
/// first `informative` dims; the rest is noise.
struct Blobs {
  FeatureMatrix x;
  std::vector<Label> y;
};

Blobs make_blobs(std::size_t n, std::size_t dims, std::size_t informative, double spread,
                 std::uint64_t seed) {
  Rng rng(seed);
  Blobs blobs{FeatureMatrix(n, dims), std::vector<Label>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const Label label = static_cast<Label>(rng.bounded(2));
    blobs.y[i] = label;
    const double center = label == 0 ? -1.0 : 1.0;
    float* row = blobs.x.row(i);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(d < informative ? rng.normal(center, spread)
                                                  : rng.normal(0.0, 1.0));
    }
  }
  return blobs;
}

double accuracy(std::span<const Label> truth, std::span<const Label> pred) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) correct += truth[i] == pred[i];
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

// -------------------------------------------------------------- metrics

TEST(ConfusionMatrix, HandComputedBinaryMetrics) {
  ConfusionMatrix cm(2);
  // truth 0: 8 correct, 2 predicted as 1. truth 1: 3 correct, 1 as 0.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 3; ++i) cm.add(1, 1);
  cm.add(1, 0);
  EXPECT_EQ(cm.total(), 14U);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 11.0 / 14.0);
  EXPECT_DOUBLE_EQ(cm.precision(0), 8.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.recall(0), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 3.0 / 4.0);
  const double f1_0 = 2.0 * (8.0 / 9.0) * 0.8 / (8.0 / 9.0 + 0.8);
  const double f1_1 = 2.0 * 0.6 * 0.75 / (0.6 + 0.75);
  EXPECT_NEAR(cm.f1(0), f1_0, 1e-12);
  EXPECT_NEAR(cm.f1(1), f1_1, 1e-12);
  EXPECT_NEAR(cm.f1_macro(), (f1_0 + f1_1) / 2.0, 1e-12);
}

TEST(ConfusionMatrix, PerfectPrediction) {
  ConfusionMatrix cm(2);
  for (int i = 0; i < 5; ++i) cm.add(i % 2, i % 2);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.f1_macro(), 1.0);
}

TEST(ConfusionMatrix, UndefinedClassesScoreZero) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);  // class 1 never appears
  EXPECT_DOUBLE_EQ(cm.precision(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1_macro(), 0.5);  // (1 + 0) / 2
}

TEST(ConfusionMatrix, IgnoresOutOfRangeLabels) {
  ConfusionMatrix cm(2);
  cm.add(-1, 0);
  cm.add(0, 5);
  EXPECT_EQ(cm.total(), 0U);
}

TEST(ConfusionMatrix, MergeAccumulates) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(1, 0);
  a.merge(b);
  EXPECT_EQ(a.total(), 2U);
  EXPECT_EQ(a.count(1, 0), 1U);
}

TEST(ConfusionMatrix, AddAllAndSupport) {
  ConfusionMatrix cm(2);
  const std::vector<Label> truth{0, 0, 1, 1, 1};
  const std::vector<Label> pred{0, 1, 1, 1, 0};
  cm.add_all(truth, pred);
  EXPECT_EQ(cm.support(0), 2U);
  EXPECT_EQ(cm.support(1), 3U);
}

TEST(ConfusionMatrix, RenderContainsClassNames) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  const std::string out = cm.render({"memory-bound", "compute-bound"});
  EXPECT_NE(out.find("memory-bound"), std::string::npos);
  EXPECT_NE(out.find("f1_macro"), std::string::npos);
}

// --------------------------------------------------------------- binner

TEST(FeatureBinner, DistinctValuesGetDistinctBins) {
  FeatureMatrix x(4, 1);
  x.row(0)[0] = 1.0F;
  x.row(1)[0] = 2.0F;
  x.row(2)[0] = 3.0F;
  x.row(3)[0] = 4.0F;
  FeatureBinner binner;
  binner.fit(x.view());
  EXPECT_EQ(binner.n_bins(0), 4U);
  EXPECT_LT(binner.bin_value(0, 1.0F), binner.bin_value(0, 2.0F));
  EXPECT_LT(binner.bin_value(0, 3.0F), binner.bin_value(0, 4.0F));
}

TEST(FeatureBinner, ConstantFeatureHasSingleBin) {
  FeatureMatrix x(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    x.row(i)[0] = 7.0F;
    x.row(i)[1] = static_cast<float>(i);
  }
  FeatureBinner binner;
  binner.fit(x.view());
  EXPECT_EQ(binner.n_bins(0), 1U);
  EXPECT_EQ(binner.n_bins(1), 5U);
}

TEST(FeatureBinner, AllColumnsIndependent) {
  // Regression test: a shrunken scratch buffer from one column must not
  // leak into the next (this was a real bug — binning collapsed all
  // columns after the first to one bin).
  Rng rng(5);
  FeatureMatrix x(300, 8);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t d = 0; d < 8; ++d) x.row(i)[d] = static_cast<float>(rng.uniform());
  }
  FeatureBinner binner;
  binner.fit(x.view());
  for (std::size_t d = 0; d < 8; ++d) EXPECT_GT(binner.n_bins(d), 100U) << "col " << d;
}

TEST(FeatureBinner, RespectsMaxBins) {
  Rng rng(5);
  FeatureMatrix x(5000, 1);
  for (std::size_t i = 0; i < 5000; ++i) x.row(i)[0] = static_cast<float>(rng.uniform());
  FeatureBinner binner;
  binner.fit(x.view(), 32);
  EXPECT_LE(binner.n_bins(0), 32U);
  EXPECT_GT(binner.n_bins(0), 16U);
}

TEST(FeatureBinner, TransformColumnMajorLayout) {
  FeatureMatrix x(3, 2);
  x.row(0)[0] = 1.0F; x.row(0)[1] = 10.0F;
  x.row(1)[0] = 2.0F; x.row(1)[1] = 20.0F;
  x.row(2)[0] = 3.0F; x.row(2)[1] = 30.0F;
  FeatureBinner binner;
  binner.fit(x.view());
  const auto codes = binner.transform_column_major(x.view());
  ASSERT_EQ(codes.size(), 6U);
  // Column 0 occupies the first 3 entries.
  EXPECT_EQ(codes[0], binner.bin_value(0, 1.0F));
  EXPECT_EQ(codes[3], binner.bin_value(1, 10.0F));
}

TEST(FeatureBinner, SaveLoadRoundTrip) {
  Rng rng(9);
  FeatureMatrix x(200, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t d = 0; d < 3; ++d) x.row(i)[d] = static_cast<float>(rng.normal());
  }
  FeatureBinner binner;
  binner.fit(x.view());
  std::stringstream stream;
  binner.save(stream);
  FeatureBinner loaded;
  ASSERT_TRUE(loaded.load(stream));
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(loaded.n_bins(d), binner.n_bins(d));
    EXPECT_EQ(loaded.bin_value(d, 0.123F), binner.bin_value(d, 0.123F));
  }
}

// ----------------------------------------------------------------- tree

TEST(DecisionTree, LearnsAxisAlignedRule) {
  const Blobs blobs = make_blobs(500, 5, 1, 0.3, 42);
  FeatureBinner binner;
  binner.fit(blobs.x.view());
  const auto codes = binner.transform_column_major(blobs.x.view());
  std::vector<std::uint32_t> rows(500);
  std::iota(rows.begin(), rows.end(), 0U);

  DecisionTree tree;
  Rng rng(1);
  tree.fit(codes.data(), 500, rows, blobs.y, 5, 2, TreeConfig{}, rng);
  EXPECT_TRUE(tree.is_fitted());
  EXPECT_GE(tree.depth(), 1U);

  // Predict on the training data (binned row-major).
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    std::uint8_t row_codes[5];
    for (std::size_t d = 0; d < 5; ++d) {
      row_codes[d] = binner.bin_value(d, blobs.x.view().row(i)[d]);
    }
    correct += tree.predict_binned(row_codes) == blobs.y[i];
  }
  EXPECT_GT(static_cast<double>(correct) / 500.0, 0.95);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  FeatureMatrix x(10, 2);
  std::vector<Label> y(10, 1);  // all one class
  Rng data_rng(3);
  for (std::size_t i = 0; i < 10; ++i) {
    x.row(i)[0] = static_cast<float>(data_rng.uniform());
    x.row(i)[1] = static_cast<float>(data_rng.uniform());
  }
  FeatureBinner binner;
  binner.fit(x.view());
  const auto codes = binner.transform_column_major(x.view());
  std::vector<std::uint32_t> rows(10);
  std::iota(rows.begin(), rows.end(), 0U);
  DecisionTree tree;
  Rng rng(1);
  tree.fit(codes.data(), 10, rows, y, 2, 2, TreeConfig{}, rng);
  EXPECT_EQ(tree.node_count(), 1U);
  EXPECT_EQ(tree.leaf_count(), 1U);
  EXPECT_EQ(tree.depth(), 0U);
}

TEST(DecisionTree, MaxDepthIsRespected) {
  const Blobs blobs = make_blobs(1000, 4, 2, 1.5, 7);
  FeatureBinner binner;
  binner.fit(blobs.x.view());
  const auto codes = binner.transform_column_major(blobs.x.view());
  std::vector<std::uint32_t> rows(1000);
  std::iota(rows.begin(), rows.end(), 0U);
  TreeConfig config;
  config.max_depth = 3;
  DecisionTree tree;
  Rng rng(1);
  tree.fit(codes.data(), 1000, rows, blobs.y, 4, 2, config, rng);
  EXPECT_LE(tree.depth(), 3U);
}

TEST(DecisionTree, MinSamplesLeafIsRespected) {
  const Blobs blobs = make_blobs(200, 3, 1, 1.0, 11);
  FeatureBinner binner;
  binner.fit(blobs.x.view());
  const auto codes = binner.transform_column_major(blobs.x.view());
  std::vector<std::uint32_t> rows(200);
  std::iota(rows.begin(), rows.end(), 0U);
  TreeConfig config;
  config.min_samples_leaf = 150;  // forces the root to stay a leaf
  DecisionTree tree;
  Rng rng(1);
  tree.fit(codes.data(), 200, rows, blobs.y, 3, 2, config, rng);
  EXPECT_EQ(tree.leaf_count(), 1U);
}

TEST(DecisionTree, EmptyRowsThrows) {
  DecisionTree tree;
  Rng rng(1);
  const std::uint8_t codes = 0;
  std::vector<Label> labels;
  EXPECT_THROW(tree.fit(&codes, 0, {}, labels, 1, 2, TreeConfig{}, rng),
               std::invalid_argument);
}

TEST(DecisionTree, SaveLoadPredictsIdentically) {
  const Blobs blobs = make_blobs(300, 4, 2, 0.5, 21);
  FeatureBinner binner;
  binner.fit(blobs.x.view());
  const auto codes = binner.transform_column_major(blobs.x.view());
  std::vector<std::uint32_t> rows(300);
  std::iota(rows.begin(), rows.end(), 0U);
  DecisionTree tree;
  Rng rng(2);
  tree.fit(codes.data(), 300, rows, blobs.y, 4, 2, TreeConfig{}, rng);

  std::stringstream stream;
  tree.save(stream);
  DecisionTree loaded;
  ASSERT_TRUE(loaded.load(stream, 4));
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < 300; ++i) {
    std::uint8_t row_codes[4];
    for (std::size_t d = 0; d < 4; ++d) {
      row_codes[d] = binner.bin_value(d, blobs.x.view().row(i)[d]);
    }
    EXPECT_EQ(loaded.predict_binned(row_codes), tree.predict_binned(row_codes));
  }
}

// ------------------------------------------------------------------ KNN

TEST(Knn, ExactNeighborRecovery) {
  // k = 1 on well-separated points returns the identical training row.
  FeatureMatrix x(4, 2);
  x.row(0)[0] = 0.0F; x.row(0)[1] = 0.0F;
  x.row(1)[0] = 10.0F; x.row(1)[1] = 0.0F;
  x.row(2)[0] = 0.0F; x.row(2)[1] = 10.0F;
  x.row(3)[0] = 10.0F; x.row(3)[1] = 10.0F;
  const std::vector<Label> y{0, 1, 0, 1};
  KnnConfig config;
  config.k = 1;
  KnnClassifier knn(config);
  knn.fit(x.view(), y);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto neighbors = knn.kneighbors(x.view().row(i));
    ASSERT_EQ(neighbors.size(), 1U);
    EXPECT_EQ(neighbors[0], i);
  }
}

TEST(Knn, MajorityVote) {
  // 3 nearby class-1 points vs 2 slightly closer class-0 points, k = 5.
  FeatureMatrix x(5, 1);
  x.row(0)[0] = 0.9F;  // class 0
  x.row(1)[0] = 1.1F;  // class 0
  x.row(2)[0] = 1.5F;  // class 1
  x.row(3)[0] = 1.6F;  // class 1
  x.row(4)[0] = 1.7F;  // class 1
  const std::vector<Label> y{0, 0, 1, 1, 1};
  KnnClassifier knn;  // k = 5
  knn.fit(x.view(), y);
  FeatureMatrix query(1, 1);
  query.row(0)[0] = 1.0F;
  EXPECT_EQ(knn.predict(query.view())[0], 1);  // 3 votes beat 2
}

TEST(Knn, TieBreaksTowardLowerClass) {
  FeatureMatrix x(4, 1);
  for (int i = 0; i < 4; ++i) x.row(i)[0] = static_cast<float>(i);
  const std::vector<Label> y{0, 1, 0, 1};
  KnnConfig config;
  config.k = 4;
  KnnClassifier knn(config);
  knn.fit(x.view(), y);
  FeatureMatrix query(1, 1);
  query.row(0)[0] = 1.5F;
  EXPECT_EQ(knn.predict(query.view())[0], 0);
}

TEST(Knn, KLargerThanTrainingSet) {
  FeatureMatrix x(2, 1);
  x.row(0)[0] = 0.0F;
  x.row(1)[0] = 1.0F;
  KnnConfig config;
  config.k = 10;
  KnnClassifier knn(config);
  knn.fit(x.view(), {std::vector<Label>{1, 1}});
  FeatureMatrix query(1, 1);
  query.row(0)[0] = 0.5F;
  EXPECT_EQ(knn.predict(query.view())[0], 1);
}

TEST(Knn, MinkowskiP1MatchesManhattanRanking) {
  // Point A at (0, 3), B at (2, 2): from origin, L2 ranks A closer
  // (9 < 8? no: A=9, B=8 -> B closer); L1 ranks A (3) closer than B (4).
  FeatureMatrix x(2, 2);
  x.row(0)[0] = 0.0F; x.row(0)[1] = 3.0F;  // A, class 0
  x.row(1)[0] = 2.0F; x.row(1)[1] = 2.0F;  // B, class 1
  const std::vector<Label> y{0, 1};
  FeatureMatrix query(1, 2);  // origin

  KnnConfig l2;
  l2.k = 1;
  KnnClassifier knn_l2(l2);
  knn_l2.fit(x.view(), y);
  EXPECT_EQ(knn_l2.predict(query.view())[0], 1);

  KnnConfig l1;
  l1.k = 1;
  l1.minkowski_p = 1.0;
  KnnClassifier knn_l1(l1);
  knn_l1.fit(x.view(), y);
  EXPECT_EQ(knn_l1.predict(query.view())[0], 0);
}

TEST(Knn, BlobsGeneralization) {
  const Blobs train = make_blobs(400, 8, 3, 0.5, 31);
  const Blobs test = make_blobs(100, 8, 3, 0.5, 32);
  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  const auto pred = knn.predict(test.x.view());
  EXPECT_GT(accuracy(test.y, pred), 0.9);
}

TEST(Knn, PredictBeforeFitThrows) {
  KnnClassifier knn;
  FeatureMatrix x(1, 1);
  EXPECT_THROW(knn.predict(x.view()), std::logic_error);
}

TEST(Knn, DimensionMismatchThrows) {
  KnnClassifier knn;
  FeatureMatrix x(2, 3);
  knn.fit(x.view(), {std::vector<Label>{0, 1}});
  FeatureMatrix bad(1, 2);
  EXPECT_THROW(knn.predict(bad.view()), std::invalid_argument);
  EXPECT_THROW(knn.kneighbors(bad.view().row(0)), std::invalid_argument);
  EXPECT_THROW(knn.kneighbors_scalar(bad.view().row(0)), std::invalid_argument);
}

TEST(Knn, ParallelPredictionMatchesSerial) {
  const Blobs train = make_blobs(200, 6, 2, 0.8, 41);
  const Blobs test = make_blobs(64, 6, 2, 0.8, 43);
  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  ThreadPool pool(4);
  EXPECT_EQ(knn.predict(test.x.view(), &pool), knn.predict(test.x.view(), nullptr));
}

TEST(Knn, SaveLoadRoundTrip) {
  const Blobs train = make_blobs(150, 4, 2, 0.5, 51);
  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  std::stringstream stream;
  ASSERT_TRUE(knn.save(stream));
  KnnClassifier loaded;
  ASSERT_TRUE(loaded.load(stream));
  EXPECT_EQ(loaded.train_size(), knn.train_size());
  EXPECT_EQ(loaded.n_classes(), knn.n_classes());
  const Blobs test = make_blobs(40, 4, 2, 0.5, 52);
  EXPECT_EQ(loaded.predict(test.x.view()), knn.predict(test.x.view()));
}

TEST(Knn, SaveStoresEachDistinctRowOnce) {
  // 1,000 rows over 10 distinct points: a file carries the 10 points and
  // a 4-byte id per row, not 1,000 rows of floats, and reloads to the
  // same predictions.
  constexpr std::size_t kRows = 1000, kDims = 32, kDistinct = 10;
  const Blobs pool = make_blobs(kDistinct, kDims, 4, 0.5, 61);
  FeatureMatrix x(kRows, kDims);
  std::vector<Label> y(kRows);
  std::vector<double> targets(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t pick = (i * 7) % kDistinct;
    std::copy_n(pool.x.row(pick).data(), kDims, x.row(i));
    y[i] = pool.y[pick];
    targets[i] = static_cast<double>(pick);
  }
  const std::size_t all_rows_bytes = kRows * kDims * sizeof(float);
  const Blobs queries = make_blobs(50, kDims, 4, 0.5, 62);

  KnnClassifier knn;
  knn.fit(x.view(), y);
  std::stringstream knn_file;
  ASSERT_TRUE(knn.save(knn_file));
  EXPECT_LT(knn_file.str().size(), all_rows_bytes / 5);
  KnnClassifier knn_loaded;
  ASSERT_TRUE(knn_loaded.load(knn_file));
  EXPECT_EQ(knn_loaded.index().stats().unique_rows, kDistinct);
  EXPECT_EQ(knn_loaded.predict(queries.x.view()), knn.predict(queries.x.view()));

  KnnRegressor reg;
  reg.fit(x.view(), targets);
  std::stringstream reg_file;
  ASSERT_TRUE(reg.save(reg_file));
  EXPECT_LT(reg_file.str().size(), all_rows_bytes / 5);
  KnnRegressor reg_loaded;
  ASSERT_TRUE(reg_loaded.load(reg_file));
  EXPECT_EQ(reg_loaded.index().stats().unique_rows, kDistinct);
  EXPECT_EQ(reg_loaded.predict(queries.x.view()), reg.predict(queries.x.view()));
}

TEST(Knn, LoadRejectsGarbage) {
  std::stringstream stream("not a model");
  KnnClassifier knn;
  EXPECT_FALSE(knn.load(stream));
}

// ------------------------------------------------------------ forest

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Blobs train = make_blobs(800, 12, 3, 1.2, 61);
  const Blobs test = make_blobs(400, 12, 3, 1.2, 62);

  RandomForestConfig single_config;
  single_config.n_trees = 1;
  RandomForestClassifier single(single_config);
  single.fit(train.x.view(), train.y);

  RandomForestConfig forest_config;
  forest_config.n_trees = 60;
  RandomForestClassifier forest(forest_config);
  forest.fit(train.x.view(), train.y);

  const double single_acc = accuracy(test.y, single.predict(test.x.view()));
  const double forest_acc = accuracy(test.y, forest.predict(test.x.view()));
  EXPECT_GE(forest_acc, single_acc);
  EXPECT_GT(forest_acc, 0.8);
}

TEST(RandomForest, DeterministicForSeed) {
  const Blobs train = make_blobs(300, 6, 2, 0.8, 71);
  const Blobs test = make_blobs(50, 6, 2, 0.8, 72);
  RandomForestConfig config;
  config.n_trees = 20;
  config.seed = 99;
  RandomForestClassifier a(config), b(config);
  a.fit(train.x.view(), train.y);
  b.fit(train.x.view(), train.y);
  EXPECT_EQ(a.predict(test.x.view()), b.predict(test.x.view()));
}

TEST(RandomForest, DifferentSeedsDifferentForests) {
  const Blobs train = make_blobs(300, 6, 2, 1.5, 73);
  RandomForestConfig a_config, b_config;
  a_config.n_trees = b_config.n_trees = 5;
  a_config.seed = 1;
  b_config.seed = 2;
  RandomForestClassifier a(a_config), b(b_config);
  a.fit(train.x.view(), train.y);
  b.fit(train.x.view(), train.y);
  // Probabilities should differ on at least some test points.
  const Blobs test = make_blobs(50, 6, 2, 1.5, 74);
  EXPECT_NE(a.predict_proba(test.x.view()), b.predict_proba(test.x.view()));
}

TEST(RandomForest, ProbabilitiesSumToOne) {
  const Blobs train = make_blobs(200, 4, 2, 0.5, 81);
  RandomForestConfig config;
  config.n_trees = 10;
  RandomForestClassifier forest(config);
  forest.fit(train.x.view(), train.y);
  const auto probs = forest.predict_proba(train.x.view());
  for (std::size_t i = 0; i < train.x.rows(); ++i) {
    const double sum = probs[i * 2] + probs[i * 2 + 1];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, ParallelTrainingMatchesSerial) {
  const Blobs train = make_blobs(300, 6, 2, 0.8, 91);
  const Blobs test = make_blobs(60, 6, 2, 0.8, 92);
  RandomForestConfig config;
  config.n_trees = 12;
  RandomForestClassifier serial(config), parallel(config);
  serial.fit(train.x.view(), train.y);
  ThreadPool pool(4);
  parallel.set_training_pool(&pool);
  parallel.fit(train.x.view(), train.y);
  EXPECT_EQ(serial.predict(test.x.view()), parallel.predict(test.x.view()));
}

TEST(RandomForest, MulticlassSupport) {
  Rng rng(13);
  FeatureMatrix x(300, 2);
  std::vector<Label> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    const Label label = static_cast<Label>(rng.bounded(3));
    y[i] = label;
    x.row(i)[0] = static_cast<float>(rng.normal(label * 5.0, 0.5));
    x.row(i)[1] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  RandomForestConfig config;
  config.n_trees = 15;
  RandomForestClassifier forest(config);
  forest.fit(x.view(), y);
  EXPECT_EQ(forest.n_classes(), 3U);
  EXPECT_GT(accuracy(y, forest.predict(x.view())), 0.95);
}

TEST(RandomForest, SaveLoadRoundTrip) {
  const Blobs train = make_blobs(250, 5, 2, 0.7, 101);
  RandomForestConfig config;
  config.n_trees = 8;
  RandomForestClassifier forest(config);
  forest.fit(train.x.view(), train.y);
  std::stringstream stream;
  ASSERT_TRUE(forest.save(stream));
  RandomForestClassifier loaded;
  ASSERT_TRUE(loaded.load(stream));
  EXPECT_EQ(loaded.tree_count(), 8U);
  const Blobs test = make_blobs(60, 5, 2, 0.7, 102);
  EXPECT_EQ(loaded.predict(test.x.view()), forest.predict(test.x.view()));
}

TEST(RandomForest, LoadRejectsWrongKind) {
  const Blobs train = make_blobs(50, 3, 1, 0.5, 111);
  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  std::stringstream stream;
  knn.save(stream);
  RandomForestClassifier forest;
  EXPECT_FALSE(forest.load(stream));
}

TEST(ModelFiles, TruncatedStreamsFailCleanly) {
  // Failure injection: every strict prefix of a serialized model must be
  // rejected by load() without crashing or partially initializing.
  const Blobs train = make_blobs(80, 4, 2, 0.5, 121);
  RandomForestConfig config;
  config.n_trees = 3;
  RandomForestClassifier forest(config);
  forest.fit(train.x.view(), train.y);
  std::stringstream full;
  ASSERT_TRUE(forest.save(full));
  const std::string bytes = full.str();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream prefix(bytes.substr(0, cut));
    RandomForestClassifier loaded;
    EXPECT_FALSE(loaded.load(prefix)) << "cut at " << cut;
    EXPECT_FALSE(loaded.is_fitted()) << "cut at " << cut;
  }

  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  std::stringstream knn_full;
  ASSERT_TRUE(knn.save(knn_full));
  const std::string knn_bytes = knn_full.str();
  std::stringstream knn_cut(knn_bytes.substr(0, knn_bytes.size() / 2));
  KnnClassifier knn_loaded;
  EXPECT_FALSE(knn_loaded.load(knn_cut));
}

TEST(ModelFiles, UnfittedKnnRefusesToSave) {
  // Saving an unfitted model must fail up front, not write a header for
  // a model that load() would then reject (or worse, accept as empty).
  KnnClassifier knn;
  std::stringstream out;
  EXPECT_FALSE(knn.save(out));
  EXPECT_TRUE(out.str().empty());
}

TEST(ModelFiles, UnfittedRandomForestRefusesToSave) {
  RandomForestClassifier forest;
  std::stringstream out;
  EXPECT_FALSE(forest.save(out));
  EXPECT_TRUE(out.str().empty());
}

TEST(ModelFiles, BitFlippedMagicRejected) {
  const Blobs train = make_blobs(40, 3, 1, 0.5, 131);
  KnnClassifier knn;
  knn.fit(train.x.view(), train.y);
  std::stringstream out;
  knn.save(out);
  std::string bytes = out.str();
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);  // corrupt the magic
  std::stringstream in(bytes);
  KnnClassifier loaded;
  EXPECT_FALSE(loaded.load(in));
}

// ------------------------- hardened deserialization (crafted streams)
//
// These streams are built field by field with the same io primitives the
// models use, so they are byte-identical to what save() emits except for
// the one poisoned field under test. Every rejected stream must leave
// the model unfitted (no half-loaded state).

/// The neighbor store as KnnIndex::save writes it: dim, the distinct
/// points, then one point id per training row.
void write_store(std::ostream& out, std::uint64_t dim, const std::vector<float>& points,
                 const std::vector<std::uint32_t>& ids) {
  io::write_pod(out, dim);
  io::write_vec(out, points);
  io::write_vec(out, ids);
}

std::string craft_knn_classifier(std::uint64_t k, double p, std::uint64_t dim,
                                 std::uint64_t n_classes, const std::vector<float>& points,
                                 const std::vector<std::uint32_t>& ids,
                                 const std::vector<Label>& labels) {
  std::stringstream out;
  io::write_header(out, io::kKindKnn);
  io::write_pod(out, k);
  io::write_pod(out, p);
  io::write_pod(out, n_classes);
  write_store(out, dim, points, ids);
  io::write_vec(out, labels);
  return out.str();
}

std::string craft_knn_regressor(std::uint64_t k, std::uint8_t weighted, std::uint64_t dim,
                                const std::vector<float>& points,
                                const std::vector<std::uint32_t>& ids,
                                const std::vector<double>& targets) {
  std::stringstream out;
  io::write_header(out, io::kKindKnnRegressor);
  io::write_pod(out, k);
  io::write_pod(out, weighted);
  write_store(out, dim, points, ids);
  io::write_vec(out, targets);
  return out.str();
}

/// The two one-dimensional points 0 and 1, one row each.
const std::vector<float> kTwoPoints{0.0F, 1.0F};
const std::vector<std::uint32_t> kTwoIds{0, 1};

TEST(ModelHardening, CraftedClassifierStreamMatchesSaveFormat) {
  // Canary: if the crafting helper drifts from the real on-disk layout,
  // every rejection test below would pass vacuously. A fully valid
  // crafted stream must load and predict.
  const std::vector<float> points{0.0F, 0.0F, 1.0F, 1.0F};
  const std::vector<std::uint32_t> ids{0, 1};
  const std::vector<Label> labels{0, 1};
  std::stringstream in(craft_knn_classifier(1, 2.0, 2, 2, points, ids, labels));
  KnnClassifier knn;
  ASSERT_TRUE(knn.load(in));
  EXPECT_EQ(knn.train_size(), 2U);
  const std::vector<float> query{0.1F, -0.1F};
  FeatureView view{query.data(), 1, 2};
  EXPECT_EQ(knn.predict(view)[0], 0);
}

TEST(ModelHardening, ClassifierRejectsKZero) {
  // The ctor clamps k == 0 but load() bypasses the ctor; an accepted
  // k == 0 builds an empty TopK whose dist_.back() is UB.
  const std::vector<Label> labels{0, 1};
  std::stringstream in(craft_knn_classifier(0, 2.0, 1, 2, kTwoPoints, kTwoIds, labels));
  KnnClassifier knn;
  EXPECT_FALSE(knn.load(in));
  EXPECT_FALSE(knn.is_fitted());
}

TEST(ModelHardening, ClassifierRejectsNegativeLabel) {
  const std::vector<Label> labels{0, -1};  // OOB write in vote()
  std::stringstream in(craft_knn_classifier(1, 2.0, 1, 2, kTwoPoints, kTwoIds, labels));
  KnnClassifier knn;
  EXPECT_FALSE(knn.load(in));
  EXPECT_FALSE(knn.is_fitted());
}

TEST(ModelHardening, ClassifierRejectsLabelBeyondNClasses) {
  const std::vector<Label> labels{0, 2};  // == n_classes → votes[2] OOB
  std::stringstream in(craft_knn_classifier(1, 2.0, 1, 2, kTwoPoints, kTwoIds, labels));
  KnnClassifier knn;
  EXPECT_FALSE(knn.load(in));
  EXPECT_FALSE(knn.is_fitted());
}

TEST(ModelHardening, ClassifierRejectsBadMinkowskiP) {
  const std::vector<Label> labels{0, 1};
  for (const double p : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.5, -2.0, 0.0}) {
    std::stringstream in(craft_knn_classifier(1, p, 1, 2, kTwoPoints, kTwoIds, labels));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in)) << "p = " << p;
  }
}

TEST(ModelHardening, ClassifierRejectsZeroClassesAndHugeFields) {
  const std::vector<Label> labels{0, 1};
  {
    std::stringstream in(craft_knn_classifier(1, 2.0, 1, 0, kTwoPoints, kTwoIds, labels));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in)) << "n_classes == 0";
  }
  {
    // A giant n_classes would make vote() allocate a counter per class.
    std::stringstream in(
        craft_knn_classifier(1, 2.0, 1, 1ULL << 40, kTwoPoints, kTwoIds, labels));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in)) << "n_classes == 2^40";
  }
  for (const std::uint64_t dim : {std::uint64_t{0}, std::uint64_t{1} << 40}) {
    // dim 0 would divide the point block by zero; a giant dim would size
    // every later row arithmetic. Both are refused before either use.
    std::stringstream in(craft_knn_classifier(1, 2.0, dim, 2, kTwoPoints, kTwoIds, labels));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in)) << "dim == " << dim;
  }
}

TEST(ModelHardening, ClassifierRejectsEmptyTrainingSet) {
  std::stringstream in(craft_knn_classifier(1, 2.0, 1, 2, {}, {}, {}));
  KnnClassifier knn;
  EXPECT_FALSE(knn.load(in));
  EXPECT_FALSE(knn.is_fitted());
}

TEST(ModelHardening, RejectsPointIdPastPointCount) {
  // A row naming a point the file does not store would read past the
  // point block on every scan.
  const std::vector<std::uint32_t> ids{0, 2};
  {
    std::stringstream in(craft_knn_classifier(1, 2.0, 1, 2, kTwoPoints, ids, {0, 1}));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in));
    EXPECT_FALSE(knn.is_fitted());
  }
  {
    std::stringstream in(craft_knn_regressor(1, 0, 1, kTwoPoints, ids, {10.0, 20.0}));
    KnnRegressor reg;
    EXPECT_FALSE(reg.load(in));
    EXPECT_FALSE(reg.is_fitted());
  }
}

TEST(ModelHardening, RejectsPointBlockOfPartialRows) {
  // Three floats at dim 2: the last point would be half outside the
  // block.
  const std::vector<float> points{0.0F, 0.0F, 1.0F};
  const std::vector<std::uint32_t> ids{0, 0};
  {
    std::stringstream in(craft_knn_classifier(1, 2.0, 2, 2, points, ids, {0, 1}));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in));
    EXPECT_FALSE(knn.is_fitted());
  }
  {
    std::stringstream in(craft_knn_regressor(1, 0, 2, points, ids, {10.0, 20.0}));
    KnnRegressor reg;
    EXPECT_FALSE(reg.load(in));
    EXPECT_FALSE(reg.is_fitted());
  }
}

TEST(ModelHardening, RejectsIdCountOtherThanLabelCount) {
  // vote() and the mean index labels/targets by row id, so every row
  // needs exactly one.
  const std::vector<std::uint32_t> three_ids{0, 1, 1};
  {
    std::stringstream in(craft_knn_classifier(1, 2.0, 1, 2, kTwoPoints, three_ids, {0, 1}));
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in));
    EXPECT_FALSE(knn.is_fitted());
  }
  {
    std::stringstream in(craft_knn_regressor(1, 0, 1, kTwoPoints, three_ids, {10.0, 20.0}));
    KnnRegressor reg;
    EXPECT_FALSE(reg.load(in));
    EXPECT_FALSE(reg.is_fitted());
  }
}

TEST(ModelHardening, RegressorCraftedStreamMatchesSaveFormat) {
  const std::vector<double> targets{10.0, 20.0};
  std::stringstream in(craft_knn_regressor(1, 0, 1, kTwoPoints, kTwoIds, targets));
  KnnRegressor reg;
  ASSERT_TRUE(reg.load(in));
  const std::vector<float> query{0.1F};
  EXPECT_DOUBLE_EQ(reg.predict_one(query), 10.0);
}

TEST(ModelHardening, RegressorRejectsKZero) {
  // k == 0 in the regressor is both the empty-TopK UB and a division by
  // zero in the unweighted average.
  const std::vector<double> targets{10.0, 20.0};
  std::stringstream in(craft_knn_regressor(0, 0, 1, kTwoPoints, kTwoIds, targets));
  KnnRegressor reg;
  EXPECT_FALSE(reg.load(in));
  EXPECT_FALSE(reg.is_fitted());
}

TEST(ModelHardening, RegressorRejectsNonCanonicalBoolByte) {
  // The weighted flag is (de)serialized as uint8_t precisely so load can
  // reject bytes other than 0/1 instead of loading them into a bool (UB).
  const std::vector<double> targets{10.0, 20.0};
  std::stringstream in(craft_knn_regressor(1, 2, 1, kTwoPoints, kTwoIds, targets));
  KnnRegressor reg;
  EXPECT_FALSE(reg.load(in));
}

TEST(ModelHardening, KindTagsAreExclusive) {
  // KnnRegressor used to keep a private kind tag of 4, the tag of the
  // since-retired standalone flat-forest format, so two loaders would
  // both start parsing one payload. Every loader now rejects the others'
  // streams at the header, and nothing accepts a retired tag: 1 and 5
  // are the KNN files that stored every training row, whose payload
  // would otherwise be misread as a point store.
  const std::vector<double> targets{10.0, 20.0};
  const std::string reg_bytes = craft_knn_regressor(1, 0, 1, kTwoPoints, kTwoIds, targets);
  {
    std::stringstream in(reg_bytes);
    KnnClassifier knn;
    EXPECT_FALSE(knn.load(in));
  }
  {
    std::stringstream in(reg_bytes);
    RandomForestClassifier forest;
    EXPECT_FALSE(forest.load(in));
  }
  // The all-rows files tags 1 and 5 named, laid out as they were saved.
  std::stringstream all_rows_knn, all_rows_reg;
  io::write_header(all_rows_knn, 1);
  io::write_pod(all_rows_knn, std::uint64_t{1});
  io::write_pod(all_rows_knn, 2.0);
  io::write_pod(all_rows_knn, std::uint64_t{1});
  io::write_pod(all_rows_knn, std::uint64_t{2});
  io::write_vec(all_rows_knn, kTwoPoints);
  io::write_vec(all_rows_knn, std::vector<Label>{0, 1});
  io::write_header(all_rows_reg, 5);
  io::write_pod(all_rows_reg, std::uint64_t{1});
  io::write_pod(all_rows_reg, std::uint8_t{0});
  io::write_pod(all_rows_reg, std::uint64_t{1});
  io::write_vec(all_rows_reg, kTwoPoints);
  io::write_vec(all_rows_reg, targets);
  const std::string knn_bytes =
      craft_knn_classifier(1, 2.0, 1, 2, kTwoPoints, kTwoIds, {0, 1});
  for (const std::string& bytes : {all_rows_knn.str(), all_rows_reg.str()}) {
    std::stringstream as_reg(bytes), as_knn(bytes), as_forest(bytes);
    KnnRegressor reg;
    KnnClassifier knn;
    RandomForestClassifier forest;
    EXPECT_FALSE(reg.load(as_reg));
    EXPECT_FALSE(knn.load(as_knn));
    EXPECT_FALSE(forest.load(as_forest));
  }
  for (const std::uint32_t retired : {1U, 4U, 5U, 6U}) {
    for (const std::string& payload : {reg_bytes, knn_bytes}) {
      std::string bytes = payload;
      std::memcpy(bytes.data() + 2 * sizeof(std::uint32_t), &retired, sizeof(retired));
      std::stringstream as_reg(bytes), as_knn(bytes), as_forest(bytes);
      KnnRegressor reg;
      KnnClassifier knn;
      RandomForestClassifier forest;
      EXPECT_FALSE(reg.load(as_reg)) << "kind " << retired;
      EXPECT_FALSE(knn.load(as_knn)) << "kind " << retired;
      EXPECT_FALSE(forest.load(as_forest)) << "kind " << retired;
    }
  }
}

TEST(ModelHardening, RegressorTruncatedStreamsFailCleanly) {
  std::vector<float> points(64);
  std::vector<std::uint32_t> ids(32);
  std::vector<double> targets(32);
  for (std::size_t i = 0; i < 32; ++i) {
    points[2 * i] = static_cast<float>(i);
    points[2 * i + 1] = static_cast<float>(i) * 0.5F;
    ids[i] = static_cast<std::uint32_t>(i);
    targets[i] = static_cast<double>(i);
  }
  const std::string bytes = craft_knn_regressor(3, 1, 2, points, ids, targets);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::stringstream in(bytes.substr(0, cut));
    KnnRegressor reg;
    EXPECT_FALSE(reg.load(in)) << "cut at " << cut;
    EXPECT_FALSE(reg.is_fitted());
  }
}

/// A one-tree, two-class forest stream laid out field by field like
/// RandomForestClassifier::save: header, counts, a binner with the
/// single edge 0.5 per feature (`binner_width` features, normally
/// n_features), then the tree's class count, nodes and leaf table.
std::string craft_random_forest(std::uint64_t n_features,
                                const std::vector<DecisionTree::Node>& nodes,
                                const std::vector<float>& proba,
                                std::uint64_t binner_width = 0) {
  if (binner_width == 0) binner_width = n_features;
  const std::uint64_t n_classes = 2;
  std::stringstream out;
  io::write_header(out, io::kKindRandomForest);
  io::write_pod(out, n_classes);
  io::write_pod(out, n_features);
  io::write_pod(out, std::uint64_t{1});
  io::write_pod(out, binner_width);
  for (std::uint64_t f = 0; f < binner_width; ++f) {
    io::write_vec(out, std::vector<float>{0.5F});
  }
  io::write_pod(out, n_classes);
  io::write_vec(out, nodes);
  io::write_vec(out, proba);
  return out.str();
}

/// A stump on feature 0: x <= 0.5 goes to the class-0 leaf, else class 1.
std::vector<DecisionTree::Node> stump_nodes() {
  std::vector<DecisionTree::Node> nodes(3);  // leaves by default
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[2].proba_offset = 2;
  return nodes;
}

const std::vector<float> kStumpProba{1.0F, 0.0F, 0.0F, 1.0F};

void expect_forest_rejected(const std::string& bytes) {
  std::stringstream in(bytes);
  RandomForestClassifier forest;
  EXPECT_FALSE(forest.load(in));
  EXPECT_FALSE(forest.is_fitted());
}

TEST(ModelHardening, CraftedForestStreamMatchesSaveFormat) {
  // Canary for the rejection tests below: the valid stump loads, both
  // inference paths walk it, and it re-saves to the same bytes.
  const std::string bytes = craft_random_forest(1, stump_nodes(), kStumpProba);
  std::stringstream in(bytes);
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.load(in));
  const std::vector<float> rows{0.0F, 1.0F};
  const FeatureView view{rows.data(), 2, 1};
  EXPECT_EQ(forest.predict(view), (std::vector<Label>{0, 1}));
  EXPECT_EQ(forest.predict_scalar(view), (std::vector<Label>{0, 1}));
  std::stringstream resaved;
  ASSERT_TRUE(forest.save(resaved));
  EXPECT_EQ(resaved.str(), bytes);
}

TEST(ModelHardening, ForestRejectsChildPastNodePool) {
  auto nodes = stump_nodes();
  nodes[0].right = 5;  // the pool has 3 nodes
  expect_forest_rejected(craft_random_forest(1, nodes, kStumpProba));
}

TEST(ModelHardening, ForestRejectsSplitFeatureOutsideRow) {
  // A 1-feature model splitting on column 1, with a binner wide enough
  // to resolve the split: predict would read past every query row.
  auto nodes = stump_nodes();
  nodes[0].feature = 1;
  expect_forest_rejected(craft_random_forest(1, nodes, kStumpProba, /*binner_width=*/2));

  // The tree loader checks the column against the row width itself.
  std::stringstream tree_bytes;
  io::write_pod(tree_bytes, std::uint64_t{2});
  io::write_vec(tree_bytes, nodes);
  io::write_vec(tree_bytes, kStumpProba);
  const std::string bytes = tree_bytes.str();
  DecisionTree tree;
  std::stringstream narrow(bytes);
  EXPECT_FALSE(tree.load(narrow, 1));
  EXPECT_FALSE(tree.is_fitted());
  std::stringstream wide(bytes);
  EXPECT_TRUE(tree.load(wide, 2));
}

TEST(ModelHardening, ForestRejectsLeafOutsideProbaTable) {
  auto nodes = stump_nodes();
  nodes[2].proba_offset = 100000;
  expect_forest_rejected(craft_random_forest(1, nodes, kStumpProba));
}

TEST(ModelHardening, ForestRejectsNodeThatIsItsOwnChild) {
  auto nodes = stump_nodes();
  nodes[0].left = 0;  // traversal would never leave the root
  expect_forest_rejected(craft_random_forest(1, nodes, kStumpProba));
}

TEST(ModelHardening, ForestRejectsBinnerWidthMismatch) {
  // Rows are n_features wide and the scalar path bins every column, so a
  // binner narrower than the row would fault there.
  expect_forest_rejected(craft_random_forest(2, stump_nodes(), kStumpProba, /*binner_width=*/1));
}

TEST(RandomForest, EmptyTrainingThrows) {
  RandomForestClassifier forest;
  FeatureMatrix x(0, 3);
  EXPECT_THROW(forest.fit(x.view(), {}), std::invalid_argument);
}

// --------------------------------------------------------------- baseline

TEST(LookupBaseline, ExactKeyLookup) {
  LookupBaseline baseline;
  const std::vector<LookupBaseline::Key> keys{{"wrf", 48}, {"gemm", 96}, {"wrf", 48}};
  const std::vector<Label> labels{0, 1, 0};
  baseline.fit(keys, labels);
  EXPECT_EQ(baseline.table_size(), 2U);
  EXPECT_EQ(baseline.predict_one({"wrf", 48}), 0);
  EXPECT_EQ(baseline.predict_one({"gemm", 96}), 1);
}

TEST(LookupBaseline, CoresDisambiguateSameName) {
  LookupBaseline baseline;
  const std::vector<LookupBaseline::Key> keys{{"app", 48}, {"app", 96}};
  const std::vector<Label> labels{0, 1};
  baseline.fit(keys, labels);
  EXPECT_EQ(baseline.predict_one({"app", 48}), 0);
  EXPECT_EQ(baseline.predict_one({"app", 96}), 1);
}

TEST(LookupBaseline, MajorityWithinKey) {
  LookupBaseline baseline;
  std::vector<LookupBaseline::Key> keys;
  std::vector<Label> labels;
  for (int i = 0; i < 5; ++i) {
    keys.push_back({"mixed", 48});
    labels.push_back(i < 3 ? 1 : 0);
  }
  baseline.fit(keys, labels);
  EXPECT_EQ(baseline.predict_one({"mixed", 48}), 1);
}

TEST(LookupBaseline, UnseenKeyFallsBackToGlobalMajority) {
  LookupBaseline baseline;
  const std::vector<LookupBaseline::Key> keys{{"a", 1}, {"b", 1}, {"c", 1}};
  const std::vector<Label> labels{0, 0, 1};
  baseline.fit(keys, labels);
  EXPECT_EQ(baseline.predict_one({"unseen", 99}), 0);
  const std::vector<LookupBaseline::Key> queries{{"a", 1}, {"zzz", 7}};
  baseline.predict(queries);
  EXPECT_DOUBLE_EQ(baseline.last_fallback_rate(), 0.5);
}

TEST(LookupBaseline, SaveLoadRoundTrip) {
  LookupBaseline baseline;
  const std::vector<LookupBaseline::Key> keys{{"x", 1}, {"y", 2}};
  const std::vector<Label> labels{1, 0};
  baseline.fit(keys, labels);
  std::stringstream stream;
  ASSERT_TRUE(baseline.save(stream));
  LookupBaseline loaded;
  ASSERT_TRUE(loaded.load(stream));
  EXPECT_EQ(loaded.table_size(), 2U);
  EXPECT_EQ(loaded.predict_one({"x", 1}), 1);
  EXPECT_EQ(loaded.predict_one({"y", 2}), 0);
}

TEST(LookupBaseline, RejectsOutOfRangeLabels) {
  LookupBaseline baseline(2);
  const std::vector<LookupBaseline::Key> keys{{"a", 1}};
  EXPECT_THROW(baseline.fit(keys, {std::vector<Label>{5}}), std::invalid_argument);
}

// -------------------------------------------- property tests (TEST_P)

struct ForestParams {
  std::size_t trees;
  std::size_t max_bins;
};

class ForestProperty : public ::testing::TestWithParam<ForestParams> {};

TEST_P(ForestProperty, TrainAccuracyIsHighOnSeparableData) {
  const auto [trees, max_bins] = GetParam();
  const Blobs train = make_blobs(400, 6, 2, 0.3, trees * 1000 + max_bins);
  RandomForestConfig config;
  config.n_trees = trees;
  config.max_bins = max_bins;
  RandomForestClassifier forest(config);
  forest.fit(train.x.view(), train.y);
  EXPECT_GT(accuracy(train.y, forest.predict(train.x.view())), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Grid, ForestProperty,
                         ::testing::Values(ForestParams{5, 16}, ForestParams{5, 256},
                                           ForestParams{40, 16}, ForestParams{40, 256},
                                           ForestParams{1, 64}));

class KnnKProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KnnKProperty, SeparableBlobsStayAccurate) {
  const Blobs train = make_blobs(300, 5, 2, 0.3, 7);
  const Blobs test = make_blobs(100, 5, 2, 0.3, 8);
  KnnConfig config;
  config.k = GetParam();
  KnnClassifier knn(config);
  knn.fit(train.x.view(), train.y);
  EXPECT_GT(accuracy(test.y, knn.predict(test.x.view())), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnKProperty, ::testing::Values(1, 3, 5, 9, 15));

}  // namespace
}  // namespace mcb
