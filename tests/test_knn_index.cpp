// Equivalence tests for the KNN neighbor store (DESIGN.md §11): the
// bounding-box tree must return results *identical* to the scalar
// reference scan — same neighbor ids, same predictions — on randomized
// inputs and on the shapes that stress its invariants (duplicate rows
// and equal distances, k larger than the training set, narrow dims,
// tile boundaries, zero-extent splits, non-finite features). Plus the
// store's contract that search() always answers: with or without the
// tree, for the classifier and the regressor alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/knn.hpp"
#include "ml/knn_index.hpp"
#include "ml/knn_regressor.hpp"
#include "ml/top_k.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcb {
namespace {

struct RandomData {
  FeatureMatrix x;
  std::vector<Label> y;
};

RandomData make_random_data(std::size_t rows, std::size_t dims, std::uint64_t seed,
                            std::size_t n_classes = 2) {
  Rng rng(seed);
  RandomData data{FeatureMatrix(rows, dims), std::vector<Label>(rows)};
  for (std::size_t i = 0; i < rows; ++i) {
    const Label label = static_cast<Label>(rng.bounded(n_classes));
    data.y[i] = label;
    float* row = data.x.row(i);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.normal(d == 0 ? static_cast<double>(label) : 0.0, 1.0));
    }
  }
  return data;
}

/// HPC-trace-shaped data: many byte-identical rows (Fugaku jobs arrive
/// in batches of identical jobs), so equal distances are the common
/// case, not the corner case.
RandomData make_duplicate_data(std::size_t rows, std::size_t dims, std::size_t unique,
                               std::uint64_t seed, std::size_t n_classes = 2) {
  const RandomData base = make_random_data(unique, dims, seed, n_classes);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  RandomData data{FeatureMatrix(rows, dims), std::vector<Label>(rows)};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t pick = rng.bounded(unique);
    data.y[i] = base.y[pick];
    std::copy_n(base.x.row(pick).data(), dims, data.x.row(i));
  }
  return data;
}

/// Integer-valued rows drawn from `unique` points with coordinates in
/// [-3, 3]: every float product and sum on them is exact, so any two
/// correct rankings agree exactly, and distinct points often tie.
RandomData make_integer_duplicate_data(std::size_t rows, std::size_t dims, std::size_t unique,
                                       std::uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix pool(unique, dims);
  for (std::size_t u = 0; u < unique; ++u) {
    for (std::size_t d = 0; d < dims; ++d) {
      pool.row(u)[d] = static_cast<float>(static_cast<int>(rng.bounded(7)) - 3);
    }
  }
  RandomData data{FeatureMatrix(rows, dims), std::vector<Label>(rows)};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t pick = rng.bounded(unique);
    data.y[i] = static_cast<Label>(pick % 2);
    std::copy_n(pool.row(pick), dims, data.x.row(i));
  }
  return data;
}

/// The k nearest rows of `x` to `query` by brute force over the
/// caller's own matrix, independent of any store: exact double sums of
/// |x - q|^p, ties toward the lower row id, NaN distances never ranked,
/// unfilled slots kTopKNoRow.
std::vector<std::size_t> brute_force_top_k(const FeatureMatrix& x,
                                           std::span<const float> query, std::size_t k,
                                           double p) {
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    double sum = 0.0;
    for (std::size_t d = 0; d < query.size(); ++d) {
      sum += std::pow(std::abs(static_cast<double>(row[d]) - query[d]), p);
    }
    if (!std::isnan(sum)) ranked.emplace_back(sum, i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> out(std::min(k, x.rows()), kTopKNoRow);
  for (std::size_t j = 0; j < out.size() && j < ranked.size(); ++j) out[j] = ranked[j].second;
  return out;
}

KnnConfig tree_config(std::size_t k, std::size_t leaf_size = 8) {
  KnnConfig config;
  config.k = k;
  config.index.mode = KnnIndexMode::kBoundTree;
  config.index.leaf_size = leaf_size;
  return config;
}

/// The core contract: index-backed neighbors and predictions must be
/// bit-identical to the scalar reference scan, query by query.
void expect_index_matches_scalar(const KnnClassifier& knn, FeatureView queries) {
  ASSERT_TRUE(knn.index().ready()) << "index was expected to be active";
  EXPECT_EQ(knn.predict(queries), knn.predict_scalar(queries));
  for (std::size_t i = 0; i < queries.rows; ++i) {
    EXPECT_EQ(knn.kneighbors(queries.row(i)), knn.kneighbors_scalar(queries.row(i)))
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Bounding-box tree vs scalar scan
// ---------------------------------------------------------------------------

TEST(KnnIndexTree, MatchesScalarOnRandomizedInputs) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    const auto train = make_random_data(500, 8, seed);
    const auto queries = make_random_data(100, 8, seed + 1000);
    KnnClassifier knn(tree_config(5));
    knn.fit(train.x.view(), train.y);
    expect_index_matches_scalar(knn, queries.x.view());
  }
}

TEST(KnnIndexTree, MatchesScalarOnDuplicateHeavyData) {
  // 1500 rows collapsing onto 60 unique points: every neighbor set is
  // decided by the (distance, row id) tie-break, and queries drawn from
  // the same pool hit exact distance-0 matches.
  const auto train = make_duplicate_data(1500, 6, 60, 91);
  const auto queries = make_duplicate_data(80, 6, 60, 91);
  KnnClassifier knn(tree_config(5));
  knn.fit(train.x.view(), train.y);
  EXPECT_LT(knn.index().stats().unique_rows, 100U);
  expect_index_matches_scalar(knn, queries.x.view());
}

TEST(KnnIndexTree, DuplicateGroupExpandsToLowestRowIds) {
  // Four copies of the same point scattered through the training set:
  // k = 3 must return the three *lowest* original row ids, exactly as a
  // sequential first-seen-wins scan would.
  FeatureMatrix x(6, 2);
  const float rows[6][2] = {{5, 5}, {0, 0}, {9, 9}, {0, 0}, {0, 0}, {0, 0}};
  for (std::size_t i = 0; i < 6; ++i) std::copy_n(rows[i], 2, x.row(i));
  const std::vector<Label> y{0, 1, 0, 1, 1, 1};
  KnnClassifier knn(tree_config(3));
  knn.fit(x.view(), y);
  const std::vector<float> query{0.1F, 0.1F};
  const std::vector<std::size_t> expected{1, 3, 4};
  EXPECT_EQ(knn.kneighbors(query), expected);
  EXPECT_EQ(knn.kneighbors_scalar(query), expected);
}

TEST(KnnIndexTree, NarrowDimsAndTileBoundaries) {
  for (const std::size_t dims : {1U, 2U, 3U, 4U, 5U}) {
    for (const std::size_t rows : {127U, 128U, 129U, 256U}) {
      const auto train = make_random_data(rows, dims, dims * 1000 + rows);
      const auto queries = make_random_data(20, dims, dims * 2000 + rows);
      KnnClassifier knn(tree_config(5));
      knn.fit(train.x.view(), train.y);
      expect_index_matches_scalar(knn, queries.x.view());
    }
  }
}

TEST(KnnIndexTree, KLargerThanTrainingSet) {
  const auto train = make_random_data(10, 3, 5);
  const auto queries = make_random_data(8, 3, 6);
  KnnClassifier knn(tree_config(50));
  knn.fit(train.x.view(), train.y);
  expect_index_matches_scalar(knn, queries.x.view());
  EXPECT_EQ(knn.kneighbors(queries.x.row(0)).size(), 10U);
}

TEST(KnnIndexTree, ZeroExtentSplitForcesLeaf) {
  // All rows value-equal but byte-distinct in one dimension (-0.0 vs
  // 0.0): the widest split extent is zero, which must terminate the
  // build (forced leaf) rather than recurse forever.
  FeatureMatrix x(64, 2);
  for (std::size_t i = 0; i < 64; ++i) {
    x.row(i)[0] = (i % 2 == 0) ? 0.0F : -0.0F;
    x.row(i)[1] = 1.0F;
  }
  std::vector<Label> y(64);
  for (std::size_t i = 0; i < 64; ++i) y[i] = static_cast<Label>(i % 2);
  KnnClassifier knn(tree_config(5));
  knn.fit(x.view(), y);
  ASSERT_TRUE(knn.index().ready());
  const std::vector<float> query{0.0F, 0.9F};
  EXPECT_EQ(knn.kneighbors(query), knn.kneighbors_scalar(query));
}

TEST(KnnIndexTree, NonFiniteQueryFallsBackToScan) {
  const auto train = make_random_data(300, 4, 17);
  KnnClassifier knn(tree_config(5));
  knn.fit(train.x.view(), train.y);
  ASSERT_TRUE(knn.index().ready());
  FeatureMatrix queries(3, 4);
  queries.row(0)[1] = std::numeric_limits<float>::quiet_NaN();
  queries.row(1)[2] = std::numeric_limits<float>::infinity();
  queries.row(2)[0] = -std::numeric_limits<float>::infinity();
  // The index refuses these queries; predict must agree with the scalar
  // path (which handles them via the NaN-rejecting TopK) in both cases.
  EXPECT_EQ(knn.predict(queries.view()), knn.predict_scalar(queries.view()));
}

TEST(KnnIndexTree, NonFiniteTrainingDataDisablesIndex) {
  auto train = make_random_data(300, 4, 19);
  train.x.row(7)[2] = std::numeric_limits<float>::quiet_NaN();
  KnnClassifier knn(tree_config(5));
  knn.fit(train.x.view(), train.y);
  EXPECT_FALSE(knn.index().ready()) << "non-finite training data must refuse the index";
  const auto queries = make_random_data(20, 4, 20);
  EXPECT_EQ(knn.predict(queries.x.view()), knn.predict_scalar(queries.x.view()));
}

TEST(KnnIndexTree, ParallelPredictionMatchesSerial) {
  const auto train = make_duplicate_data(1000, 5, 80, 33);
  const auto queries = make_random_data(64, 5, 34);
  KnnClassifier knn(tree_config(5));
  knn.fit(train.x.view(), train.y);
  ThreadPool pool(4);
  EXPECT_EQ(knn.predict(queries.x.view(), &pool), knn.predict(queries.x.view(), nullptr));
}

// ---------------------------------------------------------------------------
// Regressor on the same index
// ---------------------------------------------------------------------------

TEST(KnnIndexRegressor, IndexedPredictionsMatchScanBitwise) {
  for (const bool weighted : {false, true}) {
    const auto train = make_duplicate_data(900, 5, 70, 77);
    std::vector<double> targets(train.y.size());
    Rng rng(78);
    for (auto& t : targets) t = rng.uniform(0.0, 100.0);

    KnnRegressorConfig indexed;
    indexed.k = 5;
    indexed.distance_weighted = weighted;
    indexed.index.mode = KnnIndexMode::kBoundTree;
    indexed.index.leaf_size = 8;
    KnnRegressorConfig scan = indexed;
    scan.index.mode = KnnIndexMode::kNone;

    KnnRegressor fast(indexed);
    fast.fit(train.x.view(), targets);
    ASSERT_TRUE(fast.index().ready());
    KnnRegressor reference(scan);
    reference.fit(train.x.view(), targets);
    ASSERT_FALSE(reference.index().ready());

    const auto queries = make_duplicate_data(60, 5, 70, 79);
    EXPECT_EQ(fast.predict(queries.x.view()), reference.predict(queries.x.view()))
        << "weighted = " << weighted;
  }
}

// ---------------------------------------------------------------------------
// The store answers every query
// ---------------------------------------------------------------------------

TEST(KnnIndexStore, SearchAnswersWithAndWithoutTree) {
  // One matrix stored twice, with the tree and scan-only: search() must
  // answer on both and agree slot for slot, distances included.
  const auto train = make_duplicate_data(300, 4, 40, 115);
  KnnIndexConfig tree;
  tree.leaf_size = 8;
  KnnIndexConfig scan = tree;
  scan.mode = KnnIndexMode::kNone;
  KnnIndex indexed;
  KnnIndex scanned;
  indexed.build(train.x.view(), tree);
  scanned.build(train.x.view(), scan);
  ASSERT_TRUE(indexed.ready());
  ASSERT_FALSE(scanned.ready());
  EXPECT_EQ(scanned.rows(), 300U);
  EXPECT_EQ(scanned.dim(), 4U);
  // Both store each distinct row once, tree or not.
  EXPECT_EQ(scanned.stats().rows, 300U);
  EXPECT_LE(scanned.stats().unique_rows, 40U);
  EXPECT_EQ(scanned.stats().unique_rows, indexed.stats().unique_rows);

  const auto queries = make_random_data(30, 4, 116);
  std::vector<std::size_t> idx_a, idx_b;
  std::vector<double> dist_a, dist_b;
  for (std::size_t i = 0; i < 30; ++i) {
    indexed.search(queries.x.view().row(i), 5, 2.0, idx_a, dist_a);
    scanned.search(queries.x.view().row(i), 5, 2.0, idx_b, dist_b);
    ASSERT_EQ(idx_a.size(), 5U);
    EXPECT_EQ(idx_a, idx_b) << "query " << i;
    EXPECT_EQ(dist_a, dist_b) << "query " << i;
  }
}

TEST(KnnIndexStore, NeighborsMatchBruteForceOverTheOriginalRows) {
  // Every path reads row i through its stored point; the reference here
  // reads the caller's matrix. Shapes: duplicate-heavy rows, rows that
  // differ only by the sign of a zero (byte-distinct, value-equal), NaN
  // rows (which also turn the tree off) and the p = 1 Minkowski scan.
  auto train = make_integer_duplicate_data(600, 6, 40, 131);
  for (std::size_t i = 0; i < 600; i += 3) {
    for (std::size_t d = 0; d < 6; ++d) {
      if (train.x.row(i)[d] == 0.0F) train.x.row(i)[d] = -0.0F;
    }
  }
  auto with_nan = train;
  for (const std::size_t i : {5U, 77U, 78U}) {
    with_nan.x.row(i)[2] = std::numeric_limits<float>::quiet_NaN();
  }
  const auto queries = make_integer_duplicate_data(30, 6, 40, 131);
  const auto strangers = make_integer_duplicate_data(30, 6, 30, 132);

  struct Case {
    const char* name;
    const RandomData* data;
    KnnConfig config;
    bool tree;
  };
  KnnConfig scan = tree_config(7);
  scan.index.mode = KnnIndexMode::kNone;
  KnnConfig manhattan = tree_config(7);
  manhattan.minkowski_p = 1.0;
  const Case cases[] = {
      {"tree", &train, tree_config(7), true},
      {"scan", &train, scan, false},
      {"nan rows", &with_nan, tree_config(7), false},
      {"p = 1", &train, manhattan, false},
  };
  for (const Case& c : cases) {
    KnnClassifier knn(c.config);
    knn.fit(c.data->x.view(), c.data->y);
    EXPECT_EQ(knn.index().ready(), c.tree) << c.name;
    EXPECT_LE(knn.index().stats().unique_rows, 80U) << c.name;
    for (const RandomData* q : {&queries, &strangers}) {
      for (std::size_t i = 0; i < q->x.rows(); ++i) {
        const auto query = q->x.view().row(i);
        const auto expected =
            brute_force_top_k(c.data->x, query, c.config.k, c.config.minkowski_p);
        EXPECT_EQ(knn.kneighbors(query), expected) << c.name << ", query " << i;
        EXPECT_EQ(knn.kneighbors_scalar(query), expected) << c.name << ", query " << i;
      }
    }
  }
}

TEST(KnnIndexStore, RejectsRowCountPastThirtyTwoBits) {
  // Row ids, point ids and group offsets are 32-bit; a larger set must
  // be refused before any row is read.
  const std::vector<float> one{1.0F};
  const FeatureView huge{one.data(), std::size_t{1} << 32, 1};
  KnnIndex index;
  EXPECT_THROW(index.build(huge, {}), std::length_error);
}

TEST(KnnIndexStore, EmptyRequestsRankNothing) {
  // k == 0 and an empty store both answer with no slots rather than
  // ranking into a zero-length buffer.
  const auto train = make_random_data(50, 2, 117);
  KnnIndex index;
  index.build(train.x.view(), {});
  std::vector<std::size_t> idx{1, 2};
  std::vector<double> dist{1.0, 2.0};
  index.search(train.x.view().row(0), 0, 2.0, idx, dist);
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(dist.empty());

  const KnnIndex empty;
  empty.search({}, 5, 2.0, idx, dist);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(empty.rows(), 0U);
}

}  // namespace
}  // namespace mcb
