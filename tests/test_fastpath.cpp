// Equivalence tests for the batched inference fast path (DESIGN.md §8):
// the flat-forest and tiled-KNN kernels must return results identical to
// the scalar reference implementations on randomized inputs and on the
// shapes that stress their edge handling (single row, one feature,
// dimensions that do not divide the unroll width, k larger than the
// training set). Plus the sharded embedding-cache contract: LRU
// eviction, bounded capacity, stats, and data-race freedom under
// concurrent hit/miss/evict traffic (run under TSan in CI).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "ml/flat_forest.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "text/embedding_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcb {
namespace {

/// Random matrix with a weak class signal in the first column, enough
/// for trees to find splits everywhere rather than degenerate stumps.
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

RandomForestConfig forest_config(std::size_t n_trees, std::uint64_t seed = 42) {
  RandomForestConfig config;
  config.n_trees = n_trees;
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// Flat forest vs scalar recursion
// ---------------------------------------------------------------------------

void expect_forest_paths_identical(const RandomForestClassifier& rf, FeatureView queries) {
  const auto scalar_labels = rf.predict_scalar(queries);
  const auto flat_labels = rf.predict(queries);
  EXPECT_EQ(scalar_labels, flat_labels);
  // Bit-identical probabilities: both paths accumulate the same leaf
  // distributions in the same tree order.
  const auto scalar_proba = rf.predict_proba_scalar(queries);
  const auto flat_proba = rf.predict_proba(queries);
  ASSERT_EQ(scalar_proba.size(), flat_proba.size());
  for (std::size_t i = 0; i < scalar_proba.size(); ++i) {
    EXPECT_EQ(scalar_proba[i], flat_proba[i]) << "probability " << i << " diverged";
  }
}

TEST(FlatForest, MatchesScalarOnRandomizedInputs) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    const auto train = make_random_data(300, 16, seed);
    RandomForestConfig config;
    config.n_trees = 25;
    config.seed = seed;
    RandomForestClassifier rf(config);
    rf.fit(train.x.view(), train.y);
    ASSERT_FALSE(rf.flat().empty());
    const auto queries = make_random_data(257, 16, seed + 1000);
    expect_forest_paths_identical(rf, queries.x.view());
  }
}

TEST(FlatForest, MatchesScalarMulticlass) {
  const auto train = make_random_data(400, 8, 5, /*n_classes=*/4);
  RandomForestConfig config;
  config.n_trees = 15;
  RandomForestClassifier rf(config);
  rf.fit(train.x.view(), train.y);
  const auto queries = make_random_data(100, 8, 6, /*n_classes=*/4);
  expect_forest_paths_identical(rf, queries.x.view());
}

TEST(FlatForest, MatchesScalarSingleRowAndSingleFeature) {
  const auto train = make_random_data(120, 1, 9);
  RandomForestClassifier rf(forest_config(10));
  rf.fit(train.x.view(), train.y);
  const auto one = make_random_data(1, 1, 10);
  expect_forest_paths_identical(rf, one.x.view());
}

TEST(FlatForest, MatchesScalarOnNonFiniteInputs) {
  const auto train = make_random_data(200, 6, 11);
  RandomForestClassifier rf(forest_config(12));
  rf.fit(train.x.view(), train.y);
  // NaN bins to code 0 in the scalar path and !(NaN > t) goes left in
  // the flat path; infinities exercise the top edge. All must agree.
  FeatureMatrix queries(4, 6);
  for (std::size_t d = 0; d < 6; ++d) {
    queries.row(0)[d] = std::numeric_limits<float>::quiet_NaN();
    queries.row(1)[d] = std::numeric_limits<float>::infinity();
    queries.row(2)[d] = -std::numeric_limits<float>::infinity();
    queries.row(3)[d] = d % 2 == 0 ? std::numeric_limits<float>::quiet_NaN() : 0.5f;
  }
  expect_forest_paths_identical(rf, queries.view());
}

TEST(FlatForest, ParallelBlocksMatchSerial) {
  const auto train = make_random_data(300, 12, 13);
  RandomForestClassifier rf(forest_config(20));
  rf.fit(train.x.view(), train.y);
  const auto queries = make_random_data(500, 12, 14);
  ThreadPool pool(4);
  const auto serial = rf.predict_proba(queries.x.view(), nullptr);
  const auto parallel = rf.predict_proba(queries.x.view(), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], parallel[i]);
}

TEST(FlatForest, RandomForestLoadRebuildsFlat) {
  const auto train = make_random_data(200, 8, 21);
  RandomForestClassifier rf(forest_config(10));
  rf.fit(train.x.view(), train.y);
  std::stringstream stream;
  ASSERT_TRUE(rf.save(stream));
  RandomForestClassifier restored;
  ASSERT_TRUE(restored.load(stream));
  ASSERT_FALSE(restored.flat().empty());
  const auto queries = make_random_data(50, 8, 22);
  EXPECT_EQ(rf.predict(queries.x.view()), restored.predict(queries.x.view()));
  expect_forest_paths_identical(restored, queries.x.view());
}

// ---------------------------------------------------------------------------
// Tiled KNN vs scalar scan
// ---------------------------------------------------------------------------

TEST(KnnFastPath, MatchesScalarOnRandomizedInputs) {
  for (const std::uint64_t seed : {2ULL, 31ULL, 77ULL}) {
    // 300 rows spans two full 128-row tiles plus a partial tail; dim 19
    // leaves a 3-wide remainder for the 4-accumulator unroll.
    const auto train = make_random_data(300, 19, seed);
    KnnClassifier knn;
    knn.fit(train.x.view(), train.y);
    const auto queries = make_random_data(97, 19, seed + 500);
    EXPECT_EQ(knn.predict_scalar(queries.x.view()), knn.predict(queries.x.view()));
    for (std::size_t i = 0; i < queries.x.view().rows; ++i) {
      const auto row = queries.x.view().row(i);
      EXPECT_EQ(knn.kneighbors_scalar(row), knn.kneighbors(row)) << "query " << i;
    }
  }
}

TEST(KnnFastPath, KLargerThanTrainingSet) {
  const auto train = make_random_data(3, 7, 41);
  KnnConfig config;
  config.k = 10;  // > n_rows: both scans must return all 3 rows
  KnnClassifier knn(config);
  knn.fit(train.x.view(), train.y);
  const auto query = make_random_data(1, 7, 42);
  const auto tiled = knn.kneighbors(query.x.view().row(0));
  EXPECT_EQ(tiled.size(), 3u);
  EXPECT_EQ(tiled, knn.kneighbors_scalar(query.x.view().row(0)));
  EXPECT_EQ(knn.predict(query.x.view()), knn.predict_scalar(query.x.view()));
}

TEST(KnnFastPath, SingleRowAndNarrowDims) {
  // dims 1..5 cover every remainder class of the 4-wide unroll.
  for (const std::size_t dims : {1UL, 2UL, 3UL, 4UL, 5UL}) {
    const auto train = make_random_data(150, dims, 50 + dims);
    KnnClassifier knn;
    knn.fit(train.x.view(), train.y);
    const auto query = make_random_data(1, dims, 60 + dims);
    EXPECT_EQ(knn.kneighbors(query.x.view().row(0)), knn.kneighbors_scalar(query.x.view().row(0)))
        << "dims=" << dims;
  }
}

TEST(KnnFastPath, ExactTileBoundary) {
  // Exactly one tile (128) and one-past (129): the tile loop must not
  // read past the end or skip the final row.
  for (const std::size_t rows : {128UL, 129UL, 256UL}) {
    const auto train = make_random_data(rows, 9, 70 + rows);
    KnnClassifier knn;
    knn.fit(train.x.view(), train.y);
    const auto query = make_random_data(5, 9, 90 + rows);
    EXPECT_EQ(knn.predict(query.x.view()), knn.predict_scalar(query.x.view())) << "rows=" << rows;
  }
}

// ---------------------------------------------------------------------------
// Sharded embedding cache
// ---------------------------------------------------------------------------

std::vector<float> vec_of(std::size_t dim, float fill) { return std::vector<float>(dim, fill); }

TEST(EmbeddingCache, HitMissAndStats) {
  ShardedEmbeddingCache cache(4, {.capacity = 8, .shards = 2});
  std::vector<float> out(4);
  EXPECT_FALSE(cache.lookup("alpha", out));
  cache.insert("alpha", vec_of(4, 1.5f));
  ASSERT_TRUE(cache.lookup("alpha", out));
  EXPECT_EQ(out, vec_of(4, 1.5f));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbeddingCache, RejectsWrongWidth) {
  ShardedEmbeddingCache cache(4);
  cache.insert("key", vec_of(3, 1.0f));  // too narrow: ignored
  std::vector<float> out(4);
  EXPECT_FALSE(cache.lookup("key", out));
}

TEST(EmbeddingCache, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  ShardedEmbeddingCache cache(2, {.capacity = 2, .shards = 1});
  std::vector<float> out(2);
  cache.insert("a", vec_of(2, 1.0f));
  cache.insert("b", vec_of(2, 2.0f));
  ASSERT_TRUE(cache.lookup("a", out));  // promotes "a"; "b" is now LRU
  cache.insert("c", vec_of(2, 3.0f));   // evicts "b"
  EXPECT_TRUE(cache.lookup("a", out));
  EXPECT_FALSE(cache.lookup("b", out));
  EXPECT_TRUE(cache.lookup("c", out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EmbeddingCache, InsertRefreshesExistingKey) {
  ShardedEmbeddingCache cache(2, {.capacity = 4, .shards = 1});
  cache.insert("k", vec_of(2, 1.0f));
  cache.insert("k", vec_of(2, 9.0f));
  std::vector<float> out(2);
  ASSERT_TRUE(cache.lookup("k", out));
  EXPECT_EQ(out, vec_of(2, 9.0f));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbeddingCache, ClearDropsEntriesKeepsStats) {
  ShardedEmbeddingCache cache(2, {.capacity = 8, .shards = 2});
  cache.insert("x", vec_of(2, 1.0f));
  std::vector<float> out(2);
  ASSERT_TRUE(cache.lookup("x", out));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("x", out));
  EXPECT_EQ(cache.stats().hits, 1u);  // preserved across clear()
}

TEST(EmbeddingCache, ConcurrentHitMissEvict) {
  // Small capacity forces constant eviction while 8 threads hammer
  // overlapping key ranges; run under TSan this is the data-race gate.
  constexpr std::size_t kDim = 8;
  ShardedEmbeddingCache cache(kDim, {.capacity = 32, .shards = 4});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<float> out(kDim);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::string key = "job-" + std::to_string(rng.bounded(64));
        if (!cache.lookup(key, out)) {
          cache.insert(key, vec_of(kDim, static_cast<float>(t)));
        }
        if (op % 1024 == 0 && t == 0) cache.clear();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(cache.size(), 32u);
}

}  // namespace
}  // namespace mcb
