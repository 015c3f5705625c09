#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

RandomForestClassifier::RandomForestClassifier(RandomForestConfig config)
    : config_(config) {
  if (config_.n_trees == 0) config_.n_trees = 1;
}

void RandomForestClassifier::fit(FeatureView x, std::span<const Label> y) {
  if (x.rows != y.size()) throw std::invalid_argument("rf: rows/labels mismatch");
  if (x.rows == 0) throw std::invalid_argument("rf: empty training set");
  n_features_ = x.cols;
  n_classes_ = 0;
  for (const Label l : y) {
    if (l < 0) throw std::invalid_argument("rf: negative label");
    n_classes_ = std::max(n_classes_, static_cast<std::size_t>(l) + 1);
  }

  binner_ = FeatureBinner();
  binner_.fit(x, config_.max_bins);
  const std::vector<std::uint8_t> codes = binner_.transform_column_major(x);

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(x.cols)))));
  }

  trees_.assign(config_.n_trees, DecisionTree());
  const std::size_t n = x.rows;
  Rng seeder(config_.seed);
  std::vector<std::uint64_t> tree_seeds(config_.n_trees);
  for (auto& s : tree_seeds) s = seeder.next();

  std::vector<Label> labels(y.begin(), y.end());
  parallel_for_each(
      train_pool_, 0, config_.n_trees,
      [&](std::size_t t) {
        Rng rng(tree_seeds[t]);
        std::vector<std::uint32_t> rows(n);
        if (config_.bootstrap) {
          for (auto& r : rows) r = static_cast<std::uint32_t>(rng.bounded(n));
        } else {
          for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);
        }
        trees_[t].fit(codes.data(), n, rows, labels, n_features_, n_classes_, tree_config,
                      rng);
      },
      /*grain=*/1);
  flat_.build(trees_, binner_, n_classes_);
}

namespace {

std::vector<Label> argmax_rows(const std::vector<double>& probs, std::size_t rows,
                               std::size_t n_classes) {
  std::vector<Label> out(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = probs.data() + r * n_classes;
    Label best = 0;
    for (std::size_t c = 1; c < n_classes; ++c) {
      if (row[c] > row[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
    }
    out[r] = best;
  }
  return out;
}

}  // namespace

std::vector<double> RandomForestClassifier::predict_proba(FeatureView x,
                                                          ThreadPool* pool) const {
  if (!is_fitted()) throw std::logic_error("rf: predict before fit");
  if (x.cols != n_features_) throw std::invalid_argument("rf: feature dimension mismatch");

  // Batched fast path: row blocks through the flattened forest on raw
  // float features — no per-row binning pass.
  std::vector<double> probs(x.rows * n_classes_, 0.0);
  const double inv = 1.0 / static_cast<double>(trees_.size());
  parallel_for(
      pool, 0, x.rows,
      [&](std::size_t begin, std::size_t end) {
        double* block = probs.data() + begin * n_classes_;
        flat_.accumulate_proba_block(x, begin, end, block);
        for (std::size_t i = 0; i < (end - begin) * n_classes_; ++i) block[i] *= inv;
      },
      /*grain=*/64);
  return probs;
}

std::vector<Label> RandomForestClassifier::predict(FeatureView x, ThreadPool* pool) const {
  return argmax_rows(predict_proba(x, pool), x.rows, n_classes_);
}

std::vector<double> RandomForestClassifier::predict_proba_scalar(FeatureView x,
                                                                 ThreadPool* pool) const {
  if (!is_fitted()) throw std::logic_error("rf: predict before fit");
  if (x.cols != n_features_) throw std::invalid_argument("rf: feature dimension mismatch");

  // Bin the query batch with the training binner; row-major codes here
  // because prediction walks one sample across features.
  std::vector<std::uint8_t> codes(x.rows * x.cols);
  parallel_for_each(
      pool, 0, x.rows,
      [&](std::size_t r) {
        std::uint8_t* row = codes.data() + r * x.cols;
        const auto sample = x.row(r);
        for (std::size_t f = 0; f < x.cols; ++f) row[f] = binner_.bin_value(f, sample[f]);
      },
      /*grain=*/32);

  std::vector<double> probs(x.rows * n_classes_, 0.0);
  parallel_for_each(
      pool, 0, x.rows,
      [&](std::size_t r) {
        double* out = probs.data() + r * n_classes_;
        const std::uint8_t* row = codes.data() + r * x.cols;
        for (const auto& tree : trees_) tree.accumulate_proba(row, out);
        const double inv = 1.0 / static_cast<double>(trees_.size());
        for (std::size_t c = 0; c < n_classes_; ++c) out[c] *= inv;
      },
      /*grain=*/16);
  return probs;
}

std::vector<Label> RandomForestClassifier::predict_scalar(FeatureView x,
                                                          ThreadPool* pool) const {
  return argmax_rows(predict_proba_scalar(x, pool), x.rows, n_classes_);
}

bool RandomForestClassifier::save(std::ostream& out) const {
  // An unfitted forest has no trees; silently writing an empty model
  // that load() would then reject is a trap for callers (mirrors the
  // same guard in KnnClassifier::save).
  if (!is_fitted()) return false;
  io::write_header(out, io::kKindRandomForest);
  io::write_pod(out, static_cast<std::uint64_t>(n_classes_));
  io::write_pod(out, static_cast<std::uint64_t>(n_features_));
  io::write_pod(out, static_cast<std::uint64_t>(trees_.size()));
  binner_.save(out);
  for (const auto& tree : trees_) tree.save(out);
  return static_cast<bool>(out);
}

bool RandomForestClassifier::load(std::istream& in) {
  std::uint32_t kind = 0;
  if (!io::read_header(in, kind) || kind != io::kKindRandomForest) return false;
  std::uint64_t n_classes = 0, n_features = 0, n_trees = 0;
  if (!io::read_pod(in, n_classes) || !io::read_pod(in, n_features) ||
      !io::read_pod(in, n_trees) || n_trees == 0 || n_trees > (1ULL << 20)) {
    return false;
  }
  // Read into locals and commit only once everything checks out, so a
  // rejected stream leaves the model unfitted instead of half-loaded.
  // Every split must index a column of an n_features-wide row, and the
  // binner must cover exactly those columns.
  FeatureBinner binner;
  if (n_features == 0 || !binner.load(in) || binner.n_features() != n_features) return false;
  std::vector<DecisionTree> trees;
  trees.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n_trees, 1024)));
  for (std::uint64_t t = 0; t < n_trees; ++t) {
    DecisionTree tree;
    if (!tree.load(in, static_cast<std::size_t>(n_features))) return false;
    trees.push_back(std::move(tree));
  }
  // Rebuild the batched-inference representation; a stream whose trees
  // and binner disagree (class counts, thresholds past the edges) is
  // malformed, not a crash.
  FlatForest flat;
  try {
    flat.build(trees, binner, static_cast<std::size_t>(n_classes));
  } catch (const std::logic_error&) {
    return false;
  }
  n_classes_ = static_cast<std::size_t>(n_classes);
  n_features_ = static_cast<std::size_t>(n_features);
  binner_ = std::move(binner);
  trees_ = std::move(trees);
  flat_ = std::move(flat);
  return true;
}

}  // namespace mcb
