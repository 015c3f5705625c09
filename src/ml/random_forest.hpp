// Random Forest classifier (paper §III-D "RF"), following Breiman 2001
// and scikit-learn's defaults: 100 trees, bootstrap row sampling, sqrt(d)
// features per split, Gini criterion, probability averaging across trees
// at inference.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"

namespace mcb {

struct RandomForestConfig {
  std::size_t n_trees = 100;
  TreeConfig tree;                ///< tree.max_features 0 => sqrt(d)
  std::size_t max_bins = 256;     ///< histogram quantization granularity
  bool bootstrap = true;
  std::uint64_t seed = 42;
};

class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(RandomForestConfig config = {});

  void fit(FeatureView x, std::span<const Label> y) override;

  /// Batched prediction over the flattened forest (built at fit/load):
  /// raw-float row blocks through FlatForest, no per-row binning.
  /// Bit-identical to the scalar reference path below.
  std::vector<Label> predict(FeatureView x, ThreadPool* pool = nullptr) const override;

  /// Averaged class probabilities, row-major [rows x n_classes].
  std::vector<double> predict_proba(FeatureView x, ThreadPool* pool = nullptr) const;

  /// Scalar reference path (bin each row, recurse every tree per
  /// sample). Kept for equivalence tests and the bench_fig8 speedup
  /// measurement; not used in production serving.
  std::vector<Label> predict_scalar(FeatureView x, ThreadPool* pool = nullptr) const;
  std::vector<double> predict_proba_scalar(FeatureView x, ThreadPool* pool = nullptr) const;

  bool is_fitted() const noexcept override { return !trees_.empty(); }
  std::string name() const override { return "random_forest"; }
  std::size_t n_classes() const noexcept override { return n_classes_; }
  std::size_t n_features() const noexcept { return n_features_; }
  const RandomForestConfig& config() const noexcept { return config_; }
  std::size_t tree_count() const noexcept { return trees_.size(); }
  const DecisionTree& tree(std::size_t i) const { return trees_.at(i); }
  const FlatForest& flat() const noexcept { return flat_; }

  /// Pass a pool before fit() to parallelize tree construction.
  void set_training_pool(ThreadPool* pool) noexcept { train_pool_ = pool; }

  bool save(std::ostream& out) const override;
  bool load(std::istream& in) override;

 private:
  RandomForestConfig config_;
  FeatureBinner binner_;
  std::vector<DecisionTree> trees_;
  FlatForest flat_;
  std::size_t n_classes_ = 0;
  std::size_t n_features_ = 0;
  ThreadPool* train_pool_ = nullptr;
};

}  // namespace mcb
