// Histogram-based CART decision tree (the building block of the Random
// Forest, paper §III-D "RF").
//
// Continuous features are quantized once per training set into at most
// 255 quantile bins (FeatureBinner); each node then finds its best Gini
// split by building a (bin x class) histogram per candidate feature and
// scanning bin boundaries — O(rows_in_node * features_considered) per
// node instead of the O(n log n) sort of classic CART. This is the
// LightGBM-style formulation; it is what makes the paper's Figure-6 grid
// (hundreds of daily retrains) tractable on a laptop-class CPU, and its
// bin-count/accuracy trade-off is measured by bench_ablation_rf.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace mcb {

/// Quantile binner: maps float features to uint8 codes via per-feature
/// sorted edge arrays. Code c covers values in (edge[c-1], edge[c]].
class FeatureBinner {
 public:
  /// Build edges from a training matrix; at most `max_bins` (<= 256)
  /// distinct codes per feature.
  void fit(FeatureView x, std::size_t max_bins = 256);

  bool is_fitted() const noexcept { return !edges_.empty(); }
  std::size_t n_features() const noexcept { return edges_.size(); }
  std::size_t n_bins(std::size_t feature) const { return edges_.at(feature).size() + 1; }

  std::uint8_t bin_value(std::size_t feature, float value) const;

  /// Ascending edge array for one feature (empty for a constant
  /// feature). bin code c means "value <= edges[c]" failed for every
  /// edge before index c — the identity the FlatForest builder uses to
  /// resolve bin-code thresholds back to raw float comparisons.
  std::span<const float> edges(std::size_t feature) const { return edges_.at(feature); }

  /// Transform to *column-major* codes (feature-contiguous), the layout
  /// the tree's histogram builder wants: out[feature * rows + row].
  std::vector<std::uint8_t> transform_column_major(FeatureView x) const;

  void save(std::ostream& out) const;
  bool load(std::istream& in);

 private:
  std::vector<std::vector<float>> edges_;  // per feature, ascending
};

struct TreeConfig {
  std::size_t max_depth = 32;          ///< hard cap; 0 means 1-node stump
  std::size_t min_samples_split = 2;   ///< sklearn default
  std::size_t min_samples_leaf = 1;    ///< sklearn default
  std::size_t max_features = 0;        ///< 0 = all; RF passes sqrt(d)
  double min_impurity_decrease = 0.0;
};

class DecisionTree {
 public:
  /// Train on pre-binned column-major codes. `rows` lists the training
  /// row indices this tree sees (bootstrap sample for forests); `rng`
  /// drives feature subsampling.
  void fit(const std::uint8_t* codes_col_major, std::size_t n_rows_total,
           std::span<const std::uint32_t> rows, std::span<const Label> labels,
           std::size_t n_features, std::size_t n_classes, const TreeConfig& config,
           Rng& rng);

  bool is_fitted() const noexcept { return !nodes_.empty(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  std::size_t depth() const noexcept;
  std::size_t n_classes() const noexcept { return n_classes_; }

  /// Class-probability vector for one binned sample (codes indexed by
  /// feature), accumulated into `probs` (+=, for forest averaging).
  void accumulate_proba(const std::uint8_t* codes_row, double* probs) const;

  /// Hard prediction for one binned sample.
  Label predict_binned(const std::uint8_t* codes_row) const;

  void save(std::ostream& out) const;
  /// Rejects (leaving the tree untouched) any stream whose nodes do not
  /// form a tree a sample of `n_features` columns can be walked through.
  bool load(std::istream& in, std::size_t n_features);

  struct Node {
    std::int32_t left = -1;     ///< -1 marks a leaf
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    std::uint8_t threshold = 0; ///< go left when code <= threshold
    std::uint32_t proba_offset = 0;  ///< leaf: offset into proba_ table
  };

  /// Read-only node/leaf access for the FlatForest builder. Children
  /// always have larger indices than their parent; node 0 is the root.
  std::span<const Node> nodes() const noexcept { return nodes_; }
  std::span<const float> leaf_probas() const noexcept { return proba_; }

 private:
  std::vector<Node> nodes_;
  std::vector<float> proba_;  ///< leaf class distributions, n_classes each
  std::size_t n_classes_ = 0;
};

}  // namespace mcb
