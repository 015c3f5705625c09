// Flattened Random-Forest representation for batched inference.
//
// A fitted forest is a vector of DecisionTrees, each a vector of 16-byte
// Node structs walked recursively per sample. That layout is fine for
// training but leaves inference throughput on the table: every sample
// re-bins all features (a lower_bound per feature) and then pointer-hops
// through per-tree node vectors with unpredictable branches.
//
// FlatForest rebuilds the fitted trees into one contiguous
// structure-of-arrays node pool (feature_idx[], threshold[], left[],
// right[], leaf-proba table) with two properties:
//
//  * Thresholds are resolved to *raw float* edge values at build time:
//    training decides "go left when bin code <= t", and because codes
//    come from lower_bound over the binner's ascending edge array,
//    "code <= t" is exactly "!(x > edges[feature][t])" on the raw
//    feature value. Batched prediction therefore skips binning entirely
//    (the dominant per-row cost of the scalar path) and still takes
//    bit-identical left/right decisions — including NaN inputs, which
//    bin to code 0 (left) and which !(x > t) also sends left.
//  * Traversal is iterative and branch-light: leaves are encoded as
//    negative left-child values carrying the proba-table offset, so the
//    inner loop is a single conditional-move chase over flat arrays.
//    Row blocks are walked tree-major so a tree's nodes stay hot in
//    cache across the whole block.
//
// Per-row class-probability sums accumulate in tree order, so results
// are bit-identical to the scalar DecisionTree::accumulate_proba path
// (equivalence is asserted by tests/test_fastpath.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

namespace mcb {

class FlatForest {
 public:
  /// Rebuild from fitted trees + the binner that produced their codes.
  /// Throws std::logic_error when a tree references a feature/threshold
  /// the binner has no edge for (i.e. trees and binner do not match).
  void build(std::span<const DecisionTree> trees, const FeatureBinner& binner,
             std::size_t n_classes);

  bool empty() const noexcept { return roots_.empty(); }
  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return left_.size(); }
  std::size_t n_classes() const noexcept { return n_classes_; }

  /// Accumulate per-tree leaf distributions for a block of raw feature
  /// rows into probs[row * n_classes() + c] (+=; callers zero first and
  /// divide by tree_count() for the forest average). `x` must have at
  /// least as many columns as any feature index seen in training.
  void accumulate_proba_block(FeatureView x, std::size_t row_begin, std::size_t row_end,
                              double* probs) const;

 private:
  std::vector<std::uint32_t> roots_;     ///< node index of each tree's root
  std::vector<std::uint32_t> feature_;   ///< per node: feature column
  std::vector<float> threshold_;         ///< per node: go left when !(x > t)
  std::vector<std::int32_t> left_;       ///< child index; < 0 encodes a leaf:
                                         ///< proba offset == -left - 1
  std::vector<std::int32_t> right_;
  std::vector<float> proba_;             ///< leaf distributions, n_classes each
  std::size_t n_classes_ = 0;
};

}  // namespace mcb
