#include "ml/flat_forest.hpp"

#include <limits>
#include <stdexcept>

#include "util/annotations.hpp"

namespace mcb {

void FlatForest::build(std::span<const DecisionTree> trees, const FeatureBinner& binner,
                       std::size_t n_classes) {
  roots_.clear();
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  proba_.clear();
  n_classes_ = n_classes;
  if (n_classes_ == 0) throw std::logic_error("flat forest: zero classes");

  std::size_t total_nodes = 0;
  std::size_t total_proba = 0;
  for (const auto& tree : trees) {
    total_nodes += tree.nodes().size();
    total_proba += tree.leaf_probas().size();
  }
  // Leaves are encoded as negative int32 left-children, so the node pool
  // and the proba table must both stay below 2^31.
  constexpr auto kMax = static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (total_nodes >= kMax || total_proba >= kMax) {
    throw std::logic_error("flat forest: forest too large to flatten");
  }
  roots_.reserve(trees.size());
  feature_.reserve(total_nodes);
  threshold_.reserve(total_nodes);
  left_.reserve(total_nodes);
  right_.reserve(total_nodes);
  proba_.reserve(total_proba);

  for (const auto& tree : trees) {
    if (!tree.is_fitted() || tree.n_classes() != n_classes_) {
      throw std::logic_error("flat forest: unfitted tree or class-count mismatch");
    }
    const auto base = static_cast<std::int32_t>(left_.size());
    const auto proba_base = static_cast<std::int32_t>(proba_.size());
    roots_.push_back(static_cast<std::uint32_t>(base));
    for (const auto& node : tree.nodes()) {
      if (node.left < 0) {  // leaf
        feature_.push_back(0);
        threshold_.push_back(0.0F);
        left_.push_back(-(proba_base + static_cast<std::int32_t>(node.proba_offset)) - 1);
        right_.push_back(-1);
        continue;
      }
      const auto edges = binner.edges(node.feature);
      if (node.threshold >= edges.size()) {
        throw std::logic_error("flat forest: split threshold outside binner edges");
      }
      feature_.push_back(node.feature);
      threshold_.push_back(edges[node.threshold]);
      left_.push_back(base + node.left);
      right_.push_back(base + node.right);
    }
    const auto probas = tree.leaf_probas();
    proba_.insert(proba_.end(), probas.begin(), probas.end());
  }
}

MCB_HOT_PATH void FlatForest::accumulate_proba_block(FeatureView x, std::size_t row_begin,
                                                     std::size_t row_end,
                                                     double* probs) const {
  const std::uint32_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  // Tree-major: one tree's nodes stay resident while the block streams.
  for (const std::uint32_t root : roots_) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const float* row = x.data + r * x.cols;
      auto node = static_cast<std::int32_t>(root);
      std::int32_t l = left[node];
      while (l >= 0) {
        // !(x > t) matches bin code <= t exactly, NaN included (both left).
        node = !(row[feature[node]] > threshold[node]) ? l : right[node];
        l = left[node];
      }
      const float* leaf = proba_.data() + static_cast<std::size_t>(-l - 1);
      double* out = probs + (r - row_begin) * n_classes_;
      for (std::size_t c = 0; c < n_classes_; ++c) out[c] += leaf[c];
    }
  }
}

}  // namespace mcb
