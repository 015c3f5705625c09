#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/serialize.hpp"

namespace mcb {

// ---------------------------------------------------------------- binner

void FeatureBinner::fit(FeatureView x, std::size_t max_bins) {
  max_bins = std::clamp<std::size_t>(max_bins, 2, 256);
  edges_.assign(x.cols, {});
  if (x.rows == 0) return;

  std::vector<float> column;
  for (std::size_t f = 0; f < x.cols; ++f) {
    column.resize(x.rows);
    for (std::size_t r = 0; r < x.rows; ++r) column[r] = x.data[r * x.cols + f];
    std::sort(column.begin(), column.end());
    column.erase(std::unique(column.begin(), column.end()), column.end());

    auto& edges = edges_[f];
    if (column.size() <= 1) continue;  // constant feature: single bin
    if (column.size() <= max_bins) {
      // One bin per distinct value: edges at midpoints.
      edges.reserve(column.size() - 1);
      for (std::size_t i = 0; i + 1 < column.size(); ++i) {
        edges.push_back(0.5F * (column[i] + column[i + 1]));
      }
    } else {
      // Quantile edges over the distinct values.
      edges.reserve(max_bins - 1);
      for (std::size_t b = 1; b < max_bins; ++b) {
        const std::size_t pos =
            b * (column.size() - 1) / max_bins;
        const float edge = 0.5F * (column[pos] + column[pos + 1]);
        if (edges.empty() || edge > edges.back()) edges.push_back(edge);
      }
    }
  }
}

std::uint8_t FeatureBinner::bin_value(std::size_t feature, float value) const {
  const auto& edges = edges_.at(feature);
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

std::vector<std::uint8_t> FeatureBinner::transform_column_major(FeatureView x) const {
  if (x.cols != edges_.size()) throw std::invalid_argument("binner: feature count mismatch");
  std::vector<std::uint8_t> codes(x.rows * x.cols);
  for (std::size_t f = 0; f < x.cols; ++f) {
    std::uint8_t* out = codes.data() + f * x.rows;
    const auto& edges = edges_[f];
    for (std::size_t r = 0; r < x.rows; ++r) {
      const float v = x.data[r * x.cols + f];
      const auto it = std::lower_bound(edges.begin(), edges.end(), v);
      out[r] = static_cast<std::uint8_t>(it - edges.begin());
    }
  }
  return codes;
}

void FeatureBinner::save(std::ostream& out) const {
  io::write_pod(out, static_cast<std::uint64_t>(edges_.size()));
  for (const auto& edges : edges_) io::write_vec(out, edges);
}

bool FeatureBinner::load(std::istream& in) {
  std::uint64_t n = 0;
  if (!io::read_pod(in, n) || n > (1ULL << 20)) return false;
  std::vector<std::vector<float>> edges(n);
  for (auto& feature_edges : edges) {
    if (!io::read_vec(in, feature_edges, io::kMaxVecElems)) return false;
  }
  edges_ = std::move(edges);
  return true;
}

// ------------------------------------------------------------------ tree

namespace {

double gini_impurity(std::span<const std::uint32_t> counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : counts) {
    const double p = static_cast<double>(c) / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

struct BuildFrame {
  std::size_t begin = 0;   // range into the row-index buffer
  std::size_t end = 0;
  std::size_t depth = 0;
  std::int32_t node = -1;  // index of the Node to fill in
};

}  // namespace

void DecisionTree::fit(const std::uint8_t* codes, std::size_t n_rows_total,
                       std::span<const std::uint32_t> rows, std::span<const Label> labels,
                       std::size_t n_features, std::size_t n_classes,
                       const TreeConfig& config, Rng& rng) {
  if (rows.empty()) throw std::invalid_argument("tree: empty training rows");
  n_classes_ = std::max<std::size_t>(n_classes, 1);
  nodes_.clear();
  proba_.clear();

  std::vector<std::uint32_t> index(rows.begin(), rows.end());
  const std::size_t max_features =
      config.max_features == 0 ? n_features : std::min(config.max_features, n_features);

  std::vector<std::uint32_t> feature_order(n_features);
  std::iota(feature_order.begin(), feature_order.end(), 0U);

  // Histogram buffer reused across nodes: 256 bins x n_classes.
  std::vector<std::uint32_t> hist(256 * n_classes_);
  std::vector<std::uint32_t> node_counts(n_classes_);
  std::vector<std::uint32_t> left_counts(n_classes_);

  const auto make_leaf = [this](std::span<const std::uint32_t> counts, std::int32_t node_id) {
    nodes_[static_cast<std::size_t>(node_id)].left = -1;
    nodes_[static_cast<std::size_t>(node_id)].right = -1;
    nodes_[static_cast<std::size_t>(node_id)].proba_offset =
        static_cast<std::uint32_t>(proba_.size());
    double total = 0.0;
    for (const auto c : counts) total += c;
    for (const auto c : counts) {
      proba_.push_back(total > 0.0 ? static_cast<float>(c / total) : 0.0F);
    }
  };

  std::vector<BuildFrame> stack;
  nodes_.emplace_back();
  stack.push_back({0, index.size(), 0, 0});

  while (!stack.empty()) {
    const BuildFrame frame = stack.back();
    stack.pop_back();
    const std::size_t n_node = frame.end - frame.begin;

    // Node class counts.
    std::fill(node_counts.begin(), node_counts.end(), 0U);
    for (std::size_t i = frame.begin; i < frame.end; ++i) {
      ++node_counts[static_cast<std::size_t>(labels[index[i]])];
    }
    const double node_impurity = gini_impurity(node_counts, static_cast<double>(n_node));

    const bool is_pure = node_impurity <= 1e-12;
    if (is_pure || frame.depth >= config.max_depth || n_node < config.min_samples_split ||
        n_node < 2 * config.min_samples_leaf) {
      make_leaf(node_counts, frame.node);
      continue;
    }

    // Sample candidate features without replacement (partial shuffle).
    for (std::size_t i = 0; i < max_features; ++i) {
      const std::size_t j = i + rng.bounded(n_features - i);
      std::swap(feature_order[i], feature_order[j]);
    }

    double best_gain = config.min_impurity_decrease;
    std::uint32_t best_feature = 0;
    std::uint8_t best_threshold = 0;

    for (std::size_t fi = 0; fi < max_features; ++fi) {
      const std::uint32_t f = feature_order[fi];
      const std::uint8_t* col = codes + static_cast<std::size_t>(f) * n_rows_total;

      std::fill(hist.begin(), hist.end(), 0U);
      std::uint8_t max_code = 0;
      for (std::size_t i = frame.begin; i < frame.end; ++i) {
        const std::uint32_t row = index[i];
        const std::uint8_t code = col[row];
        ++hist[static_cast<std::size_t>(code) * n_classes_ +
               static_cast<std::size_t>(labels[row])];
        max_code = std::max(max_code, code);
      }
      if (max_code == 0) continue;  // single bin, nothing to split

      // Scan split positions: left = codes <= t.
      std::fill(left_counts.begin(), left_counts.end(), 0U);
      std::size_t n_left = 0;
      for (std::size_t t = 0; t < max_code; ++t) {
        for (std::size_t c = 0; c < n_classes_; ++c) {
          const std::uint32_t add = hist[t * n_classes_ + c];
          left_counts[c] += add;
          n_left += add;
        }
        const std::size_t n_right = n_node - n_left;
        if (n_left < config.min_samples_leaf || n_right < config.min_samples_leaf) continue;

        double right_sum_sq = 0.0, left_sum_sq = 0.0;
        for (std::size_t c = 0; c < n_classes_; ++c) {
          const double lc = left_counts[c];
          const double rc = static_cast<double>(node_counts[c]) - lc;
          left_sum_sq += lc * lc;
          right_sum_sq += rc * rc;
        }
        const double nl = static_cast<double>(n_left);
        const double nr = static_cast<double>(n_right);
        const double gini_left = 1.0 - left_sum_sq / (nl * nl);
        const double gini_right = 1.0 - right_sum_sq / (nr * nr);
        const double weighted =
            (nl * gini_left + nr * gini_right) / static_cast<double>(n_node);
        const double gain = node_impurity - weighted;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = static_cast<std::uint8_t>(t);
        }
      }
    }

    if (best_gain <= config.min_impurity_decrease) {
      make_leaf(node_counts, frame.node);
      continue;
    }

    // Partition rows in place: left = code <= threshold.
    const std::uint8_t* col = codes + static_cast<std::size_t>(best_feature) * n_rows_total;
    auto mid_it = std::partition(
        index.begin() + static_cast<std::ptrdiff_t>(frame.begin),
        index.begin() + static_cast<std::ptrdiff_t>(frame.end),
        [col, best_threshold](std::uint32_t row) { return col[row] <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - index.begin());
    if (mid == frame.begin || mid == frame.end) {
      make_leaf(node_counts, frame.node);  // degenerate split (shouldn't happen)
      continue;
    }

    const auto left_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    const auto right_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& node = nodes_[static_cast<std::size_t>(frame.node)];
    node.left = left_id;
    node.right = right_id;
    node.feature = best_feature;
    node.threshold = best_threshold;

    stack.push_back({frame.begin, mid, frame.depth + 1, left_id});
    stack.push_back({mid, frame.end, frame.depth + 1, right_id});
  }
}

std::size_t DecisionTree::leaf_count() const noexcept {
  std::size_t leaves = 0;
  for (const auto& node : nodes_) {
    if (node.left < 0) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 0}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    if (node.left >= 0) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return max_depth;
}

void DecisionTree::accumulate_proba(const std::uint8_t* codes_row, double* probs) const {
  const Node* node = &nodes_[0];
  while (node->left >= 0) {
    const std::uint8_t code = codes_row[node->feature];
    node = &nodes_[static_cast<std::size_t>(code <= node->threshold ? node->left : node->right)];
  }
  const float* leaf = proba_.data() + node->proba_offset;
  for (std::size_t c = 0; c < n_classes_; ++c) probs[c] += leaf[c];
}

Label DecisionTree::predict_binned(const std::uint8_t* codes_row) const {
  const Node* node = &nodes_[0];
  while (node->left >= 0) {
    const std::uint8_t code = codes_row[node->feature];
    node = &nodes_[static_cast<std::size_t>(code <= node->threshold ? node->left : node->right)];
  }
  const float* leaf = proba_.data() + node->proba_offset;
  Label best = 0;
  for (std::size_t c = 1; c < n_classes_; ++c) {
    if (leaf[c] > leaf[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
  }
  return best;
}

void DecisionTree::save(std::ostream& out) const {
  io::write_pod(out, static_cast<std::uint64_t>(n_classes_));
  io::write_vec(out, nodes_);
  io::write_vec(out, proba_);
}

bool DecisionTree::load(std::istream& in, std::size_t n_features) {
  std::uint64_t n_classes = 0;
  if (!io::read_pod(in, n_classes) || n_classes == 0 || n_classes > 4096) return false;
  std::vector<Node> nodes;
  std::vector<float> proba;
  if (!io::read_vec(in, nodes, io::kMaxVecElems) ||
      !io::read_vec(in, proba, io::kMaxVecElems) || nodes.empty()) {
    return false;
  }
  // Both traversals index nodes, feature columns and the leaf table
  // straight from these fields, so a crafted stream must not get past
  // here with any of them out of range.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    if (node.left < 0) {
      if (node.proba_offset + n_classes > proba.size()) return false;
      continue;
    }
    // Children follow their parent (the builder appends them later),
    // which also guarantees traversal terminates.
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    if (node.right < 0 || left <= i || right <= i || left >= nodes.size() ||
        right >= nodes.size() || node.feature >= n_features) {
      return false;
    }
  }
  n_classes_ = static_cast<std::size_t>(n_classes);
  nodes_ = std::move(nodes);
  proba_ = std::move(proba);
  return true;
}

}  // namespace mcb
