#include "ml/knn_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "ml/knn_kernels.hpp"
#include "ml/top_k.hpp"
#include "util/annotations.hpp"

namespace mcb {

namespace {

/// Conservative pruning slack. Leaf distances come from a float dot
/// kernel whose rounding error is bounded by ~dim * eps_f relative to
/// the candidate magnitudes, while the box bound is geometric (computed
/// on the true coordinates). The slack keeps "skip this subtree" safe
/// against that rounding gap: a subtree is only pruned when its best
/// possible distance beats the current k-th best by more than any
/// accumulated float error could explain, so the tree can never drop a
/// row the scan would have kept. At 1e-4 relative the lost pruning
/// power is unmeasurable.
constexpr double kPruneSlackRel = 1e-4;

bool all_finite(const float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace

const char* knn_index_mode_name(KnnIndexMode mode) noexcept {
  return mode == KnnIndexMode::kBoundTree ? "tree" : "none";
}

std::optional<KnnIndexMode> parse_knn_index_mode(std::string_view name) noexcept {
  if (name == "none") return KnnIndexMode::kNone;
  if (name == "tree") return KnnIndexMode::kBoundTree;
  return std::nullopt;
}

void KnnIndex::clear() {
  dim_ = 0;
  data_.clear();
  norms_.clear();
  stats_ = {};
  points_.clear();
  point_norms_.clear();
  group_offsets_.clear();
  group_rows_.clear();
  nodes_.clear();
  bounds_lo_.clear();
  bounds_hi_.clear();
}

// ---------------------------------------------------------------- build

void KnnIndex::build(FeatureView data, const KnnIndexConfig& config) {
  clear();
  dim_ = data.cols;
  data_.assign(data.data, data.data + data.rows * data.cols);
  norms_.resize(data.rows);
  for (std::size_t i = 0; i < data.rows; ++i) {
    norms_[i] = row_norm_sq(data_.data() + i * dim_, dim_);
  }
  if (config.mode == KnnIndexMode::kNone || data.rows < config.min_rows) return;
  if (data.empty() || data.rows >= std::numeric_limits<std::uint32_t>::max()) return;
  if (!all_finite(data_.data(), data_.size())) return;
  build_tree(std::max<std::size_t>(config.leaf_size, 1));
  stats_.mode = config.mode;
  stats_.rows = data.rows;
  stats_.unique_rows = points_.size() / dim_;
  stats_.nodes = nodes_.size();
  for (const Node& node : nodes_) {
    if (node.left < 0) ++stats_.leaves;
  }
}

void KnnIndex::build_tree(std::size_t leaf_size) {
  // Group byte-identical rows: identical bytes produce identical dot
  // products under any deterministic kernel, so one distance per unique
  // point stands in for the whole group. NaN payload bits group too
  // (byte equality, not float equality), but build() already refused
  // non-finite data before this runs.
  const std::size_t n = rows();
  const std::size_t row_bytes = dim_ * sizeof(float);
  std::unordered_map<std::string_view, std::uint32_t> seen;
  seen.reserve(n);
  std::vector<std::uint32_t> row_uid(n);
  std::vector<float> unique_points;
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = data_.data() + i * dim_;
    const auto [it, inserted] =
        seen.emplace(std::string_view(reinterpret_cast<const char*>(row), row_bytes),
                     static_cast<std::uint32_t>(unique_points.size() / dim_));
    if (inserted) unique_points.insert(unique_points.end(), row, row + dim_);
    row_uid[i] = it->second;
  }
  const std::size_t nu = unique_points.size() / dim_;

  // Per-group original row ids, ascending (rows visited in order).
  std::vector<std::uint32_t> group_count(nu, 0);
  for (const std::uint32_t uid : row_uid) ++group_count[uid];
  std::vector<std::uint32_t> group_begin(nu, 0);
  std::uint32_t acc = 0;
  for (std::size_t u = 0; u < nu; ++u) {
    group_begin[u] = acc;
    acc += group_count[u];
  }
  std::vector<std::uint32_t> group_rows(n);
  std::vector<std::uint32_t> cursor = group_begin;
  for (std::size_t i = 0; i < n; ++i) {
    group_rows[cursor[row_uid[i]]++] = static_cast<std::uint32_t>(i);
  }

  // Recursive median split over `order`; nodes are appended preorder so
  // children always follow their parent.
  std::vector<std::uint32_t> order(nu);
  for (std::size_t u = 0; u < nu; ++u) order[u] = static_cast<std::uint32_t>(u);
  nodes_.reserve(2 * nu / leaf_size + 2);
  struct Builder {
    std::vector<Node>& nodes;
    std::vector<std::uint32_t>& order;
    const std::vector<float>& pts;
    std::size_t dim;
    std::size_t leaf_size;
    std::int32_t build(std::uint32_t begin, std::uint32_t end) {
      const auto idx = static_cast<std::int32_t>(nodes.size());
      nodes.push_back(Node{-1, -1, begin, end});
      const std::size_t count = end - begin;
      if (count <= leaf_size) return idx;
      // Widest dimension of this subset's bounding box.
      std::size_t split_dim = 0;
      float best_extent = -1.0F;
      for (std::size_t d = 0; d < dim; ++d) {
        float lo = pts[static_cast<std::size_t>(order[begin]) * dim + d];
        float hi = lo;
        for (std::uint32_t p = begin + 1; p < end; ++p) {
          const float v = pts[static_cast<std::size_t>(order[p]) * dim + d];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        const float extent = hi - lo;
        if (extent > best_extent) {
          best_extent = extent;
          split_dim = d;
        }
      }
      // Zero extent means every remaining unique point is value-equal
      // (e.g. -0.0 vs 0.0 byte-distinct rows): splitting cannot make
      // progress, so the node stays a leaf.
      if (!(best_extent > 0.0F)) return idx;
      const std::uint32_t mid = begin + static_cast<std::uint32_t>(count / 2);
      std::nth_element(order.begin() + begin, order.begin() + mid, order.begin() + end,
                       [&](std::uint32_t a, std::uint32_t b) {
                         return pts[static_cast<std::size_t>(a) * dim + split_dim] <
                                pts[static_cast<std::size_t>(b) * dim + split_dim];
                       });
      const std::int32_t left = build(begin, mid);
      const std::int32_t right = build(mid, end);
      nodes[static_cast<std::size_t>(idx)].left = left;
      nodes[static_cast<std::size_t>(idx)].right = right;
      return idx;
    }
  };
  Builder{nodes_, order, unique_points, dim_, leaf_size}.build(0, static_cast<std::uint32_t>(nu));

  // Gather points and groups into leaf order.
  points_.resize(nu * dim_);
  point_norms_.resize(nu);
  group_offsets_.assign(nu + 1, 0);
  group_rows_.resize(n);
  std::uint32_t out = 0;
  for (std::size_t pos = 0; pos < nu; ++pos) {
    const std::uint32_t uid = order[pos];
    std::copy_n(unique_points.data() + static_cast<std::size_t>(uid) * dim_, dim_,
                points_.data() + pos * dim_);
    point_norms_[pos] = row_norm_sq(points_.data() + pos * dim_, dim_);
    group_offsets_[pos] = out;
    std::copy_n(group_rows.data() + group_begin[uid], group_count[uid],
                group_rows_.data() + out);
    out += group_count[uid];
  }
  group_offsets_[nu] = out;

  bounds_lo_.assign(nodes_.size() * dim_, std::numeric_limits<float>::infinity());
  bounds_hi_.assign(nodes_.size() * dim_, -std::numeric_limits<float>::infinity());
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    float* lo = bounds_lo_.data() + node * dim_;
    float* hi = bounds_hi_.data() + node * dim_;
    for (std::uint32_t p = nodes_[node].begin; p < nodes_[node].end; ++p) {
      const float* point = points_.data() + static_cast<std::size_t>(p) * dim_;
      for (std::size_t d = 0; d < dim_; ++d) {
        lo[d] = std::min(lo[d], point[d]);
        hi[d] = std::max(hi[d], point[d]);
      }
    }
  }
}

// --------------------------------------------------------------- search

// idx/dist are the callers' warm thread_local scratch (see
// KnnClassifier::predict_one): TopK reuses their capacity, so a query
// performs no allocation once a thread has served one.
MCB_HOT_PATH void KnnIndex::search(std::span<const float> query, std::size_t k, double p,
                                   std::vector<std::size_t>& idx,
                                   std::vector<double>& dist) const {
  TopK top(idx, dist, std::min(k, rows()));
  if (idx.empty()) return;  // k == 0 or no rows: nothing to rank
  if (p != 2.0) {
    scan_minkowski(query.data(), p, top);
  } else if (ready() && all_finite(query.data(), query.size())) {
    search_tree(query.data(), idx.size(), top);
  } else {
    scan(query.data(), top);
  }
}

void KnnIndex::search_scalar(std::span<const float> query, std::size_t k, double p,
                             std::vector<std::size_t>& idx,
                             std::vector<double>& dist) const {
  TopK top(idx, dist, std::min(k, rows()));
  if (idx.empty()) return;
  if (p != 2.0) {
    scan_minkowski(query.data(), p, top);
    return;
  }
  for (std::size_t i = 0; i < rows(); ++i) {
    const float* row = data_.data() + i * dim_;
    float dot = 0.0F;
    for (std::size_t j = 0; j < dim_; ++j) dot += row[j] * query[j];
    top.consider(i, static_cast<double>(norms_[i]) - 2.0 * static_cast<double>(dot));
  }
}

MCB_HOT_PATH void KnnIndex::scan(const float* q, TopK& top) const {
  // Squared-distance scan via dot products (monotone in the true
  // distance, so ranking is unaffected).
  const std::size_t n = rows();
  float dots[kScanTile];
  for (std::size_t base = 0; base < n; base += kScanTile) {
    const std::size_t count = std::min(kScanTile, n - base);
    tile_dots(data_.data() + base * dim_, count, dim_, q, dots);
    for (std::size_t i = 0; i < count; ++i) {
      top.consider(base + i, static_cast<double>(norms_[base + i]) -
                                 2.0 * static_cast<double>(dots[i]));
    }
  }
}

void KnnIndex::scan_minkowski(const float* q, double p, TopK& top) const {
  for (std::size_t i = 0; i < rows(); ++i) {
    const float* row = data_.data() + i * dim_;
    double sum = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      sum += std::pow(std::abs(static_cast<double>(row[j]) - q[j]), p);
    }
    top.consider(i, sum);  // comparing sums ~ comparing p-th roots
  }
}

MCB_HOT_PATH double KnnIndex::node_min_dist_sq(std::size_t node, const float* q) const {
  const float* lo = bounds_lo_.data() + node * dim_;
  const float* hi = bounds_hi_.data() + node * dim_;
  double sum = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    double diff = 0.0;
    if (q[d] < lo[d]) {
      diff = static_cast<double>(lo[d]) - q[d];
    } else if (q[d] > hi[d]) {
      diff = static_cast<double>(q[d]) - hi[d];
    }
    sum += diff * diff;
  }
  return sum;
}

MCB_HOT_PATH void KnnIndex::scan_segment(std::uint32_t begin, std::uint32_t end,
                                         const float* q, std::size_t k, TopK& top) const {
  float dots[kScanTile];
  for (std::uint32_t base = begin; base < end; base += kScanTile) {
    const std::size_t count = std::min<std::size_t>(kScanTile, end - base);
    tile_dots(points_.data() + static_cast<std::size_t>(base) * dim_, count, dim_, q, dots);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t u = base + i;
      // Same distance key as scan(): monotone in the true distance; the
      // query norm is constant across rows.
      const double d =
          static_cast<double>(point_norms_[u]) - 2.0 * static_cast<double>(dots[i]);
      const std::uint32_t off = group_offsets_[u];
      const std::uint32_t take =
          std::min<std::uint32_t>(static_cast<std::uint32_t>(k), group_offsets_[u + 1] - off);
      // Duplicates tie on distance, so only the group's first k
      // (lowest) row ids can survive the shared tie-break.
      for (std::uint32_t j = 0; j < take; ++j) {
        top.consider(group_rows_[off + j], d);
      }
    }
  }
}

// Traversal scratch lives in a thread_local vector: after the first few
// queries on a thread the capacity is warm and the tree performs no
// allocation.
MCB_HOT_PATH
// mcb-lint: suppress(R10: warm thread_local scratch — growth amortizes to zero across queries)
void KnnIndex::search_tree(const float* q, std::size_t k, TopK& top) const {
  double query_norm = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) query_norm += static_cast<double>(q[d]) * q[d];
  // Depth-first, nearer child first; prune when a subtree's best
  // possible distance (shifted into the scan's query-norm-free key
  // space) cannot beat the current k-th best even after allowing for
  // kernel rounding slack.
  const auto prunable = [&](double bound_sq) {
    const double tau = top.worst();
    const double slack = kPruneSlackRel * (1.0 + std::abs(query_norm) + std::abs(tau));
    return bound_sq - query_norm > tau + slack;
  };
  thread_local std::vector<std::pair<std::int32_t, double>> stack;
  stack.clear();
  stack.reserve(64);
  stack.emplace_back(0, node_min_dist_sq(0, q));
  while (!stack.empty()) {
    const auto [node_idx, bound] = stack.back();
    stack.pop_back();
    if (prunable(bound)) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_idx)];
    if (node.left < 0) {
      scan_segment(node.begin, node.end, q, k, top);
      continue;
    }
    const double left_bound = node_min_dist_sq(static_cast<std::size_t>(node.left), q);
    const double right_bound = node_min_dist_sq(static_cast<std::size_t>(node.right), q);
    if (left_bound <= right_bound) {
      stack.emplace_back(node.right, right_bound);
      stack.emplace_back(node.left, left_bound);
    } else {
      stack.emplace_back(node.left, left_bound);
      stack.emplace_back(node.right, right_bound);
    }
  }
}

}  // namespace mcb
