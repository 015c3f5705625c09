#include "ml/knn_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "ml/knn_kernels.hpp"
#include "ml/serialize.hpp"
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

/// Widest row a model file may declare: bounds the allocations a
/// hostile dim field drives before anything else is trusted.
constexpr std::uint64_t kMaxDim = 1ULL << 24;

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

// ---------------------------------------------------------------- build

void KnnIndex::build(FeatureView data, const KnnIndexConfig& config) {
  if (data.rows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("knn index: row ids are 32-bit; 2^32 rows or more");
  }
  *this = KnnIndex();
  dim_ = data.cols;
  // Group byte-identical rows: identical bytes produce identical dot
  // products under any deterministic kernel, so one point stands in for
  // its whole group on every path. The keys view the caller's rows,
  // which outlive this loop. Non-finite rows group by their bytes too.
  const std::size_t row_bytes = dim_ * sizeof(float);
  std::unordered_map<std::string_view, std::uint32_t> seen;
  seen.reserve(data.rows);
  row_point_.resize(data.rows);
  for (std::size_t i = 0; i < data.rows; ++i) {
    const float* row = data.data + i * dim_;
    const auto next_id = static_cast<std::uint32_t>(seen.size());
    const auto [it, inserted] = seen.emplace(
        std::string_view(reinterpret_cast<const char*>(row), row_bytes), next_id);
    if (inserted) points_.insert(points_.end(), row, row + dim_);
    row_point_[i] = it->second;
  }
  index_points(seen.size(), config);
}

void KnnIndex::save(std::ostream& out) const {
  io::write_pod(out, static_cast<std::uint64_t>(dim_));
  io::write_vec(out, points_);
  io::write_vec(out, row_point_);
}

bool KnnIndex::load(std::istream& in, const KnnIndexConfig& config) {
  std::uint64_t dim = 0;
  std::vector<float> points;
  std::vector<std::uint32_t> row_point;
  if (!io::read_pod(in, dim) || dim == 0 || dim > kMaxDim) return false;
  if (!io::read_vec(in, points, io::kMaxVecElems) ||
      !io::read_vec(in, row_point, io::kMaxVecElems)) {
    return false;
  }
  if (points.size() % dim != 0) return false;
  const std::size_t n_points = points.size() / dim;
  for (const std::uint32_t point : row_point) {
    if (point >= n_points) return false;
  }
  *this = KnnIndex();
  dim_ = static_cast<std::size_t>(dim);
  points_ = std::move(points);
  row_point_ = std::move(row_point);
  index_points(n_points, config);
  return true;
}

void KnnIndex::index_points(std::size_t n_points, const KnnIndexConfig& config) {
  stats_.rows = row_point_.size();
  stats_.unique_rows = n_points;
  const bool tree = config.mode == KnnIndexMode::kBoundTree && n_points > 0 &&
                    all_finite(points_.data(), points_.size());
  if (tree) build_tree(n_points, std::max<std::size_t>(config.leaf_size, 1));
  point_norms_.resize(n_points);
  for (std::size_t u = 0; u < n_points; ++u) {
    point_norms_[u] = row_norm_sq(points_.data() + u * dim_, dim_);
  }
  if (!tree) return;

  // Per-point row ids, ascending (rows visited in order).
  group_offsets_.assign(n_points + 1, 0);
  for (const std::uint32_t u : row_point_) ++group_offsets_[u + 1];
  std::partial_sum(group_offsets_.begin(), group_offsets_.end(), group_offsets_.begin());
  std::vector<std::uint32_t> cursor(group_offsets_.begin(), group_offsets_.end() - 1);
  group_rows_.resize(row_point_.size());
  for (std::size_t i = 0; i < row_point_.size(); ++i) {
    group_rows_[cursor[row_point_[i]]++] = static_cast<std::uint32_t>(i);
  }

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
  stats_.mode = config.mode;
  stats_.nodes = nodes_.size();
  for (const Node& node : nodes_) {
    if (node.left < 0) ++stats_.leaves;
  }
}

void KnnIndex::build_tree(std::size_t n_points, std::size_t leaf_size) {
  // Recursive median split over `order`; nodes are appended preorder so
  // children always follow their parent.
  std::vector<std::uint32_t> order(n_points);
  std::iota(order.begin(), order.end(), 0U);
  nodes_.reserve(2 * n_points / leaf_size + 2);
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
      // Zero extent means every remaining point is value-equal (e.g.
      // -0.0 vs 0.0 byte-distinct rows): splitting cannot make
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
  Builder{nodes_, order, points_, dim_, leaf_size}.build(0, static_cast<std::uint32_t>(n_points));

  // Leaf order: position `pos` takes point order[pos]. Renumber the
  // rows' point ids, then move each point along the permutation's
  // cycles, so the reorder needs one spare row, not a second store.
  std::vector<std::uint32_t> renumbered(n_points);
  for (std::size_t pos = 0; pos < n_points; ++pos) {
    renumbered[order[pos]] = static_cast<std::uint32_t>(pos);
  }
  for (std::uint32_t& u : row_point_) u = renumbered[u];
  std::vector<float> held(dim_);
  const auto point = [&](std::size_t u) { return points_.data() + u * dim_; };
  for (std::size_t start = 0; start < n_points; ++start) {
    if (order[start] == start) continue;
    std::copy_n(point(start), dim_, held.data());
    std::size_t pos = start;
    while (order[pos] != start) {
      const std::size_t from = order[pos];
      std::copy_n(point(from), dim_, point(pos));
      order[pos] = static_cast<std::uint32_t>(pos);
      pos = from;
    }
    std::copy_n(held.data(), dim_, point(pos));
    order[pos] = static_cast<std::uint32_t>(pos);
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
    const std::size_t u = row_point_[i];
    const float* row = points_.data() + u * dim_;
    float dot = 0.0F;
    for (std::size_t j = 0; j < dim_; ++j) dot += row[j] * query[j];
    top.consider(i, static_cast<double>(point_norms_[u]) - 2.0 * static_cast<double>(dot));
  }
}

MCB_HOT_PATH void KnnIndex::scan(const float* q, TopK& top) const {
  // Squared-distance scan via dot products (monotone in the true
  // distance, so ranking is unaffected): one distance per training row,
  // in row order — the brute-force reference the tree is measured
  // against.
  for (std::size_t i = 0; i < rows(); ++i) {
    const std::size_t u = row_point_[i];
    const float dot = row_dot(points_.data() + u * dim_, q, dim_);
    top.consider(i, static_cast<double>(point_norms_[u]) - 2.0 * static_cast<double>(dot));
  }
}

void KnnIndex::scan_minkowski(const float* q, double p, TopK& top) const {
  for (std::size_t i = 0; i < rows(); ++i) {
    const float* row = points_.data() + static_cast<std::size_t>(row_point_[i]) * dim_;
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
  for (std::uint32_t u = begin; u < end; ++u) {
    // Same distance key as scan(): monotone in the true distance; the
    // query norm is constant across rows.
    const float dot = row_dot(points_.data() + static_cast<std::size_t>(u) * dim_, q, dim_);
    const double d = static_cast<double>(point_norms_[u]) - 2.0 * static_cast<double>(dot);
    const std::uint32_t off = group_offsets_[u];
    const std::uint32_t take =
        std::min<std::uint32_t>(static_cast<std::uint32_t>(k), group_offsets_[u + 1] - off);
    // Duplicates tie on distance, so only the group's first k (lowest)
    // row ids can survive the shared tie-break.
    for (std::uint32_t j = 0; j < take; ++j) {
      top.consider(group_rows_[off + j], d);
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
