// Neighbor store behind the KNN classifier and regressor (DESIGN.md §11).
//
// Owns the training rows (with their p = 2 norms) and answers every
// top-k query over them. For p = 2 it layers two exactness-preserving
// accelerations on top of the brute-force scan:
//
//  1. Exact-duplicate grouping. HPC traces submit the same job text
//     thousands of times (Fugaku jobs arrive in batches of identical
//     jobs, §V-C), and the hashed encoder maps identical feature
//     strings to identical byte rows. The index groups byte-equal rows
//     once at build time, computes each distance once per *unique*
//     point, and expands a group to its first min(k, group size)
//     original row ids — exactly the rows a sequential scan would have
//     kept, since duplicates tie on distance and the shared TopK breaks
//     ties toward the lower row id.
//
//  2. A bounding-box tree (k-d style, modeled on mlpack/THOR's
//     DHrectBound traversal) over the unique points: every node stores
//     a per-dimension hyperrectangle; traversal descends the nearer
//     child first and skips any subtree whose minimum possible distance
//     already exceeds the current k-th best.
//
// Bit-compatibility contract: leaf sweeps compute distances with the
// same tile_dots kernel and the same `||x||^2 - 2 q.x` expression as the
// tiled scan, candidates go through the shared TopK (ties toward the
// lower original row id), and pruning compares the geometric lower
// bound against the k-th best with a conservative slack, so the tree
// returns the identical neighbor set — the equivalence suite in
// tests/test_knn_index.cpp asserts it on duplicates, ties, narrow dims
// and tile-boundary shapes.
//
// Queries or training matrices with non-finite values fall outside the
// pruning algebra (NaN poisons box distances): build() skips the tree
// on non-finite data and search() sends non-finite queries to the tiled
// scan, so search() always answers and behaves identically on those
// inputs. The general-p Minkowski scan and the scalar reference scan
// read the same rows.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"

namespace mcb {

class TopK;

enum class KnnIndexMode : std::uint8_t {
  kNone = 0,      ///< no tree; always scan
  kBoundTree = 1, ///< exact bounding-box tree (default)
};

const char* knn_index_mode_name(KnnIndexMode mode) noexcept;

/// Inverse of knn_index_mode_name ("none"/"tree"), for config files.
std::optional<KnnIndexMode> parse_knn_index_mode(std::string_view name) noexcept;

struct KnnIndexConfig {
  KnnIndexMode mode = KnnIndexMode::kBoundTree;
  /// Training sets smaller than this keep the brute-force scan: the
  /// tree's traversal overhead only pays for itself at scale.
  std::size_t min_rows = 512;
  std::size_t leaf_size = 64;      ///< max unique points per tree leaf
};

struct KnnIndexStats {
  KnnIndexMode mode = KnnIndexMode::kNone;
  std::size_t rows = 0;         ///< original training rows
  std::size_t unique_rows = 0;  ///< byte-distinct rows indexed
  std::size_t nodes = 0;        ///< tree nodes
  std::size_t leaves = 0;       ///< tree leaves
};

class KnnIndex {
 public:
  /// Store a copy of the row-major matrix, then build the tree over it
  /// when config.mode is kBoundTree, the matrix has at least
  /// config.min_rows rows and every value is finite (ready() reports
  /// which). search() answers either way.
  void build(FeatureView data, const KnnIndexConfig& config);

  /// True when the tree serves finite p = 2 queries.
  bool ready() const noexcept { return stats_.mode != KnnIndexMode::kNone; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t rows() const noexcept { return norms_.size(); }
  /// The stored rows, row-major rows() x dim().
  const std::vector<float>& data() const noexcept { return data_; }
  const KnnIndexStats& stats() const noexcept { return stats_; }

  /// Top-k rows nearest to `query` (query.size() must equal dim()),
  /// ascending by distance with ties toward the lower row id; unfilled
  /// slots hold kTopKNoRow. For p = 2 the key is the scan's
  /// `||x||^2 - 2 q.x` (query norm omitted — constant across rows, so
  /// the ranking is unchanged), answered by the tree when ready() and
  /// the query is finite, else by the tiled scan. Any other p ranks by
  /// the Minkowski sum of |x - q|^p.
  void search(std::span<const float> query, std::size_t k, double p,
              std::vector<std::size_t>& idx, std::vector<double>& dist) const;

  /// Scalar reference for search(): one row at a time, serial-reduction
  /// dot for p = 2. Kept for equivalence tests and the bench_fig8
  /// speedup measurement.
  void search_scalar(std::span<const float> query, std::size_t k, double p,
                     std::vector<std::size_t>& idx, std::vector<double>& dist) const;

  void clear();

 private:
  struct Node {
    std::int32_t left = -1;    ///< child node index; -1 = leaf
    std::int32_t right = -1;
    std::uint32_t begin = 0;   ///< unique-point range [begin, end)
    std::uint32_t end = 0;
  };

  /// Groups byte-equal rows, builds the median-split tree over the
  /// unique points and gathers them into leaf order.
  void build_tree(std::size_t leaf_size);
  double node_min_dist_sq(std::size_t node, const float* q) const;
  void search_tree(const float* q, std::size_t k, TopK& top) const;
  void scan_segment(std::uint32_t begin, std::uint32_t end, const float* q,
                    std::size_t k, TopK& top) const;
  void scan(const float* q, TopK& top) const;
  void scan_minkowski(const float* q, double p, TopK& top) const;

  std::size_t dim_ = 0;
  std::vector<float> data_;   ///< training rows, rows() x dim
  std::vector<float> norms_;  ///< ||x||^2 per training row

  // Tree over the unique points, reordered into contiguous leaf
  // segments; children always follow their parent.
  KnnIndexStats stats_;
  std::vector<float> points_;              ///< unique_rows x dim
  std::vector<float> point_norms_;         ///< ||x||^2 per unique point
  std::vector<std::uint32_t> group_offsets_;  ///< unique_rows + 1, into group_rows_
  std::vector<std::uint32_t> group_rows_;  ///< original row ids, ascending per group
  std::vector<Node> nodes_;
  std::vector<float> bounds_lo_;           ///< nodes x dim
  std::vector<float> bounds_hi_;           ///< nodes x dim
};

}  // namespace mcb
