// Neighbor store behind the KNN classifier and regressor (DESIGN.md §11).
//
// One store: the training set's byte-distinct rows ("points", with their
// p = 2 norms) plus one point id per row. Fugaku jobs arrive in batches
// of identical jobs (§V-C) and the hashed encoder maps identical feature
// strings to identical bytes, so a window holds far fewer points than
// rows. build() groups the rows in one pass over the caller's matrix and
// save()/load() carry the same store, so no row is held or written twice.
//
// Every scan (p = 2, Minkowski, scalar reference) computes one distance
// per row, in row order, reading row i through its point. For finite
// p = 2 data the store also builds a bounding-box tree (k-d style,
// modeled on mlpack/THOR's DHrectBound traversal) over the points: a
// query descends the nearer child first and skips any subtree whose
// minimum possible distance already exceeds the current k-th best. A
// leaf computes one distance per point and expands it to the point's
// first min(k, group size) row ids — exactly the rows a sequential scan
// keeps, since duplicates tie on distance and the shared TopK breaks
// ties toward the lower row id.
//
// Bit-compatibility contract: leaf sweeps compute distances with the
// same row_dot kernel and the same `||x||^2 - 2 q.x` expression as the
// scan, candidates go through the shared TopK, and pruning compares the
// geometric lower bound against the k-th best with a conservative
// slack, so the tree returns the identical neighbor set — the
// equivalence suite in tests/test_knn_index.cpp asserts it on
// duplicates, ties, narrow dims and tile-boundary shapes.
//
// Non-finite values fall outside the pruning algebra (NaN poisons box
// distances): the tree is skipped on non-finite data and search() sends
// non-finite queries to the scan, so search() always answers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace mcb {

class TopK;

enum class KnnIndexMode : std::uint8_t {
  kNone = 0,      ///< no tree; always scan
  kBoundTree = 1, ///< exact bounding-box tree (default)
};

const char* knn_index_mode_name(KnnIndexMode mode) noexcept;

struct KnnIndexConfig {
  KnnIndexMode mode = KnnIndexMode::kBoundTree;
  std::size_t leaf_size = 64;  ///< max points per tree leaf
};

struct KnnIndexStats {
  KnnIndexMode mode = KnnIndexMode::kNone;  ///< kNone: every query scans
  std::size_t rows = 0;         ///< training rows
  std::size_t unique_rows = 0;  ///< byte-distinct rows (stored points)
  std::size_t nodes = 0;        ///< tree nodes
  std::size_t leaves = 0;       ///< tree leaves
};

class KnnIndex {
 public:
  /// Store the row-major matrix as its distinct rows plus one point id
  /// per row, then build the tree over the points when config.mode is
  /// kBoundTree and every value is finite (ready() reports which).
  /// search() answers either way. Row ids are 32-bit: throws
  /// std::length_error for 2^32 rows or more.
  void build(FeatureView data, const KnnIndexConfig& config);

  /// Write the store: dim (u64), the points (vector<float>, point count
  /// x dim) and each row's point id (vector<u32>, one per row).
  void save(std::ostream& out) const;

  /// Read what save() wrote — rejecting a dim of 0 or above 2^24, a
  /// point block that is not whole dim-wide rows, and a point id past
  /// the point count — then rebuild the tree as build() would. Returns
  /// false and leaves the store unchanged on a rejected stream.
  bool load(std::istream& in, const KnnIndexConfig& config);

  /// True when the tree serves finite p = 2 queries.
  bool ready() const noexcept { return stats_.mode != KnnIndexMode::kNone; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t rows() const noexcept { return row_point_.size(); }
  const KnnIndexStats& stats() const noexcept { return stats_; }

  /// Top-k rows nearest to `query` (query.size() must equal dim()),
  /// ascending by distance with ties toward the lower row id; unfilled
  /// slots hold kTopKNoRow. For p = 2 the key is the scan's
  /// `||x||^2 - 2 q.x` (query norm omitted — constant across rows, so
  /// the ranking is unchanged), answered by the tree when ready() and
  /// the query is finite, else by the scan. Any other p ranks by
  /// the Minkowski sum of |x - q|^p.
  void search(std::span<const float> query, std::size_t k, double p,
              std::vector<std::size_t>& idx, std::vector<double>& dist) const;

  /// Scalar reference for search(): one row at a time, serial-reduction
  /// dot for p = 2. Kept for equivalence tests and the bench_fig8
  /// speedup measurement.
  void search_scalar(std::span<const float> query, std::size_t k, double p,
                     std::vector<std::size_t>& idx, std::vector<double>& dist) const;

 private:
  struct Node {
    std::int32_t left = -1;    ///< child node index; -1 = leaf
    std::int32_t right = -1;
    std::uint32_t begin = 0;   ///< point range [begin, end)
    std::uint32_t end = 0;
  };

  /// From points_ and row_point_: the norms, and for a finite tree-mode
  /// store the tree, the groups and the bounds.
  void index_points(std::size_t n_points, const KnnIndexConfig& config);
  /// Median-split tree over the points; reorders points_ into leaf
  /// order in place and renumbers row_point_ to match.
  void build_tree(std::size_t n_points, std::size_t leaf_size);
  double node_min_dist_sq(std::size_t node, const float* q) const;
  void search_tree(const float* q, std::size_t k, TopK& top) const;
  void scan_segment(std::uint32_t begin, std::uint32_t end, const float* q,
                    std::size_t k, TopK& top) const;
  void scan(const float* q, TopK& top) const;
  void scan_minkowski(const float* q, double p, TopK& top) const;

  std::size_t dim_ = 0;
  KnnIndexStats stats_;
  std::vector<float> points_;               ///< distinct rows, points x dim
  std::vector<float> point_norms_;          ///< ||x||^2 per point
  std::vector<std::uint32_t> row_point_;    ///< point id per training row

  // Tree state (empty without a tree): points_ is in leaf order, each
  // leaf a contiguous segment; children always follow their parent.
  std::vector<std::uint32_t> group_offsets_;  ///< points + 1, into group_rows_
  std::vector<std::uint32_t> group_rows_;  ///< row ids, ascending per point
  std::vector<Node> nodes_;
  std::vector<float> bounds_lo_;           ///< nodes x dim
  std::vector<float> bounds_hi_;           ///< nodes x dim
};

}  // namespace mcb
