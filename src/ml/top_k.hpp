// Shared top-k selection buffer for every KNN path (scalar scan, tiled
// scan, Minkowski scan and the spatial index).
//
// A size-k sorted insertion buffer: k is tiny (default 5) so the shift
// is cheaper than heap bookkeeping. Candidates are ordered by the pair
// (distance, row id) — on equal distance the *lower original row id*
// wins. For a sequential 0..n-1 scan that is exactly the historical
// "first-seen row wins" behaviour, and because the ordering no longer
// depends on visit order, any traversal (such as the tree descent)
// that considers the same candidate set produces bit-identical results.
// This order-independence is the contract that lets knn_index prune
// without changing predictions (DESIGN.md §11).
//
// NaN distances are never admitted (every comparison against NaN is
// false), so a poisoned candidate cannot make the outcome depend on the
// order in which rows were visited. Slots never filled keep the
// kTopKNoRow sentinel; consumers must skip it.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "util/annotations.hpp"

namespace mcb {

/// Sentinel row id for top-k slots that were never filled (fewer than k
/// admissible candidates, e.g. all-NaN distances).
inline constexpr std::size_t kTopKNoRow = std::numeric_limits<std::size_t>::max();

class TopK {
 public:
  TopK(std::vector<std::size_t>& idx, std::vector<double>& dist, std::size_t k)
      : idx_(idx), dist_(dist), k_(k) {
    idx_.assign(k, kTopKNoRow);
    dist_.assign(k, std::numeric_limits<double>::infinity());
  }

  /// Lexicographic (distance, row) ordering; the sentinel's row id is
  /// the maximum so real candidates displace unfilled slots even at
  /// d == +inf. NaN loses every comparison and is never inserted.
  static bool better(double d, std::size_t row, double incumbent_d,
                     std::size_t incumbent_row) noexcept {
    return d < incumbent_d || (d == incumbent_d && row < incumbent_row);
  }

  MCB_HOT_PATH void consider(std::size_t row, double d) {
    if (!better(d, row, dist_.back(), idx_.back())) return;
    std::size_t pos = k_ - 1;
    while (pos > 0 && better(d, row, dist_[pos - 1], idx_[pos - 1])) {
      dist_[pos] = dist_[pos - 1];
      idx_[pos] = idx_[pos - 1];
      --pos;
    }
    dist_[pos] = d;
    idx_[pos] = row;
  }

  /// Worst admitted distance — the pruning bound for index traversals.
  double worst() const noexcept { return dist_.back(); }

 private:
  std::vector<std::size_t>& idx_;
  std::vector<double>& dist_;
  std::size_t k_;
};

}  // namespace mcb
