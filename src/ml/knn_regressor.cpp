#include "ml/knn_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "ml/top_k.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

KnnRegressor::KnnRegressor(KnnRegressorConfig config) : config_(config) {
  if (config_.k == 0) config_.k = 1;
}

void KnnRegressor::fit(FeatureView x, std::span<const double> y) {
  if (x.rows != y.size()) throw std::invalid_argument("knn_regressor: rows/targets mismatch");
  if (x.rows == 0) throw std::invalid_argument("knn_regressor: empty training set");
  targets_.assign(y.begin(), y.end());
  index_.build(x, config_.index);
}

double KnnRegressor::predict_one(std::span<const float> query) const {
  thread_local std::vector<std::size_t> idx;
  thread_local std::vector<double> dist;
  // Neighbor distances use the scan's query-norm-free key
  // ||x||^2 - 2 q.x (the query norm is constant across rows, so the
  // ranking is unchanged); it is added back below only where the true
  // squared distance matters, in the 1/d weights.
  index_.search(query, config_.k, /*p=*/2.0, idx, dist);

  if (!config_.distance_weighted) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const std::size_t i : idx) {
      if (i == kTopKNoRow) continue;  // no admissible neighbor (NaN query)
      sum += targets_[i];
      ++count;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  // Inverse-distance weighting; exact matches dominate (epsilon floor).
  double query_norm = 0.0;
  for (const float q : query) query_norm += static_cast<double>(q) * q;
  double weighted = 0.0, total_weight = 0.0;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    if (idx[j] == kTopKNoRow) continue;
    const double w = 1.0 / (std::sqrt(std::max(dist[j] + query_norm, 0.0)) + 1e-9);
    weighted += w * targets_[idx[j]];
    total_weight += w;
  }
  return total_weight > 0.0 ? weighted / total_weight : 0.0;
}

std::vector<double> KnnRegressor::predict(FeatureView x, ThreadPool* pool) const {
  if (!is_fitted()) throw std::logic_error("knn_regressor: predict before fit");
  if (x.cols != dim()) throw std::invalid_argument("knn_regressor: dimension mismatch");
  std::vector<double> out(x.rows, 0.0);
  parallel_for_each(
      pool, 0, x.rows, [&](std::size_t i) { out[i] = predict_one(x.row(i)); },
      /*grain=*/8);
  return out;
}

bool KnnRegressor::save(std::ostream& out) const {
  if (!is_fitted()) return false;
  io::write_header(out, io::kKindKnnRegressor);
  io::write_pod(out, static_cast<std::uint64_t>(config_.k));
  // Serialized as uint8_t: reading an arbitrary file byte into a C++
  // bool is UB for values other than 0/1 (UBSan "invalid bool load").
  io::write_pod(out, static_cast<std::uint8_t>(config_.distance_weighted ? 1 : 0));
  index_.save(out);
  io::write_vec(out, targets_);
  return static_cast<bool>(out);
}

bool KnnRegressor::load(std::istream& in) {
  std::uint32_t kind = 0;
  if (!io::read_header(in, kind) || kind != io::kKindKnnRegressor) return false;
  std::uint64_t k = 0;
  std::uint8_t distance_weighted = 0;
  if (!io::read_pod(in, k) || !io::read_pod(in, distance_weighted)) return false;
  // k == 0 from a file would build an empty TopK (dist_.back() UB) and
  // divide by zero in the unweighted mean; the ctor clamp does not
  // protect this path. The flag byte must be a canonical bool.
  if (k == 0) return false;
  if (distance_weighted > 1) return false;
  KnnIndex index;
  std::vector<double> targets;
  if (!index.load(in, config_.index) || !io::read_vec(in, targets, io::kMaxVecElems)) {
    return false;
  }
  // One target per stored row.
  if (targets.empty() || targets.size() != index.rows()) return false;
  config_.k = static_cast<std::size_t>(k);
  config_.distance_weighted = distance_weighted != 0;
  targets_ = std::move(targets);
  index_ = std::move(index);
  return true;
}

RegressionMetrics evaluate_regression(std::span<const double> truth,
                                      std::span<const double> predicted) {
  RegressionMetrics metrics;
  const std::size_t n = std::min(truth.size(), predicted.size());
  if (n == 0) return metrics;
  double abs_sum = 0.0, pct_sum = 0.0, mean = 0.0;
  std::size_t pct_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    abs_sum += std::abs(truth[i] - predicted[i]);
    if (truth[i] > 0.0) {
      pct_sum += std::abs(truth[i] - predicted[i]) / truth[i];
      ++pct_n;
    }
    mean += truth[i];
  }
  mean /= static_cast<double>(n);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  metrics.mae = abs_sum / static_cast<double>(n);
  metrics.mape = pct_n > 0 ? pct_sum / static_cast<double>(pct_n) : 0.0;
  metrics.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
  metrics.n = n;
  return metrics;
}

}  // namespace mcb
