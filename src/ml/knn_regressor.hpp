// k-Nearest-Neighbors regressor — the paper's §VI future-work claim:
// "the KNN finds the most similar jobs regardless of the target feature,
// hence we can easily adapt the framework for the prediction of multiple
// features without having to rely on different predictive models."
// Predicting a job's duration or power consumption before execution is
// the same neighbor search as the memory/compute classifier with the
// vote replaced by a (optionally distance-weighted) mean of the
// neighbors' target values.
//
// The neighbor search is the classifier's own neighbor store (KnnIndex:
// each distinct row once, the pruned spatial index and the scan behind
// one TopK tie-break), so classifier and regressor pick identical
// neighbor sets for identical data by construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/knn_index.hpp"

namespace mcb {

class ThreadPool;

struct KnnRegressorConfig {
  std::size_t k = 5;
  bool distance_weighted = false;  ///< 1/d weights instead of uniform mean
  /// Spatial-index settings; mode = kNone forces the brute-force scan.
  KnnIndexConfig index;
};

class KnnRegressor {
 public:
  explicit KnnRegressor(KnnRegressorConfig config = {});

  void fit(FeatureView x, std::span<const double> y);
  bool is_fitted() const noexcept { return !targets_.empty(); }
  std::size_t train_size() const noexcept { return targets_.size(); }
  std::size_t dim() const noexcept { return index_.dim(); }
  const KnnRegressorConfig& config() const noexcept { return config_; }

  /// The neighbor store (ready() is false when queries scan).
  const KnnIndex& index() const noexcept { return index_; }

  double predict_one(std::span<const float> query) const;
  std::vector<double> predict(FeatureView x, ThreadPool* pool = nullptr) const;

  bool save(std::ostream& out) const;
  bool load(std::istream& in);

 private:
  KnnRegressorConfig config_;
  std::vector<double> targets_;
  KnnIndex index_;
};

/// Regression quality metrics for the future-work benches.
struct RegressionMetrics {
  double mae = 0.0;   ///< mean absolute error
  double mape = 0.0;  ///< mean absolute percentage error (targets > 0 only)
  double r2 = 0.0;    ///< coefficient of determination
  std::size_t n = 0;
};

RegressionMetrics evaluate_regression(std::span<const double> truth,
                                      std::span<const double> predicted);

}  // namespace mcb
