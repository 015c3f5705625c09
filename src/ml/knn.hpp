// k-Nearest-Neighbors classifier (paper §III-D "KNN").
//
// Mirrors scikit-learn's KNeighborsClassifier defaults: k = 5, Minkowski
// distance with p = 2, majority vote with ties broken toward the lower
// class id. Training only stores the data ("just building a model
// instance", §V-C); all the work happens at inference.
//
// The rows live in a KnnIndex (ml/knn_index.hpp), the one neighbor store
// the classifier shares with the KNN regressor: each distinct row once,
// plus one point id per training row. The classifier adds only the
// labels and the majority vote. The store's scan is brute force: for
// p = 2 it expands ||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2 over
// precomputed norms, turning the scan into a GEMV-shaped dot-product
// sweep. The kernel (ml/knn_kernels.hpp) computes each dot with four
// independent float accumulators: a naive serial reduction is a single
// FP-add dependence chain the compiler may not legally vectorize (float
// addition is not associative), so four chains pipeline the add latency
// and unlock SLP vectorization. For general p the direct Minkowski sum
// is used. With config.index.mode = kBoundTree (the default) and finite
// data, p = 2 queries go through the store's pruned spatial index
// instead; the shared TopK tie-break keeps both paths bit-identical.
// Queries are embarrassingly parallel across the thread pool. The
// scalar reference scan is kept (and exposed) so tests can assert the
// fast paths return identical neighbor indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/knn_index.hpp"

namespace mcb {

struct KnnConfig {
  std::size_t k = 5;
  double minkowski_p = 2.0;
  /// Spatial-index settings; mode = kNone forces the brute-force scan.
  KnnIndexConfig index;
};

class KnnClassifier final : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig config = {});

  void fit(FeatureView x, std::span<const Label> y) override;

  /// Batched prediction: spatial index when built, else the tiled p=2
  /// kernel (general p falls back to the direct Minkowski scan).
  std::vector<Label> predict(FeatureView x, ThreadPool* pool = nullptr) const override;

  /// Scalar reference path (one row at a time, serial-reduction dot).
  /// Kept for equivalence tests and the bench_fig8 speedup measurement.
  std::vector<Label> predict_scalar(FeatureView x, ThreadPool* pool = nullptr) const;

  bool is_fitted() const noexcept override { return !labels_.empty(); }
  std::string name() const override { return "knn"; }
  std::size_t n_classes() const noexcept override { return n_classes_; }
  std::size_t train_size() const noexcept { return labels_.size(); }
  std::size_t dim() const noexcept { return index_.dim(); }
  const KnnConfig& config() const noexcept { return config_; }

  /// The neighbor store (ready() is false when queries scan).
  const KnnIndex& index() const noexcept { return index_; }

  /// Indices of the k nearest training rows to `query` (ascending
  /// distance; kTopKNoRow pads slots no admissible candidate filled,
  /// e.g. non-finite queries). Throws on a query whose width is not
  /// dim(). Exposed for tests and for the future-work "similar jobs"
  /// use cases the paper sketches (§VI).
  std::vector<std::size_t> kneighbors(std::span<const float> query) const;

  /// Scalar-scan counterpart of kneighbors (reference for tests).
  std::vector<std::size_t> kneighbors_scalar(std::span<const float> query) const;

  bool save(std::ostream& out) const override;
  bool load(std::istream& in) override;

 private:
  std::vector<Label> predict_rows(FeatureView x, ThreadPool* pool, bool scalar) const;
  Label predict_one(std::span<const float> query, bool scalar) const;
  std::vector<std::size_t> neighbors(std::span<const float> query, bool scalar) const;
  void top_k(std::span<const float> query, bool scalar, std::vector<std::size_t>& idx,
             std::vector<double>& dist) const;
  Label vote(std::span<const std::size_t> idx) const;

  KnnConfig config_;
  std::size_t n_classes_ = 0;
  std::vector<Label> labels_;
  KnnIndex index_;
};

}  // namespace mcb
