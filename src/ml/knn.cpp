#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "ml/top_k.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

namespace {

/// Classes beyond this are a corrupt/hostile model file, not a real
/// MCBound classifier (the paper's taxonomy has two classes): vote()
/// allocates a counter per class, so the header field must be bounded
/// before it is trusted.
constexpr std::uint64_t kMaxClasses = 1ULL << 20;

/// The tree only accelerates the p = 2 dot-product algebra; any other p
/// ranks by the Minkowski scan over the same store.
KnnIndexConfig index_config(const KnnConfig& config) {
  KnnIndexConfig index = config.index;
  if (config.minkowski_p != 2.0) index.mode = KnnIndexMode::kNone;
  return index;
}

}  // namespace

KnnClassifier::KnnClassifier(KnnConfig config) : config_(config) {
  if (config_.k == 0) config_.k = 1;
}

void KnnClassifier::fit(FeatureView x, std::span<const Label> y) {
  if (x.rows != y.size()) throw std::invalid_argument("knn: rows/labels mismatch");
  if (x.rows == 0) throw std::invalid_argument("knn: empty training set");
  std::size_t n_classes = 0;
  for (const Label l : y) {
    if (l < 0) throw std::invalid_argument("knn: negative label");
    n_classes = std::max(n_classes, static_cast<std::size_t>(l) + 1);
  }
  n_classes_ = n_classes;
  labels_.assign(y.begin(), y.end());
  index_.build(x, index_config(config_));
}

MCB_HOT_PATH void KnnClassifier::top_k(std::span<const float> query, bool scalar,
                                       std::vector<std::size_t>& idx,
                                       std::vector<double>& dist) const {
  if (scalar) {
    index_.search_scalar(query, config_.k, config_.minkowski_p, idx, dist);
  } else {
    index_.search(query, config_.k, config_.minkowski_p, idx, dist);
  }
}

Label KnnClassifier::vote(std::span<const std::size_t> idx) const {
  // Majority vote; ties go to the lowest class id (sklearn behaviour).
  // Unfilled slots (kTopKNoRow, possible when every distance was NaN)
  // carry no vote.
  std::vector<std::uint32_t> votes(n_classes_, 0);
  for (const std::size_t i : idx) {
    if (i == kTopKNoRow) continue;
    ++votes[static_cast<std::size_t>(labels_[i])];
  }
  Label best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
  }
  return best;
}

MCB_HOT_PATH Label KnnClassifier::predict_one(std::span<const float> query,
                                              bool scalar) const {
  thread_local std::vector<std::size_t> idx;
  thread_local std::vector<double> dist;
  top_k(query, scalar, idx, dist);
  return vote(idx);
}

std::vector<Label> KnnClassifier::predict_rows(FeatureView x, ThreadPool* pool,
                                               bool scalar) const {
  if (!is_fitted()) throw std::logic_error("knn: predict before fit");
  if (x.cols != dim()) throw std::invalid_argument("knn: query dimension mismatch");
  std::vector<Label> out(x.rows, 0);
  parallel_for_each(
      pool, 0, x.rows, [&](std::size_t i) { out[i] = predict_one(x.row(i), scalar); },
      /*grain=*/8);
  return out;
}

std::vector<Label> KnnClassifier::predict(FeatureView x, ThreadPool* pool) const {
  return predict_rows(x, pool, /*scalar=*/false);
}

std::vector<Label> KnnClassifier::predict_scalar(FeatureView x, ThreadPool* pool) const {
  return predict_rows(x, pool, /*scalar=*/true);
}

std::vector<std::size_t> KnnClassifier::neighbors(std::span<const float> query,
                                                  bool scalar) const {
  if (!is_fitted()) throw std::logic_error("knn: kneighbors before fit");
  if (query.size() != dim()) throw std::invalid_argument("knn: query dimension mismatch");
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  top_k(query, scalar, idx, dist);
  return idx;
}

std::vector<std::size_t> KnnClassifier::kneighbors(std::span<const float> query) const {
  return neighbors(query, /*scalar=*/false);
}

std::vector<std::size_t> KnnClassifier::kneighbors_scalar(std::span<const float> query) const {
  return neighbors(query, /*scalar=*/true);
}

bool KnnClassifier::save(std::ostream& out) const {
  // Refuse to serialize an unfitted model: it would write dim == 0,
  // which load() rejects — a silent success here just defers the
  // failure to whoever tries to read the file back.
  if (!is_fitted()) return false;
  io::write_header(out, io::kKindKnn);
  io::write_pod(out, static_cast<std::uint64_t>(config_.k));
  io::write_pod(out, config_.minkowski_p);
  io::write_pod(out, static_cast<std::uint64_t>(n_classes_));
  index_.save(out);
  io::write_vec(out, labels_);
  return static_cast<bool>(out);
}

bool KnnClassifier::load(std::istream& in) {
  std::uint32_t kind = 0;
  if (!io::read_header(in, kind) || kind != io::kKindKnn) return false;
  std::uint64_t k = 0, n_classes = 0;
  double minkowski_p = 0.0;
  if (!io::read_pod(in, k) || !io::read_pod(in, minkowski_p) || !io::read_pod(in, n_classes)) {
    return false;
  }
  // Every header field is hostile until proven otherwise. The ctor
  // clamps k == 0 but a file bypasses the ctor: k == 0 would build an
  // empty TopK whose dist_.back() is UB. p outside [1, inf) breaks the
  // Minkowski metric axioms (and NaN poisons every comparison).
  // n_classes bounds vote()'s allocation before it happens.
  if (k == 0) return false;
  if (!std::isfinite(minkowski_p) || minkowski_p < 1.0) return false;
  if (n_classes == 0 || n_classes > kMaxClasses) return false;
  // Read into locals and commit only after every check passes, so a
  // rejected stream leaves the model unfitted instead of half-loaded.
  KnnConfig config = config_;
  config.k = static_cast<std::size_t>(k);
  config.minkowski_p = minkowski_p;
  KnnIndex index;
  std::vector<Label> labels;
  if (!index.load(in, index_config(config)) ||
      !io::read_vec(in, labels, io::kMaxVecElems)) {
    return false;
  }
  // One label per stored row.
  if (labels.empty() || labels.size() != index.rows()) return false;
  for (const Label l : labels) {
    // Out-of-range labels would be an OOB write in vote().
    if (l < 0 || static_cast<std::uint64_t>(l) >= n_classes) return false;
  }
  config_ = config;
  n_classes_ = static_cast<std::size_t>(n_classes);
  labels_ = std::move(labels);
  index_ = std::move(index);
  return true;
}

}  // namespace mcb
