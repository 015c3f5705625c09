// Classification Model component (paper §III-D): a named wrapper around
// a concrete prediction algorithm, exposing the paper's `training` and
// `inference` methods plus persistence. The label convention is
// memory-bound = 0, compute-bound = 1 throughout the framework.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "roofline/characterizer.hpp"

namespace mcb {

inline constexpr Label kLabelMemoryBound = 0;
inline constexpr Label kLabelComputeBound = 1;
inline constexpr std::size_t kNumBoundednessClasses = 2;

inline Label to_label(Boundedness b) noexcept {
  return b == Boundedness::kComputeBound ? kLabelComputeBound : kLabelMemoryBound;
}
inline Boundedness to_boundedness(Label l) noexcept {
  return l == kLabelComputeBound ? Boundedness::kComputeBound : Boundedness::kMemoryBound;
}

/// Class names indexed by Label, for reports.
const std::vector<std::string>& boundedness_class_names();

enum class ModelKind { kKnn, kRandomForest };

std::optional<ModelKind> parse_model_kind(const std::string& name);
const char* model_kind_name(ModelKind kind) noexcept;

class ClassificationModel {
 public:
  /// Construct with the named algorithm (paper: "the initialization
  /// method takes as input the name of the algorithm to employ").
  explicit ClassificationModel(ModelKind kind, KnnConfig knn_config = {},
                               RandomForestConfig rf_config = {});

  ModelKind kind() const noexcept { return kind_; }
  std::string name() const { return classifier_->name(); }
  bool is_trained() const noexcept { return classifier_->is_fitted(); }

  /// Train on encoded job data + labels (paper's `training` method).
  void training(FeatureView x, std::span<const Label> y, ThreadPool* pool = nullptr);

  /// Predict labels for encoded, unseen jobs (paper's `inference`
  /// method; only valid after training).
  std::vector<Label> inference(FeatureView x, ThreadPool* pool = nullptr) const;

  Classifier& classifier() noexcept { return *classifier_; }
  const Classifier& classifier() const noexcept { return *classifier_; }

  /// Stats of a fitted KNN model's neighbor store (DESIGN.md §11): its
  /// rows, its distinct rows and its tree (mode kNone when queries
  /// scan). nullptr when the model is not KNN or not fitted.
  const KnnIndexStats* knn_index_stats() const noexcept;

  bool save(std::ostream& out) const { return classifier_->save(out); }
  bool load(std::istream& in) { return classifier_->load(in); }

 private:
  ModelKind kind_;
  std::unique_ptr<Classifier> classifier_;
};

}  // namespace mcb
