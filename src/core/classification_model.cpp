#include "core/classification_model.hpp"

#include "util/thread_pool.hpp"

namespace mcb {

const std::vector<std::string>& boundedness_class_names() {
  static const std::vector<std::string> names = {"memory-bound", "compute-bound"};
  return names;
}

std::optional<ModelKind> parse_model_kind(const std::string& name) {
  if (name == "knn" || name == "KNN") return ModelKind::kKnn;
  if (name == "rf" || name == "RF" || name == "random_forest") return ModelKind::kRandomForest;
  return std::nullopt;
}

const char* model_kind_name(ModelKind kind) noexcept {
  return kind == ModelKind::kKnn ? "knn" : "random_forest";
}

ClassificationModel::ClassificationModel(ModelKind kind, KnnConfig knn_config,
                                         RandomForestConfig rf_config)
    : kind_(kind) {
  if (kind == ModelKind::kKnn) {
    classifier_ = std::make_unique<KnnClassifier>(knn_config);
  } else {
    classifier_ = std::make_unique<RandomForestClassifier>(rf_config);
  }
}

void ClassificationModel::training(FeatureView x, std::span<const Label> y,
                                   ThreadPool* pool) {
  if (kind_ == ModelKind::kRandomForest) {
    static_cast<RandomForestClassifier*>(classifier_.get())->set_training_pool(pool);
  }
  classifier_->fit(x, y);
}

std::vector<Label> ClassificationModel::inference(FeatureView x, ThreadPool* pool) const {
  return classifier_->predict(x, pool);
}

const KnnIndexStats* ClassificationModel::knn_index_stats() const noexcept {
  if (kind_ != ModelKind::kKnn || !is_trained()) return nullptr;
  // kind_ == kKnn pins the concrete type (see the constructor).
  return &static_cast<const KnnClassifier*>(classifier_.get())->index().stats();
}

}  // namespace mcb
