// Fuzz/property harness for model deserialization (the attack surface
// behind the PR 6 hardening: k == 0, out-of-range labels, colliding
// kind tags, unbounded allocations).
//
// Properties checked on arbitrary bytes b, for every format the model
// registry reads:
//   P1  KnnClassifier/KnnRegressor/RandomForestClassifier load(b) always
//       returns cleanly (true/false) — never crashes, reads out of
//       bounds, loops, or over-allocates (ASan/UBSan in CI make
//       violations fatal; libFuzzer's malloc limit catches the rest).
//   P2  kind tags are mutually exclusive: at most one loader accepts b
//       (the old KnnRegressor/flat-forest tag collision regression).
//   P3  anything a loader accepts is consistent enough to run: a zero
//       query of the model's own width through predict must not fault —
//       this drives the historical UB sites (empty TopK, vote() OOB,
//       forest child/feature/leaf-table OOB, self-looping trees) on
//       every accepted input.
//   P4  accept → save → load: a loaded model re-serializes to a stream
//       the same loader accepts again (loaders accept nothing they
//       cannot round-trip).
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ml/knn.hpp"
#include "ml/knn_regressor.hpp"
#include "ml/random_forest.hpp"
#include "tests/fuzz_common.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_model_load: property violated: %s\n", what);
    std::abort();
  }
}

}  // namespace

int mcb_fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  int accepted = 0;

  {
    std::istringstream in(bytes);
    mcb::KnnClassifier knn;
    if (knn.load(in)) {  // P1
      ++accepted;
      check(knn.is_fitted(), "P3 accepted classifier is fitted");
      check(knn.config().k >= 1, "P3 accepted classifier has k >= 1");
      check(knn.dim() >= 1, "P3 accepted classifier has dim >= 1");
      const std::vector<float> query(knn.dim(), 0.0F);
      const mcb::FeatureView view{query.data(), 1, knn.dim()};
      const auto pred = knn.predict(view);  // P3: TopK + vote() on file data
      check(pred.size() == 1 && pred[0] >= 0 &&
                static_cast<std::size_t>(pred[0]) < knn.n_classes(),
            "P3 classifier prediction is a valid class");
      check(knn.kneighbors(query).size() == std::min(knn.config().k, knn.train_size()),
            "P3 kneighbors returns min(k, n) slots");
      std::ostringstream out;
      check(knn.save(out), "P4 accepted classifier saves");
      std::istringstream again(out.str());
      mcb::KnnClassifier reloaded;
      check(reloaded.load(again), "P4 classifier save/load round trip");
    }
  }

  {
    std::istringstream in(bytes);
    mcb::KnnRegressor reg;
    if (reg.load(in)) {  // P1
      ++accepted;
      check(reg.is_fitted(), "P3 accepted regressor is fitted");
      check(reg.config().k >= 1, "P3 accepted regressor has k >= 1");
      const std::vector<float> query(reg.dim(), 0.0F);
      (void)reg.predict_one(query);  // P3: TopK + k-division on file data
      std::ostringstream out;
      check(reg.save(out), "P4 accepted regressor saves");
      std::istringstream again(out.str());
      mcb::KnnRegressor reloaded;
      check(reloaded.load(again), "P4 regressor save/load round trip");
    }
  }

  {
    std::istringstream in(bytes);
    mcb::RandomForestClassifier forest;
    if (forest.load(in)) {  // P1
      ++accepted;
      check(forest.is_fitted() && forest.n_classes() >= 1, "P3 accepted forest is usable");
      // n_features is bounded by the binner width load() checked it against.
      const std::vector<float> row(forest.n_features(), 0.0F);
      const mcb::FeatureView view{row.data(), 1, row.size()};
      const auto pred = forest.predict(view);  // P3: traversal on file data
      check(pred.size() == 1 && pred[0] >= 0 &&
                static_cast<std::size_t>(pred[0]) < forest.n_classes(),
            "P3 forest prediction is a valid class");
      check(forest.predict_scalar(view).size() == 1, "P3 scalar path walks the same trees");
      std::ostringstream out;
      check(forest.save(out), "P4 accepted forest saves");
      std::istringstream again(out.str());
      mcb::RandomForestClassifier reloaded;
      check(reloaded.load(again), "P4 forest save/load round trip");
    }
  }

  check(accepted <= 1, "P2 model kind tags are mutually exclusive");
  return 0;
}
