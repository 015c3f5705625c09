// §V-B overhead micro-benchmarks (google-benchmark): per-job cost of
// characterization, encoding, KNN/RF inference and model (de)serialization.
// Paper reference numbers (64-core EPYC 7302, Python):
//   characterization ~1e-6 s/job, SBERT encoding ~2e-3 s/job,
//   RF inference ~2e-6 s/job (model only).
#include <benchmark/benchmark.h>

#include <sstream>

#include "core/feature_encoder.hpp"
#include "data/job_store.hpp"
#include "core/classification_model.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace.hpp"
#include "roofline/characterizer.hpp"
#include "text/embedding_cache.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mcb;

const std::vector<JobRecord>& sample_jobs() {
  static const std::vector<JobRecord> jobs = [] {
    WorkloadGenerator generator(scaled_workload_config(50.0, 15));
    return generator.generate();
  }();
  return jobs;
}

void BM_Characterize(benchmark::State& state) {
  const Characterizer characterizer(fugaku_node_spec());
  const auto& jobs = sample_jobs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(characterizer.characterize(jobs[i++ % jobs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("paper: ~1e-6 s/job");
}
BENCHMARK(BM_Characterize);

void BM_FeatureString(benchmark::State& state) {
  const FeatureEncoder encoder;
  const auto& jobs = sample_jobs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.feature_string(jobs[i++ % jobs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureString);

void BM_Encode(benchmark::State& state) {
  const FeatureEncoder encoder;
  const auto& jobs = sample_jobs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(jobs[i++ % jobs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("paper (SBERT): ~2e-3 s/job");
}
BENCHMARK(BM_Encode);

/// Train-once fixtures for inference benchmarks.
struct TrainedModels {
  FeatureMatrix train_x{0, 0};
  std::vector<Label> train_y;
  FeatureMatrix query{0, 0};
  FeatureMatrix batch{0, 0};  ///< 512-row slice for the batched kernels
  ClassificationModel knn{ModelKind::kKnn};
  ClassificationModel rf{ModelKind::kRandomForest};
  RandomForestClassifier rf_raw;  ///< concrete handles expose the scalar
  KnnClassifier knn_raw;          ///< reference paths for comparison (index off)
  KnnClassifier knn_indexed;      ///< pruned spatial index (DESIGN.md §11)

  TrainedModels() {
    const FeatureEncoder encoder;
    const Characterizer characterizer(fugaku_node_spec());
    const auto& jobs = sample_jobs();
    const std::size_t n = std::min<std::size_t>(jobs.size(), 4000);
    std::vector<JobRecord> subset(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(n));
    train_x = encoder.encode_batch(subset);
    for (const auto& job : subset) {
      train_y.push_back(to_label(*characterizer.characterize(job)));
    }
    knn.training(train_x.view(), train_y);
    RandomForestConfig rf_config;
    rf_config.n_trees = 100;
    rf_config.tree.max_features = 48;
    rf = ClassificationModel(ModelKind::kRandomForest, {}, rf_config);
    rf.training(train_x.view(), train_y);
    rf_raw = RandomForestClassifier(rf_config);
    rf_raw.fit(train_x.view(), train_y);
    // knn_raw must stay a pure scan so the BatchScalar/BatchTiled
    // benchmarks keep measuring the kernels, not the index.
    KnnConfig scan_config;
    scan_config.index.mode = KnnIndexMode::kNone;
    knn_raw = KnnClassifier(scan_config);
    knn_raw.fit(train_x.view(), train_y);
    knn_indexed.fit(train_x.view(), train_y);
    query = FeatureMatrix(1, encoder.dim());
    const auto source = train_x.view().row(7);
    std::copy(source.begin(), source.end(), query.row(0));
    const std::size_t batch_rows = std::min<std::size_t>(n, 512);
    batch = FeatureMatrix(batch_rows, encoder.dim());
    for (std::size_t i = 0; i < batch_rows; ++i) {
      const auto row = train_x.view().row(i);
      std::copy(row.begin(), row.end(), batch.row(i));
    }
  }
};

TrainedModels& models() {
  static TrainedModels m;
  return m;
}

void BM_KnnInference(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.knn.inference(m.query.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("scan over 4000x384 train matrix");
}
BENCHMARK(BM_KnnInference);

void BM_RfInference(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.rf.inference(m.query.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("paper: ~2e-6 s/job (model only)");
}
BENCHMARK(BM_RfInference);

/// Batched kernels vs their scalar references (the bench_fig8 speedup,
/// in per-item form). items/s is the comparable figure of merit.
void BM_RfInferenceBatchScalar(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.rf_raw.predict_scalar(m.batch.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * m.batch.view().rows));
  state.SetLabel("bin + per-row tree recursion");
}
BENCHMARK(BM_RfInferenceBatchScalar);

void BM_RfInferenceBatchFlat(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.rf_raw.predict(m.batch.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * m.batch.view().rows));
  state.SetLabel("flat forest, raw-float thresholds");
}
BENCHMARK(BM_RfInferenceBatchFlat);

void BM_KnnInferenceBatchScalar(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.knn_raw.predict_scalar(m.batch.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * m.batch.view().rows));
  state.SetLabel("serial-reduction dot scan");
}
BENCHMARK(BM_KnnInferenceBatchScalar);

void BM_KnnInferenceBatchTiled(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.knn_raw.predict(m.batch.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * m.batch.view().rows));
  state.SetLabel("tiled scan, 4-accumulator dot");
}
BENCHMARK(BM_KnnInferenceBatchTiled);

void BM_KnnInferenceBatchIndexed(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.knn_indexed.predict(m.batch.view()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * m.batch.view().rows));
  state.SetLabel("bounding-box tree + duplicate groups");
}
BENCHMARK(BM_KnnInferenceBatchIndexed);

void BM_EncodeBatchCached(benchmark::State& state) {
  static const FeatureEncoder encoder;
  const auto& jobs = sample_jobs();
  const std::size_t n = std::min<std::size_t>(jobs.size(), 512);
  const std::span<const JobRecord> batch(jobs.data(), n);
  static ShardedEmbeddingCache cache(encoder.dim());
  encoder.encode_batch_cached(batch, cache);  // warm: steady-state = all hits
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_batch_cached(batch, cache));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.SetLabel("sharded LRU, warm");
}
BENCHMARK(BM_EncodeBatchCached);

/// The price every library call site pays when no request is in flight:
/// one thread-local load + branch. The bench-smoke CI leg gates this at
/// <= ~20 ns via the span_disabled_ns metric in bench_fig8's artifact.
void BM_SpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(obs::Stage::kEncode);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("no current trace: TLS load + branch");
}
BENCHMARK(BM_SpanDisabled);

/// Full cost with a live trace installed: two steady-clock reads plus a
/// histogram bucket update.
void BM_SpanEnabled(benchmark::State& state) {
  static obs::RequestTracer tracer;
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  for (auto _ : state) {
    obs::Span span(obs::Stage::kEncode);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("live trace: 2 clock reads + histogram add");
}
BENCHMARK(BM_SpanEnabled);

void BM_KnnTraining(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    ClassificationModel fresh(ModelKind::kKnn);
    fresh.training(m.train_x.view(), m.train_y);
    benchmark::DoNotOptimize(fresh);
  }
  state.SetLabel("paper: 'just building a model instance'");
}
BENCHMARK(BM_KnnTraining);

void BM_ModelSerializeRf(benchmark::State& state) {
  auto& m = models();
  for (auto _ : state) {
    std::ostringstream out;
    m.rf.save(out);
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_ModelSerializeRf);

void BM_StoreRangeQuery(benchmark::State& state) {
  static const JobStore store = [] {
    JobStore s;
    s.insert_all(sample_jobs());
    return s;
  }();
  JobQuery q;
  q.start_time = timepoint_from_ymd(2024, 1, 1);
  q.end_time = timepoint_from_ymd(2024, 1, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("15-day window fetch (Training Workflow)");
}
BENCHMARK(BM_StoreRangeQuery);

}  // namespace

BENCHMARK_MAIN();
