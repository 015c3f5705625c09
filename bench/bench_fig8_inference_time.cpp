// Figure 8 reproduction: average per-job inference time (including
// feature encoding) vs alpha at beta = 1. Paper shape: both models are
// dominated by the ~2e-3 s/job SBERT encoding; RF inference is constant
// in alpha, KNN inference grows mildly with the training-set size; both
// stay negligible against the ~3-minute average scheduling wait.
// (Our hashed encoder is far cheaper than SBERT, so absolute values are
// lower; the orderings are the reproduced shape.)
//
// The second section measures the batched serving fast path
// (DESIGN.md §8): flat-forest RF, the brute-force KNN scan and the
// canonical-text embedding cache against their scalar references,
// single-threaded so the ratio reflects the kernels and not core count.
// With --json the headline metrics become the BENCH_inference.json
// artifact gated by tools/bench_check in the bench-smoke CI job.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/feature_encoder.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "obs/perf/counters.hpp"
#include "obs/trace.hpp"
#include "text/embedding_cache.hpp"

namespace {

using namespace mcb;

/// Deterministic stand-in for the rdpmc fast path, so span_counters_ns
/// is measurable (and gated) on runners whose perf_event_open fails.
/// The values advance every read like a real counter group would.
class BenchCounterSource final : public obs::perf::CounterSource {
 public:
  bool read_counters(obs::perf::CounterSample& out) noexcept override {
    tick_ += 7;
    for (std::size_t i = 0; i < obs::perf::kCounterCount; ++i) {
      out.value[i] = tick_ * (i + 1);
    }
    return true;
  }
  bool available() const noexcept override { return true; }
  int error() const noexcept override { return 0; }
  bool hot_path_capable() const noexcept override { return true; }

 private:
  std::uint64_t tick_ = 0;
};

/// Scalar-vs-batched kernel comparison on one train/query split.
void run_fast_path_section(const WorkloadConfig& workload_config,
                           const Characterizer& characterizer, const FeatureEncoder& encoder,
                           std::size_t rf_trees, bench::JsonReport& report) {
  WorkloadGenerator generator(workload_config);
  const std::vector<JobRecord> all_jobs = generator.generate();
  const std::size_t n_train = std::min<std::size_t>(all_jobs.size(), 4000);
  const std::vector<JobRecord> train_jobs(all_jobs.begin(),
                                          all_jobs.begin() + static_cast<std::ptrdiff_t>(n_train));
  const std::size_t n_query = std::min<std::size_t>(all_jobs.size(), 1000);
  const std::vector<JobRecord> query_jobs(all_jobs.begin(),
                                          all_jobs.begin() + static_cast<std::ptrdiff_t>(n_query));

  const FeatureMatrix train_x = encoder.encode_batch(train_jobs);
  std::vector<Label> train_y;
  train_y.reserve(train_jobs.size());
  for (const auto& job : train_jobs) {
    train_y.push_back(to_label(*characterizer.characterize(job)));
  }
  const FeatureMatrix query_x = encoder.encode_batch(query_jobs);

  RandomForestClassifier rf(bench::paper_rf_config(rf_trees));
  rf.fit(train_x.view(), train_y);
  // Brute-force reference: the store's scan over its distinct rows
  // (norm-expanded dot products) with the spatial index disabled, so
  // knn_batch_speedup keeps measuring the scan kernel.
  KnnConfig scan_config;
  scan_config.index.mode = KnnIndexMode::kNone;
  KnnClassifier knn(scan_config);
  knn.fit(train_x.view(), train_y);
  // Index-backed path (default config: bounding-box tree over the
  // deduplicated training rows, DESIGN.md §11).
  KnnClassifier knn_indexed;
  knn_indexed.fit(train_x.view(), train_y);

  constexpr int kReps = 3;
  const auto qview = query_x.view();
  const double rf_scalar_s = bench::best_of(kReps, [&] { rf.predict_scalar(qview); });
  const double rf_batched_s = bench::best_of(kReps, [&] { rf.predict(qview); });
  const double knn_scalar_s = bench::best_of(kReps, [&] { knn.predict_scalar(qview); });
  const double knn_batched_s = bench::best_of(kReps, [&] { knn.predict(qview); });
  const double knn_index_s = bench::best_of(kReps, [&] { knn_indexed.predict(qview); });
  const bool rf_match = rf.predict(qview) == rf.predict_scalar(qview);
  const bool knn_match = knn.predict(qview) == knn.predict_scalar(qview);
  // The index contract is bit-identical labels against the scalar scan.
  const bool knn_index_match = knn_indexed.predict(qview) == knn.predict_scalar(qview);

  // Encoding: cold = hash every job; cached = recurring canonical
  // feature strings served from the sharded LRU (warmed by one pass).
  const double encode_cold_s = bench::best_of(kReps, [&] { encoder.encode_batch(query_jobs); });
  ShardedEmbeddingCache cache(encoder.dim());
  encoder.encode_batch_cached(query_jobs, cache);
  const double encode_cached_s =
      bench::best_of(kReps, [&] { encoder.encode_batch_cached(query_jobs, cache); });

  const double n = static_cast<double>(n_query);
  const double rf_speedup = rf_scalar_s / rf_batched_s;
  const double knn_speedup = knn_scalar_s / knn_batched_s;
  // Gated vs the batched brute-force scan — the strongest baseline we
  // have, not the scalar strawman.
  const double knn_index_speedup = knn_batched_s / knn_index_s;
  const double encode_speedup = encode_cold_s / encode_cached_s;
  const auto& index_stats = knn_indexed.index().stats();

  std::printf("\nBatched fast path (single thread, %zu train rows, %zu queries, best of %d):\n\n",
              n_train, n_query, kReps);
  TextTable table({"path", "scalar s", "batched s", "speedup", "labels match"});
  char scalar_s[32], batched_s[32], speedup_s[32];
  std::snprintf(scalar_s, sizeof(scalar_s), "%.4f", rf_scalar_s);
  std::snprintf(batched_s, sizeof(batched_s), "%.4f", rf_batched_s);
  std::snprintf(speedup_s, sizeof(speedup_s), "x%.2f", rf_speedup);
  table.add_row({"RF (flat forest)", scalar_s, batched_s, speedup_s, rf_match ? "OK" : "MISMATCH"});
  std::snprintf(scalar_s, sizeof(scalar_s), "%.4f", knn_scalar_s);
  std::snprintf(batched_s, sizeof(batched_s), "%.4f", knn_batched_s);
  std::snprintf(speedup_s, sizeof(speedup_s), "x%.2f", knn_speedup);
  table.add_row({"KNN (brute-force scan)", scalar_s, batched_s, speedup_s, knn_match ? "OK" : "MISMATCH"});
  std::snprintf(scalar_s, sizeof(scalar_s), "%.4f", knn_batched_s);
  std::snprintf(batched_s, sizeof(batched_s), "%.4f", knn_index_s);
  std::snprintf(speedup_s, sizeof(speedup_s), "x%.2f", knn_index_speedup);
  table.add_row({"KNN (spatial index vs scan)", scalar_s, batched_s, speedup_s,
                 knn_index_match ? "OK" : "MISMATCH"});
  std::snprintf(scalar_s, sizeof(scalar_s), "%.4f", encode_cold_s);
  std::snprintf(batched_s, sizeof(batched_s), "%.4f", encode_cached_s);
  std::snprintf(speedup_s, sizeof(speedup_s), "x%.2f", encode_speedup);
  table.add_row({"encode (LRU cache)", scalar_s, batched_s, speedup_s, "-"});
  std::printf("%s\n", table.render().c_str());
  std::printf("index: mode=%s rows=%zu unique=%zu nodes=%zu leaves=%zu\n\n",
              knn_index_mode_name(index_stats.mode), index_stats.rows,
              index_stats.unique_rows, index_stats.nodes, index_stats.leaves);

  report.set("rf_batch_speedup", rf_speedup);
  report.set("knn_batch_speedup", knn_speedup);
  report.set("knn_index_speedup", knn_index_speedup);
  report.set("encode_cache_speedup", encode_speedup);
  report.set("rf_scalar_jobs_per_s", n / rf_scalar_s);
  report.set("rf_batched_jobs_per_s", n / rf_batched_s);
  report.set("knn_scalar_jobs_per_s", n / knn_scalar_s);
  report.set("knn_batched_jobs_per_s", n / knn_batched_s);
  report.set("knn_index_jobs_per_s", n / knn_index_s);
  report.set("encode_cold_jobs_per_s", n / encode_cold_s);
  report.set("encode_cached_jobs_per_s", n / encode_cached_s);
  report.set("rf_labels_match", rf_match ? 1.0 : 0.0);
  report.set("knn_labels_match", knn_match ? 1.0 : 0.0);
  report.set("knn_index_labels_match", knn_index_match ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcb;
  const auto flags = CliFlags::parse(argc, argv, bench::standard_flags(),
                                     "usage: bench_fig8_inference_time [--jobs-per-day N] "
                                     "[--seed S] [--rf-trees T] [--json PATH]");
  if (!flags.has_value()) return 2;
  if (flags->help_requested()) return 0;
  const double jobs_per_day = flags->get_double("jobs-per-day", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", 15));
  const auto rf_trees = static_cast<std::size_t>(flags->get_int("rf-trees", 100));
  const std::string json_path = flags->get("json", "");

  bench::print_banner("Figure 8: average per-job inference time vs alpha (beta=1)",
                      "Fig. 8 (§V-C a)", jobs_per_day, seed);

  WorkloadConfig workload_config;
  const JobStore store = bench::build_store(jobs_per_day, seed, &workload_config);
  const Characterizer characterizer(workload_config.machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, characterizer, encoder);
  bench::JsonReport report("fig8_inference_time");

  std::printf("\n");
  TextTable table({"alpha (days)", "KNN s/job", "RF s/job", "encode s/job"});
  double knn15 = 0, knn60 = 0, rf15 = 0, rf60 = 0;
  for (const int alpha : {15, 30, 45, 60}) {
    OnlineEvalConfig config;
    config.alpha_days = alpha;
    config.beta_days = 1;
    const auto knn = evaluator.evaluate(bench::model_factory(ModelKind::kKnn), config);
    const auto rf =
        evaluator.evaluate(bench::model_factory(ModelKind::kRandomForest, rf_trees), config);
    char knn_s[32], rf_s[32], enc_s[32];
    std::snprintf(knn_s, sizeof(knn_s), "%.3e", knn.inference_seconds_per_job.mean());
    std::snprintf(rf_s, sizeof(rf_s), "%.3e", rf.inference_seconds_per_job.mean());
    std::snprintf(enc_s, sizeof(enc_s), "%.3e", knn.encode_seconds_per_job.mean());
    table.add_row({std::to_string(alpha), knn_s, rf_s, enc_s});
    if (alpha == 15) { knn15 = knn.inference_seconds_per_job.mean(); rf15 = rf.inference_seconds_per_job.mean(); }
    if (alpha == 60) { knn60 = knn.inference_seconds_per_job.mean(); rf60 = rf.inference_seconds_per_job.mean(); }
    std::fputs(".", stdout);
    std::fflush(stdout);
  }
  std::printf("\n\n%s\n", table.render().c_str());
  std::printf("Paper reference: RF ~2.0e-3 s/job (constant), KNN ~2.3e-3 s/job (mildly\n");
  std::printf("growing), both dominated by ~2e-3 s/job SBERT encoding; scheduling wait ~180 s.\n");
  std::printf("\nShape checks:\n");
  std::printf("  KNN grows with alpha (x%.2f from 15 to 60)    -> %s\n", knn60 / knn15,
              knn60 > knn15 ? "OK" : "MISMATCH");
  std::printf("  RF roughly constant in alpha (x%.2f)          -> %s\n", rf60 / rf15,
              rf60 < rf15 * 2.0 ? "OK" : "MISMATCH");
  std::printf("  negligible vs 180 s scheduling wait           -> %s\n",
              knn60 < 1.0 ? "OK" : "MISMATCH");
  report.set("knn_s_per_job_alpha60", knn60);
  report.set("rf_s_per_job_alpha60", rf60);

  run_fast_path_section(workload_config, characterizer, encoder, rf_trees, report);

  // Span overhead, best of 3 like every other section (the floor gates
  // the span's true cost, not a scheduling hiccup mid-loop).
  //
  // Disabled: the tracing tax every library call site pays when no
  // request is in flight. Hard-gated by the baseline at 2x of 10 ns.
  constexpr std::size_t kSpanIters = 1'000'000;
  constexpr int kSpanReps = 3;
  const auto span_loop = [] {
    for (std::size_t i = 0; i < kSpanIters; ++i) {
      obs::Span span(obs::Stage::kEncode);
      // Optimizer barrier: keep the Span object (and its dtor) live.
      asm volatile("" : : "r"(&span) : "memory");  // NOLINT(hicpp-no-assembler)
    }
  };
  {
    const double span_s = bench::best_of(kSpanReps, span_loop);
    const double span_ns = span_s * 1e9 / static_cast<double>(kSpanIters);
    std::printf("\ndisabled span overhead: %.1f ns/span (%zu iterations, best of %d)\n",
                span_ns, kSpanIters, kSpanReps);
    report.set("span_disabled_ns", span_ns);
  }

  // Counted: the same RAII span on an armed trace with an attached
  // counter source — two clock reads, two grouped counter reads, the
  // per-stage delta accumulation and the histogram record (DESIGN.md
  // §14). Floor-gated at 75 ns/span.
  {
    obs::RequestTracer tracer;
    BenchCounterSource counters;
    tracer.set_counter_source(&counters);
    obs::TraceContext trace = tracer.make_trace();
    obs::TraceScope scope(&trace);
    const double span_s = bench::best_of(kSpanReps, span_loop);
    const double span_ns = span_s * 1e9 / static_cast<double>(kSpanIters);
    std::printf("counted span overhead:  %.1f ns/span (%zu iterations, best of %d)\n",
                span_ns, kSpanIters, kSpanReps);
    report.set("span_counters_ns", span_ns);
  }

  if (!json_path.empty()) {
    if (!report.write(json_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
