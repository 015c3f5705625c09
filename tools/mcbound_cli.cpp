// mcbound — the operator command-line tool (the paper's deploy/workflow
// scripts, §III-E, rolled into one binary).
//
//   mcbound generate      synthesize a Fugaku-like trace to CSV
//   mcbound characterize  Roofline analysis of a trace (2- or 3-class)
//   mcbound evaluate      run the online prediction algorithm evaluation
//   mcbound serve         start the HTTP API over a trace, serving the
//                         newest model saved in --registry if there is one
//
// Examples:
//   mcbound generate --out trace.csv --jobs-per-day 500
//   mcbound characterize --trace trace.csv --extended true
//   mcbound evaluate --trace trace.csv --model rf --alpha 15 --beta 1
//   mcbound serve --trace trace.csv --port 8080
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/mcbound.hpp"
#include "core/online_evaluator.hpp"
#include "obs/log.hpp"
#include "roofline/analysis.hpp"
#include "roofline/extended.hpp"
#include "serve/api.hpp"
#include "util/cli.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mcb;

constexpr const char* kUsage =
    "usage: mcbound <generate|characterize|evaluate|serve> [flags]\n"
    "  generate     --out FILE [--jobs-per-day N] [--seed S]\n"
    "  characterize --trace FILE [--extended true]\n"
    "  evaluate     --trace FILE [--model knn|rf] [--alpha A] [--beta B]\n"
    "               [--theta N --sampling latest|random]\n"
    "  serve        --trace FILE [--port P] [--alpha A] [--model knn|rf]\n"
    "               [--registry DIR]\n"
    "               [--http-threads N] [--http-queue N] [--timeout-ms MS]\n"
    "               [--drain-ms MS] [--http-backlog N] [--max-conns N]\n"
    "               [--perf auto|off]\n"
    "               [--log-level debug|info|warn|error|off]\n"
    "               [--log-json true|false]\n";

bool load_trace(const CliFlags& flags, JobStore& store) {
  const std::string path = flags.get("trace", "");
  if (path.empty()) {
    std::fprintf(stderr, "--trace FILE is required\n");
    return false;
  }
  std::string error;
  if (!store.load_csv(path, &error)) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  std::fprintf(stderr, "loaded %zu jobs from %s\n", store.size(), path.c_str());
  return true;
}

int cmd_generate(const CliFlags& flags) {
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out FILE is required\n");
    return 2;
  }
  WorkloadConfig config = scaled_workload_config(
      flags.get_double("jobs-per-day", 500.0),
      static_cast<std::uint64_t>(flags.get_int("seed", 15)));
  WorkloadGenerator generator(config);
  JobStore store;
  store.insert_all(generator.generate());
  if (!store.save_csv(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu jobs (%s .. %s) to %s\n", store.size(),
              format_date(config.start_time).c_str(),
              format_date(config.end_time - 1).c_str(), out.c_str());
  return 0;
}

int cmd_characterize(const CliFlags& flags) {
  JobStore store;
  if (!load_trace(flags, store)) return 1;
  const MachineSpec spec = fugaku_node_spec();

  if (flags.get_bool("extended", false)) {
    const ExtendedCharacterizer extended(spec);
    std::array<std::uint64_t, 3> counts{};
    std::size_t skipped = 0;
    const auto labels = extended.generate_labels(store.all(), &skipped);
    for (const auto label : labels) ++counts[static_cast<std::size_t>(label)];
    std::printf("3-class Roofline census (ridge %.2f F/B, Tofu %.1f GB/s):\n",
                spec.ridge_point(), spec.peak_network_gbs);
    for (std::size_t c = 0; c < 3; ++c) {
      std::printf("  %-20s %s\n",
                  extended_boundedness_name(static_cast<ExtendedBoundedness>(c)),
                  with_thousands(static_cast<std::int64_t>(counts[c])).c_str());
    }
    std::printf("  uncharacterizable    %zu\n", skipped);
    return 0;
  }

  const Characterizer characterizer(spec);
  const auto analysis = analyze_jobs(characterizer, store.all());
  const auto& b = analysis.breakdown;
  TextTable table({"", "memory-bound", "compute-bound"});
  table.add_row({"2.0 GHz", with_thousands(static_cast<std::int64_t>(
                                b.at(FrequencyMode::kNormal, Boundedness::kMemoryBound))),
                 with_thousands(static_cast<std::int64_t>(
                     b.at(FrequencyMode::kNormal, Boundedness::kComputeBound)))});
  table.add_row({"2.2 GHz", with_thousands(static_cast<std::int64_t>(
                                b.at(FrequencyMode::kBoost, Boundedness::kMemoryBound))),
                 with_thousands(static_cast<std::int64_t>(
                     b.at(FrequencyMode::kBoost, Boundedness::kComputeBound)))});
  std::fputs(table.render().c_str(), stdout);
  std::printf("ratio %.2f:1 | near-roofline(>=50%%) %.1f%% | freq-intensity corr %+.3f\n",
              b.memory_to_compute_ratio(),
              100.0 * analysis.fraction_near_roofline(characterizer, 0.5),
              analysis.frequency_intensity_correlation());
  return 0;
}

int cmd_evaluate(const CliFlags& flags) {
  JobStore store;
  if (!load_trace(flags, store)) return 1;

  const auto kind = parse_model_kind(flags.get("model", "rf"));
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown --model (use knn or rf)\n");
    return 2;
  }

  OnlineEvalConfig config;
  config.alpha_days =
      static_cast<int>(flags.get_int("alpha", *kind == ModelKind::kKnn ? 30 : 15));
  config.beta_days = static_cast<int>(flags.get_int("beta", 1));
  // Derive the test window from the trace: last 4 full weeks.
  config.test_end = store.max_end_time();
  config.test_start = config.test_end - 28 * kSecondsPerDay;
  config.data_start = store.min_end_time();
  if (flags.has("theta")) {
    config.theta.theta = static_cast<std::size_t>(flags.get_int("theta", 0));
    config.theta.mode = flags.get("sampling", "random") == "latest"
                            ? ThetaConfig::Sampling::kLatest
                            : ThetaConfig::Sampling::kRandom;
  }

  const Characterizer characterizer(fugaku_node_spec());
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, characterizer, encoder);
  RandomForestConfig forest;
  forest.tree.max_features = 48;
  const auto result = evaluator.evaluate(
      [&] { return ClassificationModel(*kind, {}, forest); }, config);

  std::printf("\nonline evaluation: %s alpha=%d beta=%d over %s .. %s\n",
              model_kind_name(*kind), config.alpha_days, config.beta_days,
              format_date(config.test_start).c_str(),
              format_date(config.test_end - 1).c_str());
  std::printf("%s\n", result.confusion.render(boundedness_class_names()).c_str());
  std::printf("retrains %zu | avg train %.3f s | avg inference %.2e s/job\n",
              result.retrains, result.train_seconds.mean(),
              result.inference_seconds_per_job.mean());
  return 0;
}

int cmd_serve(const CliFlags& flags) {
  // Structured logging: the server/library code logs through
  // mcb::log::global(); these flags configure it before serving starts.
  const std::string level_text = flags.get("log-level", "info");
  const auto level = log::parse_level(level_text);
  if (!level.has_value()) {
    std::fprintf(stderr, "unknown --log-level '%s' (use debug|info|warn|error|off)\n",
                 level_text.c_str());
    return 2;
  }
  log::global().set_level(*level);
  log::global().set_json(flags.get_bool("log-json", true));

  static JobStore store;  // outlives the framework/server below
  if (!load_trace(flags, store)) return 1;

  FrameworkConfig config;
  const auto kind = parse_model_kind(flags.get("model", "knn"));
  if (kind.has_value()) config.model = *kind;
  config.alpha_days = static_cast<int>(flags.get_int("alpha", 30));
  config.forest.tree.max_features = 48;
  config.registry_dir = flags.get("registry", "mcbound-models");

  ServerConfig server;
  server.worker_threads = static_cast<std::size_t>(
      flags.get_int("http-threads", static_cast<std::int64_t>(server.worker_threads)));
  server.max_pending = static_cast<std::size_t>(
      flags.get_int("http-queue", static_cast<std::int64_t>(server.max_pending)));
  const int timeout_ms =
      static_cast<int>(flags.get_int("timeout-ms", server.request_deadline_ms));
  server.request_deadline_ms = timeout_ms;
  server.recv_timeout_ms = std::min(server.recv_timeout_ms, timeout_ms);
  server.send_timeout_ms = std::min(server.send_timeout_ms, timeout_ms);
  server.drain_timeout_ms = static_cast<int>(flags.get_int("drain-ms", server.drain_timeout_ms));
  server.listen_backlog =
      static_cast<int>(flags.get_int("http-backlog", server.listen_backlog));
  server.max_connections = static_cast<std::size_t>(flags.get_int(
      "max-conns", static_cast<std::int64_t>(server.max_connections)));
  // Self-characterization (DESIGN.md §14): per-span hardware counters.
  const std::string perf_mode = flags.get("perf", "auto");
  if (perf_mode == "off") {
    server.perf_mode = ServerConfig::PerfMode::kOff;
  } else if (perf_mode != "auto") {
    std::fprintf(stderr, "unknown --perf '%s' (use auto|off)\n%s", perf_mode.c_str(), kUsage);
    return 2;
  }
  // A 10k-connection load test needs more than the usual 1024 soft
  // limit; raise it toward the hard limit before the listener opens.
  const std::uint64_t nofile = raise_nofile_limit(server.max_connections + 256);

  static Framework framework(config, store);
  // Warm restart: serve the newest model the registry holds, so a
  // restarted server answers /predict and /readyz without a /train.
  if (framework.load_latest_model()) {
    log::info("serve", "loaded model",
              {{"model", framework.model_name()},
               {"version", static_cast<std::uint64_t>(*framework.model_version())},
               {"registry", config.registry_dir}});
  } else {
    log::info("serve", "registry holds no loadable model", {{"registry", config.registry_dir}});
  }
  static ApiServer api(framework, server);
  const int port = static_cast<int>(flags.get_int("port", 8080));
  if (!api.start(port)) {
    std::fprintf(stderr, "failed to bind port %d\n", port);
    return 1;
  }
  std::printf("MCBound API on http://127.0.0.1:%d (model %s, alpha %d)\n", api.port(),
              framework.model_name().c_str(), config.alpha_days);
  std::printf("executor: %zu workers, %zu pending, %d ms request deadline\n",
              server.worker_threads, server.max_pending, server.request_deadline_ms);
  std::printf("reactor: backlog %d (effective %d after somaxconn), %zu max "
              "connections, %llu fd soft limit\n",
              server.listen_backlog, api.server().effective_backlog(),
              server.max_connections, static_cast<unsigned long long>(nofile));
  std::printf("perf counters: %s (mode %s); GET /debug/profile?seconds=N&hz=H for\n"
              "collapsed stacks\n",
              api.tracer().counters_attached() ? "attached" : "unavailable (latency-only)",
              perf_mode.c_str());
  std::printf("POST /train to build a new model version; GET /metrics for\n"
              "server-side counters and latency (add ?format=prometheus for the\n"
              "text exposition); GET /healthz, /readyz, /debug/requests for\n"
              "probes and the flight recorder; Ctrl-C to stop.\n");
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = CliFlags::parse(
      argc - 1, argv + 1,
      {"out", "trace", "jobs-per-day", "seed", "extended", "model", "alpha", "beta",
       "theta", "sampling", "port", "registry", "http-threads", "http-queue",
       "timeout-ms", "drain-ms", "http-backlog", "max-conns", "perf", "log-level",
       "log-json"},
      kUsage);
  if (!flags.has_value()) return 2;
  if (flags->help_requested()) return 0;

  if (command == "generate") return cmd_generate(*flags);
  if (command == "characterize") return cmd_characterize(*flags);
  if (command == "evaluate") return cmd_evaluate(*flags);
  if (command == "serve") return cmd_serve(*flags);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}
