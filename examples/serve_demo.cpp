// Example: the HTTP deployment (paper §III-E, the flask backend).
//
// Starts the MCBound REST API over a synthetic jobs database, then acts
// as its own client: health check, training trigger, per-submission
// prediction, and stand-alone characterization — the exact call sequence
// a workload manager integration would issue. With --port P --serve true
// it stays up for manual curl exploration instead.
//
// Usage: ./examples/serve_demo [--port P] [--serve true]
//                              [--http-threads N] [--http-queue N]
#include <cstdio>

#include "core/mcbound.hpp"
#include "serve/api.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace mcb;
  const auto flags = CliFlags::parse(
      argc, argv,
      {"port", "serve", "jobs-per-day", "seed", "http-threads", "http-queue"},
      "usage: serve_demo [--port P] [--serve true] [--jobs-per-day N]\n"
      "                  [--http-threads N] [--http-queue N]");
  if (!flags.has_value()) return 2;
  if (flags->help_requested()) return 0;

  // Jobs database: six weeks of history.
  WorkloadConfig trace = scaled_workload_config(flags->get_double("jobs-per-day", 120.0),
                                                static_cast<std::uint64_t>(flags->get_int("seed", 15)));
  trace.end_time = trace.start_time + 42 * kSecondsPerDay;
  WorkloadGenerator generator(trace);
  JobStore store;
  store.insert_all(generator.generate());

  FrameworkConfig config;
  config.model = ModelKind::kKnn;
  config.alpha_days = 30;
  config.registry_dir = "serve-demo-models";
  ServerConfig server;
  server.worker_threads = static_cast<std::size_t>(
      flags->get_int("http-threads", static_cast<std::int64_t>(server.worker_threads)));
  server.max_pending = static_cast<std::size_t>(
      flags->get_int("http-queue", static_cast<std::int64_t>(server.max_pending)));

  Framework framework(config, store);
  ApiServer api(framework, server);

  const int requested_port = static_cast<int>(flags->get_int("port", 0));
  if (!api.start(requested_port)) {
    std::fprintf(stderr, "failed to bind port %d\n", requested_port);
    return 1;
  }
  std::printf("MCBound API listening on http://127.0.0.1:%d\n\n", api.port());

  if (flags->get_bool("serve", false)) {
    std::printf("endpoints: GET /health, GET /model/info, GET /metrics,\n"
                "           POST /train, POST /predict, POST /characterize\n");
    std::printf("example:   curl -X POST http://127.0.0.1:%d/train -d '{}'\n", api.port());
    std::printf("press Ctrl-C to stop.\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
  }

  const auto call = [&api](const char* method, const char* path, const std::string& body) {
    int status = 0;
    std::string response;
    http_request(api.port(), method, path, body, status, response);
    std::printf(">> %s %s %s\n<< [%d] %s\n\n", method, path, body.c_str(), status,
                response.c_str());
    return response;
  };

  call("GET", "/health", "");
  call("GET", "/model/info", "");
  call("POST", "/train", "{}");  // trains on the trailing alpha window

  // Classify two fresh submissions (only submission-time fields known).
  const auto history = store.all();
  for (const std::size_t pick : {std::size_t{100}, history.size() - 5}) {
    JobRecord submission = history[pick];
    submission.job_id = 0;
    submission.start_time = submission.end_time = 0;
    submission.perf2 = submission.perf3 = submission.perf4 = submission.perf5 = 0;
    call("POST", "/predict", job_to_json(submission).dump());
  }

  // Stand-alone characterization of a completed job (counters known).
  call("POST", "/characterize", job_to_json(history[200]).dump());

  // Server-side view of everything this demo just did: the metrics
  // registry's request counters and per-route latency histograms.
  call("GET", "/metrics", "");

  api.stop();
  std::printf("server stopped.\n");
  return 0;
}
