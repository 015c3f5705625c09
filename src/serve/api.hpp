// The MCBound REST API (paper §III-E): a JSON-over-HTTP facade over
// mcbound::Framework, matching the operations the flask backend exposes.
//
//   GET  /health        -> {"status":"ok","model":...,"version":...}
//   GET  /model/info    -> model kind, version, feature set, ridge point
//   POST /characterize  -> executed-job JSON -> {"label":...,"metrics":{...}}
//   POST /encode        -> job JSON -> {"embedding":[384 floats]}
//   GET  /jobs?from=A&to=B[&field=submit|end] -> job list from the store
//   POST /predict       -> submitted-job JSON -> {"label":"memory-bound"|...}
//   POST /classify_batch-> {"jobs":[...]} -> {"labels":[...]} (batched fast path)
//   POST /train         -> {"now": <epoch s>} -> training report JSON
//                          (409 while another retrain runs)
//   GET  /metrics       -> the metrics registry's snapshot as JSON
//                          (obs::render_json), or ?format=prometheus for
//                          the same snapshot in the text exposition; the
//                          request families come from the server's route
//                          ledger, which counts every request, this one too
//   GET  /healthz       -> 200 once listening (liveness)
//   GET  /readyz        -> 503 until a trained model is loaded, then 200
//   GET  /debug/requests -> ?limit=K: the flight recorder's slow/errored traces
//   GET  /debug/profile -> ?seconds=N&hz=H (default 97 Hz): blocking SIGPROF
//                          capture of the whole process; flamegraph-ready
//                          collapsed stacks
//
// No API-wide lock. Handlers that need the model load one immutable
// Framework snapshot and answer from it alone: /predict and
// /classify_batch name it in an X-Model-Version header, so a retrain
// swapping in a new model never stalls or mixes a classification. The
// other handlers read Framework members fixed at construction (encoder,
// characterizer, config, store). /train admits one caller at a time
// through an atomic flag; a second concurrent /train gets 409. /predict
// and /classify_batch run the batched inference fast path: embeddings
// come from the Framework's sharded canonical-text LRU cache, the one
// /train also encodes through (recurring job names hit without
// encoding), and the whole batch goes through the flat-forest / KNN
// store kernels in one pool dispatch.
//
// Request bodies: the job endpoints decode their JSON in one pass
// (decode_job_body / decode_batch_body below) through util/json's
// JsonReader and one job-field table, with no Json tree. Every JSON
// body is bounded by JsonReader::kMaxDepth and keeps integers exact; a
// body the API cannot use gets 400 with the first problem named.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/mcbound.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/counters.hpp"
#include "roofline/stage_profile.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace mcb {

/// Most jobs one POST /classify_batch may carry (413 above): caps the
/// per-request work so one request cannot hold a handler thread past the
/// server's socket timeouts.
inline constexpr std::size_t kMaxClassifyBatch = 4096;

/// JSON <-> JobRecord conversion. One table in api.cpp fixes each job
/// member's name, type, range and default and the order in which errors
/// are reported; every decoder below goes through it. An integer member
/// takes an integer that fits its type exactly (or a double below 2^53,
/// rounded); anything else is "<member> is out of range" rather than a
/// wrapped or truncated value.
Json job_to_json(const JobRecord& job);
/// Decodes a parsed job object, walking its members once.
std::optional<JobRecord> job_from_json(const Json& json, std::string* error = nullptr);

/// Request-body decoders of /predict, /characterize, /encode (one job
/// object) and /classify_batch ({"jobs":[...]}). They read the body in one
/// pass through JsonReader, with no Json tree, and fail with exactly the
/// message (and, for a batch, the status) that Json::parse +
/// job_from_json would give: "invalid JSON: ..." first, then the body's
/// shape, an empty batch, a batch above kMaxClassifyBatch (413), and the
/// first bad job as "jobs[i]: ...". A failed batch leaves `jobs` empty.
std::optional<JobRecord> decode_job_body(std::string_view body, std::string* error = nullptr);
bool decode_batch_body(std::string_view body, std::vector<JobRecord>& jobs, int& status,
                       std::string* error = nullptr);

/// Binds the MCBound operations onto an HttpServer. The framework must
/// outlive the ApiServer.
class ApiServer {
 public:
  /// `server_config` tunes the connection executor (pool size, pending
  /// queue bound, timeouts, drain budget) — see ServerConfig.
  explicit ApiServer(Framework& framework, ServerConfig server_config = {});

  /// Start serving on the given port (0 = ephemeral). Returns false on
  /// bind failure.
  bool start(int port);
  void stop() { server_.stop(); }
  int port() const noexcept { return server_.port(); }

  /// The metrics registry (server + tracer + stage profile + app
  /// families), the one metrics surface: GET /metrics returns
  /// render_json(registry().gather()), or render_prometheus of the same
  /// snapshot for ?format=prometheus.
  const obs::Registry& registry() const noexcept { return registry_; }

  /// The per-request tracer owned by the underlying HttpServer.
  obs::RequestTracer& tracer() noexcept { return server_.tracer(); }

  /// The underlying reactor/executor (exposed for ops introspection,
  /// e.g. the effective listen backlog after the somaxconn clamp).
  const HttpServer& server() const noexcept { return server_; }

  /// Route table access for socket-less testing.
  HttpResponse dispatch(const HttpRequest& request) const { return server_.dispatch(request); }

 private:
  void install_routes();
  void collect_app_metrics(std::vector<obs::MetricFamily>& out) const;
  double uptime_seconds() const;

  HttpResponse handle_health(const HttpRequest& request);
  HttpResponse handle_healthz(const HttpRequest& request);
  HttpResponse handle_readyz(const HttpRequest& request);
  HttpResponse handle_metrics(const HttpRequest& request);
  HttpResponse handle_debug_requests(const HttpRequest& request);
  HttpResponse handle_debug_profile(const HttpRequest& request);
  HttpResponse handle_model_info(const HttpRequest& request);
  HttpResponse handle_characterize(const HttpRequest& request);
  HttpResponse handle_encode(const HttpRequest& request);
  HttpResponse handle_jobs(const HttpRequest& request);
  HttpResponse handle_predict(const HttpRequest& request);
  HttpResponse handle_classify_batch(const HttpRequest& request);
  HttpResponse handle_train(const HttpRequest& request);

  Framework& framework_;  ///< internally synchronized (core/mcbound.hpp)
  HttpServer server_;

  /// Set while a /train runs; a concurrent /train answers 409 instead of
  /// waiting. Exported as mcb_train_in_progress.
  std::atomic<bool> training_{false};
  /// Jobs classified through /classify_batch; its request count is the
  /// route's 2xx count in the server's ledger.
  std::atomic<std::uint64_t> batch_jobs_{0};

  /// Steady-clock ns at start() (through the tracer's clock seam);
  /// 0 before the server has listened. Feeds uptime_seconds.
  std::atomic<std::uint64_t> start_ns_{0};

  /// Hardware-counter seam (DESIGN.md §14): the production
  /// perf_event_open source, installed on the tracer per
  /// ServerConfig::perf_mode (tests swap in fakes through
  /// tracer().set_counter_source). Probed at construction; harmlessly
  /// inert where perf is unavailable.
  obs::perf::PerfCounterSource counter_source_;
  /// Derives mcb_stage_arith_intensity / mcb_stage_boundedness from the
  /// tracer's counter totals through the framework's Characterizer.
  StageProfileCollector stage_profile_;

  obs::CallbackCollector app_collector_;
  obs::Registry registry_;
};

}  // namespace mcb
