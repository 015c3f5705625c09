#include "serve/api.hpp"

#include <cmath>
#include <limits>

#include "obs/build_info.hpp"
#include "obs/log.hpp"
#include "obs/perf/profiler.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace mcb {

Json job_to_json(const JobRecord& job) {
  Json out = Json::object();
  out.set("job_id", static_cast<std::int64_t>(job.job_id));
  out.set("user_name", job.user_name);
  out.set("job_name", job.job_name);
  out.set("environment", job.environment);
  out.set("nodes_requested", static_cast<std::int64_t>(job.nodes_requested));
  out.set("cores_requested", static_cast<std::int64_t>(job.cores_requested));
  out.set("frequency_mhz", frequency_mhz(job.frequency));
  out.set("submit_time", static_cast<std::int64_t>(job.submit_time));
  out.set("start_time", static_cast<std::int64_t>(job.start_time));
  out.set("end_time", static_cast<std::int64_t>(job.end_time));
  out.set("nodes_allocated", static_cast<std::int64_t>(job.nodes_allocated));
  out.set("exit_status", job.exit_status);
  out.set("perf2", job.perf2);
  out.set("perf3", job.perf3);
  out.set("perf4", job.perf4);
  out.set("perf5", job.perf5);
  out.set("perf6", job.perf6);
  out.set("avg_power_watts", job.avg_power_watts);
  return out;
}

namespace {

/// Reads integer member `key` into `out`; a non-number (or absent)
/// member leaves `out` at its default. A value outside T, which a cast
/// would silently wrap or truncate, fails with a message in `error`.
template <typename T>
bool read_int(const Json& json, const char* key, T& out, std::string* error) {
  const Json& value = json[key];
  if (!value.is_number()) return true;
  const double rounded = std::round(value.as_double());
  // max() + 1.0 is exact below 2^53 and rounds to 2^64 / 2^63 for the
  // 64-bit types, so `<` is the true upper bound for every T (NaN fails).
  if (rounded >= static_cast<double>(std::numeric_limits<T>::min()) &&
      rounded < static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
    out = static_cast<T>(rounded);
    return true;
  }
  if (error != nullptr) *error = std::string(key) + " is out of range";
  return false;
}

}  // namespace

std::optional<JobRecord> job_from_json(const Json& json, std::string* error) {
  const auto fail = [error](const std::string& message) -> std::optional<JobRecord> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!json.is_object()) return fail("job must be a JSON object");
  JobRecord job;
  job.user_name = json["user_name"].as_string();
  job.job_name = json["job_name"].as_string();
  if (job.job_name.empty()) return fail("missing job_name");
  job.environment = json["environment"].as_string();
  if (!read_int(json, "job_id", job.job_id, error) ||
      !read_int(json, "nodes_requested", job.nodes_requested, error) ||
      !read_int(json, "cores_requested", job.cores_requested, error) ||
      !read_int(json, "submit_time", job.submit_time, error) ||
      !read_int(json, "start_time", job.start_time, error) ||
      !read_int(json, "end_time", job.end_time, error) ||
      !read_int(json, "exit_status", job.exit_status, error)) {
    return std::nullopt;
  }
  if (job.nodes_requested == 0 || job.cores_requested == 0) {
    return fail("nodes/cores must be positive");
  }
  job.nodes_allocated = job.nodes_requested;
  if (!read_int(json, "nodes_allocated", job.nodes_allocated, error)) return std::nullopt;
  job.frequency = json["frequency_mhz"].as_int(2000) >= 2200 ? FrequencyMode::kBoost
                                                             : FrequencyMode::kNormal;
  job.perf2 = json["perf2"].as_double(0.0);
  job.perf3 = json["perf3"].as_double(0.0);
  job.perf4 = json["perf4"].as_double(0.0);
  job.perf5 = json["perf5"].as_double(0.0);
  job.perf6 = json["perf6"].as_double(0.0);
  job.avg_power_watts = json["avg_power_watts"].as_double(0.0);
  return job;
}

namespace {

HttpResponse error_response(int status, const std::string& message) {
  Json body = Json::object();
  body.set("error", message);
  return HttpResponse::json(status, body.dump());
}

/// Clears a flag when the scope exits, exceptions included.
class ClearOnExit {
 public:
  explicit ClearOnExit(std::atomic<bool>& flag) : flag_(flag) {}
  ~ClearOnExit() { flag_.store(false); }
  ClearOnExit(const ClearOnExit&) = delete;
  ClearOnExit& operator=(const ClearOnExit&) = delete;

 private:
  std::atomic<bool>& flag_;
};

/// A 200 answered from `snapshot`, naming the model version that
/// produced it.
HttpResponse model_response(const ModelSnapshot& snapshot, const Json& body) {
  HttpResponse response = HttpResponse::json(200, body.dump());
  response.headers.emplace_back("X-Model-Version", std::to_string(snapshot.version));
  return response;
}

std::optional<JobRecord> parse_job_body(const HttpRequest& request, HttpResponse& error) {
  std::string parse_error;
  const auto json = Json::parse(request.body, &parse_error);
  if (!json.has_value()) {
    error = error_response(400, "invalid JSON: " + parse_error);
    return std::nullopt;
  }
  const auto job = job_from_json(*json, &parse_error);
  if (!job.has_value()) {
    error = error_response(400, parse_error);
    return std::nullopt;
  }
  return job;
}

/// The served KNN model's store stats; all zero (mode "none") while no
/// KNN model is published.
KnnIndexStats served_knn_stats(const ModelSnapshot* snapshot) {
  const KnnIndexStats* stats =
      snapshot != nullptr ? snapshot->model.knn_index_stats() : nullptr;
  return stats != nullptr ? *stats : KnnIndexStats{};
}

}  // namespace

ApiServer::ApiServer(Framework& framework, ServerConfig server_config)
    : framework_(framework),
      server_(server_config),
      stage_profile_(server_.tracer(), framework.characterizer()),
      app_collector_([this](std::vector<obs::MetricFamily>& out) {
        collect_app_metrics(out);
      }) {
  // Self-characterization wiring (DESIGN.md §14): attach the hardware
  // counter seam unless perf_mode is kOff; where perf is unavailable the
  // tracer stays latency-only and exports mcb_perf_available 0.
  if (server_config.perf_mode != ServerConfig::PerfMode::kOff) {
    server_.tracer().set_counter_source(&counter_source_);
    if (!counter_source_.available()) {
      log::info("api", "hardware counters unavailable; spans run latency-only",
                {log::Field("errno", static_cast<std::int64_t>(
                                         counter_source_.error()))});
    }
  }
  registry_.add(&server_);
  registry_.add(&server_.tracer());
  registry_.add(&stage_profile_);
  registry_.add(&app_collector_);
  install_routes();
}

bool ApiServer::start(int port) {
  if (!server_.start(port)) return false;
  start_ns_.store(server_.tracer().now_ns());
  return true;
}

double ApiServer::uptime_seconds() const {
  const std::uint64_t started = start_ns_.load();
  if (started == 0) return 0.0;
  const std::uint64_t now = server_.tracer().now_ns();
  return now > started ? static_cast<double>(now - started) * 1e-9 : 0.0;
}

void ApiServer::collect_app_metrics(std::vector<obs::MetricFamily>& out) const {
  {
    obs::MetricFamily ops;
    ops.name = "mcb_embedding_cache_ops_total";
    ops.help = "Embedding-cache operations by kind.";
    ops.type = obs::MetricType::kCounter;
    const ShardedEmbeddingCache& cache = framework_.embedding_cache();
    const auto stats = cache.stats();
    const std::pair<const char*, std::uint64_t> kinds[] = {
        {"hit", stats.hits},
        {"miss", stats.misses},
        {"insert", stats.insertions},
        {"evict", stats.evictions},
    };
    for (const auto& [kind, value] : kinds) {
      ops.points.push_back(
          obs::scalar_point({{"op", kind}}, static_cast<double>(value)));
    }
    out.push_back(std::move(ops));

    obs::MetricFamily size;
    size.name = "mcb_embedding_cache_entries";
    size.help = "Embedding-cache entries (current / capacity).";
    size.type = obs::MetricType::kGauge;
    size.points.push_back(obs::scalar_point(
        {{"kind", "current"}}, static_cast<double>(cache.size())));
    size.points.push_back(obs::scalar_point(
        {{"kind", "capacity"}}, static_cast<double>(cache.capacity())));
    out.push_back(std::move(size));
  }

  {
    obs::MetricFamily batches;
    batches.name = "mcb_classify_batch_jobs_total";
    batches.help = "Jobs classified through POST /classify_batch.";
    batches.type = obs::MetricType::kCounter;
    batches.points.push_back(
        obs::scalar_point({}, static_cast<double>(batch_jobs_.load())));
    out.push_back(std::move(batches));
  }

  {
    obs::MetricFamily uptime;
    uptime.name = "mcb_uptime_seconds";
    uptime.help = "Seconds since the server started listening.";
    uptime.type = obs::MetricType::kGauge;
    uptime.points.push_back(obs::scalar_point({}, uptime_seconds()));
    out.push_back(std::move(uptime));

    // The model families below all describe this one snapshot.
    const auto snapshot = framework_.snapshot();
    obs::MetricFamily ready;
    ready.name = "mcb_ready";
    ready.help = "1 once a trained model is loaded (readiness probe).";
    ready.type = obs::MetricType::kGauge;
    ready.points.push_back(obs::scalar_point({}, snapshot != nullptr ? 1.0 : 0.0));
    out.push_back(std::move(ready));

    obs::MetricFamily version;
    version.name = "mcb_model_version";
    version.help = "Registry version of the model serving classifications (0 = none).";
    version.type = obs::MetricType::kGauge;
    version.points.push_back(obs::scalar_point(
        {}, snapshot != nullptr ? static_cast<double>(snapshot->version) : 0.0));
    out.push_back(std::move(version));

    obs::MetricFamily training;
    training.name = "mcb_train_in_progress";
    training.help = "1 while a POST /train runs (a concurrent /train answers 409).";
    training.type = obs::MetricType::kGauge;
    training.points.push_back(obs::scalar_point({}, training_.load() ? 1.0 : 0.0));
    out.push_back(std::move(training));

    // How KNN inference is served (DESIGN.md §11). mode="none" means
    // the brute-force scan; unique_rows < rows is the duplicate grouping
    // that sizes the store and drives the index speedup.
    const KnnIndexStats index_stats = served_knn_stats(snapshot.get());
    obs::MetricFamily index_info;
    index_info.name = "mcb_knn_index_info";
    index_info.help = "Constant 1; KNN spatial index mode in the label.";
    index_info.type = obs::MetricType::kGauge;
    index_info.points.push_back(
        obs::scalar_point({{"mode", knn_index_mode_name(index_stats.mode)}}, 1.0));
    out.push_back(std::move(index_info));

    obs::MetricFamily index_rows;
    index_rows.name = "mcb_knn_index_rows";
    index_rows.help = "Training rows (total) and distinct rows (unique) of the served KNN.";
    index_rows.type = obs::MetricType::kGauge;
    index_rows.points.push_back(obs::scalar_point(
        {{"kind", "total"}}, static_cast<double>(index_stats.rows)));
    index_rows.points.push_back(obs::scalar_point(
        {{"kind", "unique"}}, static_cast<double>(index_stats.unique_rows)));
    out.push_back(std::move(index_rows));

    obs::MetricFamily build;
    build.name = "mcb_build_info";
    build.help = "Constant 1; build metadata in the labels.";
    build.type = obs::MetricType::kGauge;
    build.points.push_back(obs::scalar_point({{"version", obs::kBuildVersion},
                                              {"compiler", obs::build_compiler()},
                                              {"mode", obs::build_mode()}},
                                             1.0));
    out.push_back(std::move(build));
  }
}

void ApiServer::install_routes() {
  server_.route("GET", "/health",
                [this](const HttpRequest& r) { return handle_health(r); });
  server_.route("GET", "/model/info",
                [this](const HttpRequest& r) { return handle_model_info(r); });
  server_.route("POST", "/characterize",
                [this](const HttpRequest& r) { return handle_characterize(r); });
  server_.route("POST", "/predict",
                [this](const HttpRequest& r) { return handle_predict(r); });
  server_.route("POST", "/classify_batch",
                [this](const HttpRequest& r) { return handle_classify_batch(r); });
  server_.route("POST", "/train",
                [this](const HttpRequest& r) { return handle_train(r); });
  server_.route("POST", "/encode",
                [this](const HttpRequest& r) { return handle_encode(r); });
  server_.route("GET", "/jobs", [this](const HttpRequest& r) { return handle_jobs(r); });
  // Observability: /metrics and /debug/requests read executor/server
  // state, app counters and one model snapshot. /healthz is liveness
  // (trivially 200 once the listener answers); /readyz gates on a
  // trained model being loaded.
  server_.route("GET", "/metrics",
                [this](const HttpRequest& r) { return handle_metrics(r); });
  server_.route("GET", "/healthz",
                [this](const HttpRequest& r) { return handle_healthz(r); });
  server_.route("GET", "/readyz",
                [this](const HttpRequest& r) { return handle_readyz(r); });
  server_.route("GET", "/debug/requests",
                [this](const HttpRequest& r) { return handle_debug_requests(r); });
  // Blocking whole-process SIGPROF capture; runs on a pool worker for
  // its whole duration, so `seconds` is clamped well below the socket
  // send timeout and only one capture may be in flight at a time.
  server_.route("GET", "/debug/profile",
                [this](const HttpRequest& r) { return handle_debug_profile(r); });
}

HttpResponse ApiServer::handle_healthz(const HttpRequest&) {
  return HttpResponse::json(200, R"({"status":"ok"})");
}

HttpResponse ApiServer::handle_readyz(const HttpRequest&) {
  if (!framework_.has_model()) {
    return HttpResponse::json(
        503, R"({"ready":false,"reason":"no trained model; POST /train first"})");
  }
  return HttpResponse::json(200, R"({"ready":true})");
}

HttpResponse ApiServer::handle_metrics(const HttpRequest& request) {
  // One registry snapshot, two renderings: format=prometheus selects the
  // text exposition; the default is the same families as JSON.
  const std::vector<obs::MetricFamily> families = registry_.gather();
  for (const auto& pair : split(request.query, '&')) {
    if (pair == "format=prometheus") {
      HttpResponse response;
      response.status = 200;
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::render_prometheus(families);
      return response;
    }
  }
  return HttpResponse::json(200, obs::render_json(families).dump());
}

HttpResponse ApiServer::handle_debug_requests(const HttpRequest& request) {
  std::int64_t limit = 32;
  for (const auto& pair : split(request.query, '&')) {
    const auto eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == "limit") {
      std::int64_t parsed = 0;
      if (parse_i64(pair.substr(eq + 1), parsed)) limit = parsed;
    }
  }
  if (limit < 1) limit = 1;
  if (limit > 1024) limit = 1024;
  return HttpResponse::json(
      200, server_.tracer().debug_requests_json(static_cast<std::size_t>(limit)).dump());
}

HttpResponse ApiServer::handle_debug_profile(const HttpRequest& request) {
  obs::perf::ProfileOptions options;
  std::int64_t seconds = 2;
  for (const auto& pair : split(request.query, '&')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = pair.substr(0, eq);
    std::int64_t parsed = 0;
    if (!parse_i64(pair.substr(eq + 1), parsed)) continue;
    if (key == "seconds") seconds = parsed;
    if (key == "hz") options.hz = static_cast<int>(parsed);
  }
  // The capture occupies one pool worker for its whole duration; keep it
  // comfortably inside the client's socket timeouts (5 s send budget).
  if (seconds < 1) seconds = 1;
  if (seconds > 8) seconds = 8;
  options.seconds = static_cast<double>(seconds);

  if (obs::perf::SamplingProfiler::busy()) {
    return error_response(503, "profiler busy: another capture is in flight");
  }
  obs::perf::ProfileReport report;
  std::string error;
  if (!obs::perf::SamplingProfiler::capture(options, report, error)) {
    const bool busy = error.find("busy") != std::string::npos;
    return error_response(busy ? 503 : 500, error);
  }
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; charset=utf-8";
  response.headers.emplace_back("X-Profile-Samples", std::to_string(report.samples));
  response.headers.emplace_back("X-Profile-Dropped", std::to_string(report.dropped));
  response.body = std::move(report.collapsed);
  return response;
}

HttpResponse ApiServer::handle_encode(const HttpRequest& request) {
  HttpResponse error;
  const auto job = parse_job_body(request, error);
  if (!job.has_value()) return error;
  const auto embedding = framework_.encoder().encode(*job);
  Json body = Json::object();
  body.set("feature_string", framework_.encoder().feature_string(*job));
  Json values = Json::array();
  for (const float v : embedding) values.push_back(static_cast<double>(v));
  body.set("embedding", values);
  return HttpResponse::json(200, body.dump());
}

HttpResponse ApiServer::handle_jobs(const HttpRequest& request) {
  // Query string: from=<epoch>&to=<epoch>[&field=submit|end][&limit=N]
  std::int64_t from = 0, to = 0, limit = 1000;
  std::string field = "end";
  for (const auto& pair : split(request.query, '&')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "field") field = value;
    if (key != "from" && key != "to" && key != "limit") continue;
    std::int64_t parsed = 0;
    if (!parse_i64(value, parsed) || parsed < 0) {
      return error_response(400, key + " must be a non-negative integer");
    }
    (key == "from" ? from : key == "to" ? to : limit) = parsed;
  }
  if (to <= from) return error_response(400, "need from < to");
  if (field != "submit" && field != "end") {
    return error_response(400, "field must be 'submit' or 'end'");
  }
  JobQuery query;
  query.field = field == "submit" ? JobQuery::TimeField::kSubmitTime
                                  : JobQuery::TimeField::kEndTime;
  query.start_time = from;
  query.end_time = to;
  // The store is immutable while serving, so its records can be read in place.
  const std::vector<const JobRecord*> jobs = framework_.store().query(query);
  Json body = Json::object();
  body.set("count", static_cast<std::int64_t>(jobs.size()));
  Json list = Json::array();
  for (std::size_t i = 0; i < jobs.size() && i < static_cast<std::size_t>(limit); ++i) {
    list.push_back(job_to_json(*jobs[i]));
  }
  body.set("jobs", list);
  return HttpResponse::json(200, body.dump());
}

HttpResponse ApiServer::handle_health(const HttpRequest&) {
  const auto snapshot = framework_.snapshot();
  Json body = Json::object();
  body.set("status", "ok");
  body.set("model", framework_.model_name());
  body.set("trained", snapshot != nullptr);
  if (snapshot != nullptr) body.set("version", static_cast<std::int64_t>(snapshot->version));
  return HttpResponse::json(200, body.dump());
}

HttpResponse ApiServer::handle_model_info(const HttpRequest&) {
  const auto snapshot = framework_.snapshot();
  const FrameworkConfig& config = framework_.config();
  Json body = Json::object();
  body.set("model", framework_.model_name());
  body.set("trained", snapshot != nullptr);
  body.set("alpha_days", config.alpha_days);
  body.set("beta_days", config.beta_days);
  body.set("encoder_dim", static_cast<std::int64_t>(framework_.encoder().dim()));
  body.set("ridge_point_flops_per_byte", framework_.characterizer().ridge_point());
  Json features = Json::array();
  for (const JobFeature f : framework_.encoder().features()) {
    features.push_back(job_feature_name(f));
  }
  body.set("features", features);
  if (snapshot != nullptr) body.set("version", static_cast<std::int64_t>(snapshot->version));
  if (config.model == ModelKind::kKnn) {
    // Surface how KNN queries are served (DESIGN.md §11): the store's
    // rows and distinct rows, and the pruned spatial index when one is
    // built (mode "none": the brute-force scan, e.g. p != 2).
    const KnnIndexStats stats = served_knn_stats(snapshot.get());
    Json index_json = Json::object();
    index_json.set("mode", knn_index_mode_name(stats.mode));
    index_json.set("rows", static_cast<std::int64_t>(stats.rows));
    index_json.set("unique_rows", static_cast<std::int64_t>(stats.unique_rows));
    index_json.set("nodes", static_cast<std::int64_t>(stats.nodes));
    index_json.set("leaves", static_cast<std::int64_t>(stats.leaves));
    body.set("knn_index", index_json);
  }
  return HttpResponse::json(200, body.dump());
}

HttpResponse ApiServer::handle_characterize(const HttpRequest& request) {
  HttpResponse error;
  const auto job = parse_job_body(request, error);
  if (!job.has_value()) return error;

  const auto metrics = framework_.job_metrics(*job);
  if (!metrics.has_value()) {
    return error_response(400, "job cannot be characterized (invalid duration/nodes)");
  }
  const auto label = framework_.characterize_job(*job);
  Json body = Json::object();
  body.set("label", boundedness_name(*label));
  Json m = Json::object();
  m.set("flops", metrics->flops);
  m.set("moved_bytes", metrics->moved_bytes);
  m.set("performance_gflops", metrics->performance_gflops);
  m.set("bandwidth_gbs", metrics->bandwidth_gbs);
  m.set("operational_intensity", metrics->operational_intensity);
  body.set("metrics", m);
  return HttpResponse::json(200, body.dump());
}

HttpResponse ApiServer::handle_predict(const HttpRequest& request) {
  HttpResponse error;
  std::optional<JobRecord> job;
  {
    obs::Span parse_span(obs::Stage::kParse);
    job = parse_job_body(request, error);
  }
  if (!job.has_value()) return error;

  const auto snapshot = framework_.snapshot();
  if (snapshot == nullptr) return error_response(503, "no trained model; POST /train first");
  // Single-job requests ride the batched fast path too, so recurring
  // submissions (same canonical feature string) hit the embedding cache.
  const auto labels = framework_.predict_batch(*snapshot, {&*job, 1});
  if (labels.empty()) return error_response(500, "prediction failed");
  Json body = Json::object();
  body.set("job_id", static_cast<std::int64_t>(job->job_id));
  body.set("label", boundedness_name(to_boundedness(labels.front())));
  return model_response(*snapshot, body);
}

HttpResponse ApiServer::handle_classify_batch(const HttpRequest& request) {
  // Caps the per-request work so one request cannot monopolize the
  // connection executor past the server's socket timeouts.
  constexpr std::size_t kMaxBatch = 4096;

  std::string parse_error;
  std::optional<Json> json;
  {
    obs::Span parse_span(obs::Stage::kParse);
    json = Json::parse(request.body, &parse_error);
  }
  if (!json.has_value()) return error_response(400, "invalid JSON: " + parse_error);
  if (!json->is_object() || !json->contains("jobs") || !(*json)["jobs"].is_array()) {
    return error_response(400, "body must be {\"jobs\": [...]}");
  }
  const JsonArray& list = (*json)["jobs"].as_array();
  if (list.empty()) return error_response(400, "jobs must be non-empty");
  if (list.size() > kMaxBatch) {
    return error_response(413, "batch too large (max " + std::to_string(kMaxBatch) + " jobs)");
  }

  std::vector<JobRecord> jobs;
  jobs.reserve(list.size());
  {
    obs::Span parse_span(obs::Stage::kParse);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto job = job_from_json(list[i], &parse_error);
      if (!job.has_value()) {
        return error_response(400, "jobs[" + std::to_string(i) + "]: " + parse_error);
      }
      jobs.push_back(*job);
    }
  }

  const auto snapshot = framework_.snapshot();
  if (snapshot == nullptr) return error_response(503, "no trained model; POST /train first");
  const std::vector<Label> labels = framework_.predict_batch(*snapshot, jobs);
  if (labels.size() != jobs.size()) return error_response(500, "prediction failed");

  // relaxed: a monotonic counter read only by /metrics; no ordering is
  // needed with the labels.
  batch_jobs_.fetch_add(jobs.size(), std::memory_order_relaxed);

  Json body = Json::object();
  body.set("count", static_cast<std::int64_t>(labels.size()));
  Json out_labels = Json::array();
  for (const Label label : labels) {
    out_labels.push_back(boundedness_name(to_boundedness(label)));
  }
  body.set("labels", out_labels);
  return model_response(*snapshot, body);
}

HttpResponse ApiServer::handle_train(const HttpRequest& request) {
  std::string parse_error;
  const auto json = Json::parse(request.body.empty() ? "{}" : request.body, &parse_error);
  if (!json.has_value()) return error_response(400, "invalid JSON: " + parse_error);
  if (training_.exchange(true)) return error_response(409, "training already in progress");
  const ClearOnExit admitted(training_);

  const TimePoint now = json->contains("now") ? (*json)["now"].as_int()
                                              : framework_.store().max_end_time() + 1;
  const TrainingReport report = framework_.train_now(now);
  if (report.jobs_used == 0) {
    log::warn("api", "training window empty; no model produced",
              {log::Field("now", static_cast<std::int64_t>(now))});
    return error_response(409, "training window is empty; no model produced");
  }
  if (!report.version.has_value()) {
    log::error("api", "model not saved to the registry; previous model keeps serving",
               {log::Field("registry", framework_.registry().root())});
    return error_response(500, "model could not be saved to the registry");
  }
  log::info("api", "model trained",
            {log::Field("jobs_used", static_cast<std::int64_t>(report.jobs_used)),
             log::Field("train_seconds", report.train_seconds),
             log::Field("version", static_cast<std::int64_t>(*report.version))});
  Json body = Json::object();
  body.set("jobs_used", static_cast<std::int64_t>(report.jobs_used));
  body.set("train_seconds", report.train_seconds);
  body.set("encode_seconds", report.encode_seconds);
  body.set("characterize_seconds", report.characterize_seconds);
  body.set("version", static_cast<std::int64_t>(*report.version));
  return HttpResponse::json(201, body.dump());
}

}  // namespace mcb
