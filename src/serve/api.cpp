#include "serve/api.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/build_info.hpp"
#include "obs/log.hpp"
#include "obs/perf/profiler.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace mcb {

Json job_to_json(const JobRecord& job) {
  Json out = Json::object();
  out.set("job_id", job.job_id);
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

/// How a submitted job's member lands in its JobRecord.
enum class FieldKind : std::uint8_t {
  kText,        ///< a string; any other JSON type reads as ""
  kName,        ///< kText that must not be empty ("missing <name>")
  kInteger,     ///< an integer within the member's type, else "<name> is out of range"
  kAllocation,  ///< kInteger defaulting to nodes_requested, which must be positive first
  kFrequency,   ///< MHz; boost at or above 2200 (absent: 2000, normal)
  kReal,        ///< a double; any other JSON type reads as 0
};

struct JobField {
  std::string_view name;
  FieldKind kind;
  std::string JobRecord::*text = nullptr;  ///< kText, kName
  double JobRecord::*real = nullptr;       ///< kReal
  bool (*store)(JobRecord&, const JsonNumber&) = nullptr;  ///< kInteger, kAllocation
};

/// `value` as a T: an integer within T, or a double that rounds into T
/// and stays below 2^53 in magnitude, where doubles hold every integer
/// exactly. Anything else (a literal past uint64_t, 1e20) has no exact T.
template <typename T>
std::optional<T> exact_integer(const JsonNumber& value) {
  return std::visit(
      [](auto number) -> std::optional<T> {
        if constexpr (std::is_integral_v<decltype(number)>) {
          if (std::in_range<T>(number)) return static_cast<T>(number);
        } else {
          const double rounded = std::round(number);
          // NaN fails the first test.
          if (std::abs(rounded) < 0x1p53 &&
              std::in_range<T>(static_cast<std::int64_t>(rounded))) {
            return static_cast<T>(rounded);
          }
        }
        return std::nullopt;
      },
      value);
}

template <auto Member>
bool store_integer(JobRecord& job, const JsonNumber& value) {
  auto& out = job.*Member;
  const auto integer = exact_integer<std::remove_reference_t<decltype(out)>>(value);
  if (integer.has_value()) out = *integer;
  return integer.has_value();
}

/// Every member a job may carry, in the order its errors are reported.
/// A member that is absent, or of another JSON type than its kind reads,
/// keeps the default; unknown members are ignored.
constexpr JobField kJobFields[] = {
    {"user_name", FieldKind::kText, &JobRecord::user_name},
    {"job_name", FieldKind::kName, &JobRecord::job_name},
    {"environment", FieldKind::kText, &JobRecord::environment},
    {"job_id", FieldKind::kInteger, nullptr, nullptr, &store_integer<&JobRecord::job_id>},
    {"nodes_requested", FieldKind::kInteger, nullptr, nullptr,
     &store_integer<&JobRecord::nodes_requested>},
    {"cores_requested", FieldKind::kInteger, nullptr, nullptr,
     &store_integer<&JobRecord::cores_requested>},
    {"submit_time", FieldKind::kInteger, nullptr, nullptr,
     &store_integer<&JobRecord::submit_time>},
    {"start_time", FieldKind::kInteger, nullptr, nullptr,
     &store_integer<&JobRecord::start_time>},
    {"end_time", FieldKind::kInteger, nullptr, nullptr, &store_integer<&JobRecord::end_time>},
    {"exit_status", FieldKind::kInteger, nullptr, nullptr,
     &store_integer<&JobRecord::exit_status>},
    {"nodes_allocated", FieldKind::kAllocation, nullptr, nullptr,
     &store_integer<&JobRecord::nodes_allocated>},
    {"frequency_mhz", FieldKind::kFrequency},
    {"perf2", FieldKind::kReal, nullptr, &JobRecord::perf2},
    {"perf3", FieldKind::kReal, nullptr, &JobRecord::perf3},
    {"perf4", FieldKind::kReal, nullptr, &JobRecord::perf4},
    {"perf5", FieldKind::kReal, nullptr, &JobRecord::perf5},
    {"perf6", FieldKind::kReal, nullptr, &JobRecord::perf6},
    {"avg_power_watts", FieldKind::kReal, nullptr, &JobRecord::avg_power_watts},
};
constexpr std::size_t kJobFieldCount = std::size(kJobFields);
static_assert(kJobFieldCount <= 32, "JobDraft keeps one bit per field");

/// The slot of member name `key` in kFieldSlots: a hash of its first,
/// middle and last byte, which no two kJobFields names share (checked
/// below), so a member is found with one name comparison.
constexpr std::size_t field_slot(std::string_view key) {
  const auto byte = [key](std::size_t i) { return static_cast<unsigned char>(key[i]); };
  return (byte(0) + 2U * byte(key.size() / 2) + byte(key.size() - 1)) % 64;
}

struct FieldSlots {
  std::array<std::uint8_t, 64> field{};  ///< kJobFields index, or kJobFieldCount
  bool collision = false;
};

constexpr FieldSlots kFieldSlots = [] {
  FieldSlots slots;
  slots.field.fill(kJobFieldCount);
  for (std::size_t i = 0; i < kJobFieldCount; ++i) {
    std::uint8_t& slot = slots.field[field_slot(kJobFields[i].name)];
    slots.collision |= slot != kJobFieldCount;
    slot = static_cast<std::uint8_t>(i);
  }
  return slots;
}();
static_assert(!kFieldSlots.collision, "two job fields share a slot; change field_slot");

/// The kJobFields index of member `key`, or kJobFieldCount.
std::size_t find_job_field(std::string_view key) {
  if (key.empty()) return kJobFieldCount;
  const std::size_t i = kFieldSlots.field[field_slot(key)];
  return i < kJobFieldCount && kJobFields[i].name == key ? i : kJobFieldCount;
}

/// One job's members as read, before the checks: text lands in `job`
/// directly, numbers wait in `numbers` for finish_job. A member read once
/// is `seen`; a repeat is ignored, so the first of repeated keys wins,
/// as in Json::parse.
struct JobDraft {
  JobRecord job;
  std::array<JsonNumber, kJobFieldCount> numbers{};
  std::uint32_t seen = 0;
  std::uint32_t numeric = 0;  ///< bit i: member i was a number
};

/// Applies kJobFields in order to `draft`; the first failing check names
/// the error.
std::optional<JobRecord> finish_job(JobDraft& draft, std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<JobRecord> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  JobRecord& job = draft.job;
  for (std::size_t i = 0; i < kJobFieldCount; ++i) {
    const JobField& field = kJobFields[i];
    const JsonNumber* number = (draft.numeric >> i & 1U) != 0 ? &draft.numbers[i] : nullptr;
    switch (field.kind) {
      case FieldKind::kText: break;
      case FieldKind::kName:
        if ((job.*field.text).empty()) return fail("missing " + std::string(field.name));
        break;
      case FieldKind::kAllocation:
        if (job.nodes_requested == 0 || job.cores_requested == 0) {
          return fail("nodes/cores must be positive");
        }
        job.nodes_allocated = job.nodes_requested;
        [[fallthrough]];
      case FieldKind::kInteger:
        if (number != nullptr && !field.store(job, *number)) {
          return fail(std::string(field.name) + " is out of range");
        }
        break;
      case FieldKind::kFrequency:
        job.frequency = (number != nullptr ? json_number_as_int(*number) : 2000) >= 2200
                            ? FrequencyMode::kBoost
                            : FrequencyMode::kNormal;
        break;
      case FieldKind::kReal:
        job.*field.real = number != nullptr ? json_number_as_double(*number) : 0.0;
        break;
    }
  }
  return std::move(job);
}

/// Reads the job object at the reader's position into `draft`. `key` is
/// a buffer reused for member names.
bool read_job(JsonReader& reader, JobDraft& draft, std::string& key) {
  if (!reader.begin_object()) return false;
  while (reader.next_member(&key)) {
    const std::size_t i = find_job_field(key);
    Json::Type type = Json::Type::Null;
    if (i == kJobFieldCount || (draft.seen >> i & 1U) != 0 || !reader.peek(type)) {
      if (!reader.skip_value()) return false;
      continue;
    }
    const std::uint32_t bit = 1U << i;
    draft.seen |= bit;
    const JobField& field = kJobFields[i];
    const bool text = field.text != nullptr;
    if (text && type == Json::Type::String) {
      if (!reader.read_string(&(draft.job.*field.text))) return false;
    } else if (!text && type == Json::Type::Number) {
      if (!reader.read_number(&draft.numbers[i])) return false;
      draft.numeric |= bit;
    } else if (!reader.skip_value()) {
      return false;
    }
  }
  return reader.ok();
}

}  // namespace

std::optional<JobRecord> job_from_json(const Json& json, std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "job must be a JSON object";
    return std::nullopt;
  }
  JobDraft draft;
  for (const auto& [key, value] : json.as_object()) {
    const std::size_t i = find_job_field(key);
    if (i == kJobFieldCount) continue;
    const JobField& field = kJobFields[i];
    if (field.text != nullptr) {
      draft.job.*field.text = value.as_string();
    } else if (const JsonNumber* number = value.as_number()) {
      draft.numbers[i] = *number;
      draft.numeric |= 1U << i;
    }
  }
  return finish_job(draft, error);
}

std::optional<JobRecord> decode_job_body(std::string_view body, std::string* error) {
  JsonReader reader(body);
  JobDraft draft;
  std::string key;
  Json::Type type = Json::Type::Null;
  const bool object = reader.peek(type) && type == Json::Type::Object;
  if (!(object ? read_job(reader, draft, key) : reader.skip_value()) || !reader.end()) {
    if (error != nullptr) *error = "invalid JSON: " + reader.error();
    return std::nullopt;
  }
  if (!object) {
    if (error != nullptr) *error = "job must be a JSON object";
    return std::nullopt;
  }
  return finish_job(draft, error);
}

bool decode_batch_body(std::string_view body, std::vector<JobRecord>& jobs, int& status,
                       std::string* error) {
  const auto fail = [&](int code, std::string message) {
    jobs.clear();
    status = code;
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  jobs.clear();
  JsonReader reader(body);
  std::string key;
  bool have_jobs = false;  // the first "jobs" member was seen
  bool jobs_array = false;
  std::size_t count = 0;
  std::optional<std::size_t> bad_job;  // index of the first job that fails its checks
  std::string job_error;
  Json::Type type = Json::Type::Null;
  if (reader.peek(type) && type == Json::Type::Object && reader.begin_object()) {
    while (reader.next_member(&key)) {
      if (have_jobs || key != "jobs" || !reader.peek(type) || type != Json::Type::Array) {
        have_jobs = have_jobs || key == "jobs";
        if (!reader.skip_value()) break;
        continue;
      }
      have_jobs = jobs_array = true;
      if (!reader.begin_array()) break;
      while (reader.next_element()) {
        // Past the batch cap or the first bad job the answer is fixed;
        // the rest of the body is only checked.
        if (count >= kMaxClassifyBatch || bad_job.has_value()) {
          if (!reader.skip_value()) break;
        } else if (!reader.peek(type)) {
          break;
        } else if (type != Json::Type::Object) {
          if (!reader.skip_value()) break;
          bad_job = count;
          job_error = "job must be a JSON object";
        } else {
          JobDraft draft;
          if (!read_job(reader, draft, key)) break;
          auto job = finish_job(draft, &job_error);
          if (job.has_value()) {
            jobs.push_back(std::move(*job));
          } else {
            bad_job = count;
          }
        }
        ++count;
      }
      if (!reader.ok()) break;
    }
  } else if (reader.ok()) {
    (void)reader.skip_value();  // not an object: a failure shows in end()
  }
  if (!reader.end()) return fail(400, "invalid JSON: " + reader.error());
  if (!jobs_array) return fail(400, "body must be {\"jobs\": [...]}");
  if (count == 0) return fail(400, "jobs must be non-empty");
  if (count > kMaxClassifyBatch) {
    return fail(413, "batch too large (max " + std::to_string(kMaxClassifyBatch) + " jobs)");
  }
  if (bad_job.has_value()) {
    return fail(400, "jobs[" + std::to_string(*bad_job) + "]: " + job_error);
  }
  status = 200;
  return true;
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
  std::string message;
  auto job = decode_job_body(request.body, &message);
  if (!job.has_value()) error = error_response(400, message);
  return job;
}

/// True when Framework::train_now's `now - window` is defined.
bool window_start_defined(TimePoint now, std::int64_t window) {
  return window >= 0 ? now >= std::numeric_limits<TimePoint>::min() + window
                     : now <= std::numeric_limits<TimePoint>::max() + window;
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
  body.set("job_id", job->job_id);
  body.set("label", boundedness_name(to_boundedness(labels.front())));
  return model_response(*snapshot, body);
}

HttpResponse ApiServer::handle_classify_batch(const HttpRequest& request) {
  std::vector<JobRecord> jobs;
  int status = 0;
  std::string message;
  bool decoded = false;
  {
    obs::Span parse_span(obs::Stage::kParse);
    decoded = decode_batch_body(request.body, jobs, status, &message);
  }
  if (!decoded) return error_response(status, message);

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
  TimePoint now = 0;
  if (json->contains("now")) {
    const JsonNumber* number = (*json)["now"].as_number();
    if (number == nullptr) return error_response(400, "now must be an integer (epoch seconds)");
    const auto value = exact_integer<TimePoint>(*number);
    const std::int64_t window =
        static_cast<std::int64_t>(framework_.config().alpha_days) * kSecondsPerDay;
    if (!value.has_value() || !window_start_defined(*value, window)) {
      return error_response(400, "now is out of range");
    }
    now = *value;
  } else {
    now = framework_.store().max_end_time() + 1;
  }
  if (training_.exchange(true)) return error_response(409, "training already in progress");
  const ClearOnExit admitted(training_);

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
