// Request tracing (DESIGN.md §10): per-request trace IDs, RAII stage
// spans, per-stage latency histograms, and a fixed-size flight recorder
// retaining the most recent slow/errored traces.
//
// Model: the serving layer creates one TraceContext per request (the ID
// is adopted from an X-Request-Id header or generated) and installs it
// as the thread's current trace (TraceScope). Any code on that thread —
// the router, the handler, the encoder, the classifier — opens a
// Span(stage) that measures steady-clock time into the context's stage
// slot and the tracer's per-stage histogram. When no trace is current
// (training workflows, benchmarks, tests calling library code
// directly), a Span costs one thread-local load and a branch — the
// disabled-span overhead is gated at <= ~20 ns by bench_check.
//
// finish() feeds the flight recorder: a mutex-sharded ring buffer of
// fixed-size slots (no allocation beyond copying into the pre-sized
// slot) that keeps the last N traces that were slow (>= threshold) or
// errored (status >= 400), with per-stage breakdowns, served as JSON by
// GET /debug/requests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf/counters.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace mcb::obs {

/// Request pipeline stages (paper §III: the online inference path).
/// Stages may nest (kEncode contains the cache-miss encoding that
/// kCacheLookup precedes), so stage times are attributions, not a
/// partition of wall time.
enum class Stage : std::uint8_t {
  kParse = 0,    ///< HTTP + body JSON parsing
  kRoute,        ///< routing-table lookup / method match
  kEncode,       ///< feature-string hashing into the embedding
  kCacheLookup,  ///< sharded embedding-cache probe
  kClassify,     ///< KNN / flat-forest inference
  kSerialize,    ///< response serialization
};
inline constexpr std::size_t kStageCount = 6;

const char* stage_name(Stage stage) noexcept;

/// The tracer's built-in clock: monotonic nanoseconds via the invariant
/// TSC when the CPU advertises one (calibrated against the steady clock
/// once, on first RequestTracer construction), clock_gettime otherwise.
/// A span pays for two clock reads, so this is the single largest term
/// in the span_counters_ns bench gate (DESIGN.md §14).
std::uint64_t fast_now_ns() noexcept;

class RequestTracer;

/// Per-request trace state. Created by RequestTracer::make_trace() on
/// the request thread; spans accumulate into the stage slots without
/// synchronization (one trace is owned by one thread at a time).
class TraceContext {
 public:
  const std::string& id() const noexcept { return id_; }
  /// Adopt a client-supplied ID (sanitized + truncated); empty keeps
  /// the generated one.
  void adopt_id(std::string_view client_id);

  /// Bounded route key recorded by the router ("POST /predict",
  /// "(unmatched)") — never the raw attacker-controlled path.
  void set_route(std::string_view route) { route_.assign(route); }
  const std::string& route() const noexcept { return route_; }

  std::uint64_t stage_ns(Stage stage) const noexcept {
    return stage_ns_[static_cast<std::size_t>(stage)];
  }
  std::uint32_t stage_calls(Stage stage) const noexcept {
    return stage_calls_[static_cast<std::size_t>(stage)];
  }
  /// Hardware-counter delta attributed to `stage` so far (0 when the
  /// trace runs latency-only).
  std::uint64_t stage_counter(Stage stage, perf::Counter counter) const noexcept {
    return stage_counters_[static_cast<std::size_t>(stage)]
                          [static_cast<std::size_t>(counter)];
  }
  /// False when the tracer was disabled at make_trace() time: every span
  /// on this trace is a no-op and finish() discards it. The flag is a
  /// per-request snapshot, so a set_enabled() flip mid-request cannot
  /// tear one request's recording (DESIGN.md §10).
  bool armed() const noexcept { return armed_; }
  RequestTracer* tracer() const noexcept { return tracer_; }

 private:
  friend class RequestTracer;
  friend class Span;

  RequestTracer* tracer_ = nullptr;
  /// Counter source snapshot taken at make_trace(); nullptr runs the
  /// request latency-only. Snapshotting (rather than consulting the
  /// tracer per span) keeps attachment atomic per request.
  perf::CounterSource* counters_ = nullptr;
  bool armed_ = true;
  std::string id_;
  std::string route_;
  std::uint64_t start_ns_ = 0;
  std::array<std::uint64_t, kStageCount> stage_ns_{};
  std::array<std::uint32_t, kStageCount> stage_calls_{};
  std::array<std::array<std::uint64_t, perf::kCounterCount>, kStageCount>
      stage_counters_{};
};

/// The thread's current trace, or nullptr outside a request.
TraceContext* current_trace() noexcept;

/// RAII installer for the thread-local current trace (restores the
/// previous one, so nested scopes — socketless dispatch from inside a
/// handler — behave).
class TraceScope {
 public:
  explicit TraceScope(TraceContext* trace) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* previous_;
};

/// RAII stage timer. The one-argument form binds to the thread's
/// current trace; when none is installed the span is disabled and costs
/// a thread-local read plus a branch.
class Span {
 public:
  explicit Span(Stage stage) noexcept : Span(current_trace(), stage) {}
  Span(TraceContext* trace, Stage stage) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceContext* trace_;
  Stage stage_;
  bool counted_ = false;  ///< start_counters_ holds a valid group read
  std::uint64_t start_ns_ = 0;
  perf::CounterSample start_counters_;
};

/// One retained trace in the flight recorder. Fixed-size POD slot: the
/// hot-path copy into it allocates nothing.
struct TraceRecord {
  static constexpr std::size_t kIdCapacity = 64;
  static constexpr std::size_t kRouteCapacity = 64;

  char id[kIdCapacity + 1] = {};
  char route[kRouteCapacity + 1] = {};
  int status = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kStageCount> stage_ns{};
  std::array<std::uint32_t, kStageCount> stage_calls{};
  std::uint64_t seq = 0;  ///< admission order (monotone across shards)
  bool used = false;
};

struct TracerConfig {
  std::size_t recorder_slots = 128;        ///< total ring capacity
  std::size_t recorder_shards = 4;         ///< independent mutexed rings
  std::uint64_t slow_threshold_ns = 10'000'000;  ///< retain when >= (10 ms)
  bool record_errors = true;               ///< retain any status >= 400
};

/// Owns the per-stage latency histograms (lock-free atomics) and the
/// flight recorder. One per HttpServer; registered as a Collector so
/// the stage histograms appear on /metrics in both formats.
class RequestTracer final : public Collector {
 public:
  explicit RequestTracer(TracerConfig config = {});

  /// Start a trace on the current thread; `client_id` non-empty adopts
  /// the client's ID, otherwise a process-unique one is generated.
  TraceContext make_trace(std::string_view client_id = {});

  /// Complete a trace: feeds the flight recorder when the request was
  /// slow or errored. `route` is the bounded route key ("POST /predict"
  /// or "(unmatched)"), never the raw attacker-controlled path.
  void finish(TraceContext& trace, int status, std::string_view route);

  /// Record a stage sample into the histograms without a trace context
  /// (used by Span; exposed for tests).
  void record_stage(Stage stage, std::uint64_t ns) noexcept;

  /// Current steady time through the clock seam, in ns. With the
  /// built-in clock this is fast_now_ns() — the calibrated invariant-TSC
  /// read (~2x cheaper per span than clock_gettime on the VMs we serve
  /// from). noexcept so the Span destructor (which calls this on the hot
  /// path) is provably non-throwing: clock_ is never empty — the
  /// constructor installs the default and set_clock() replaces an empty
  /// argument with it — so the std::function invocation cannot raise
  /// bad_function_call.
  // NOLINTNEXTLINE(bugprone-exception-escape) — see invariant above
  std::uint64_t now_ns() const noexcept {
    return default_clock_ ? fast_now_ns() : clock_();
  }

  /// Replace the steady-clock seam (tests inject a fake clock). Not
  /// thread-safe; call before serving starts.
  void set_clock(std::function<std::uint64_t()> clock);

  /// Runtime enable/disable. The flag is consulted exactly once per
  /// request (make_trace snapshots it into TraceContext::armed_), so a
  /// flip mid-request never produces a request whose spans recorded
  /// under one state and whose finish() ran under another.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Install the hardware-counter seam (not owned; must outlive the
  /// tracer). New traces attach counters only when the source is
  /// available and hot-path capable (userspace rdpmc reads) — `force`
  /// overrides the capability check for operators who accept syscall
  /// read cost per span (--perf force). Not thread-safe; wire before
  /// serving starts.
  void set_counter_source(perf::CounterSource* source, bool force = false);
  perf::CounterSource* counter_source() const noexcept {
    return counter_source_;
  }
  /// True when new traces will carry counter attribution.
  bool counters_attached() const noexcept { return counters_attached_; }

  /// Process-lifetime multiplexing-scaled total of `counter` attributed
  /// to `stage` across finished traces (roofline's StageProfileCollector
  /// derives live arithmetic intensity from these).
  std::uint64_t stage_counter_total(Stage stage,
                                    perf::Counter counter) const noexcept {
    // relaxed: monotonic scrape-time read
    return stage_counter_totals_[static_cast<std::size_t>(stage)][static_cast<
        std::size_t>(counter)].load(std::memory_order_relaxed);
  }
  /// Finished traces that carried counter attribution.
  std::uint64_t counted_requests() const noexcept {
    // relaxed: monotonic stat counter, no ordering needed
    return counted_requests_.load(std::memory_order_relaxed);
  }

  const TracerConfig& config() const noexcept { return config_; }
  std::uint64_t traces_started() const noexcept {
    // relaxed: monotonic stat counter, no ordering needed
    return seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t traces_recorded() const noexcept {
    // relaxed: monotonic stat counter, no ordering needed
    return recorded_.load(std::memory_order_relaxed);
  }

  /// The newest retained traces (most recent first), at most `limit`.
  /// {"count":N,"requests":[{id,route,status,total_us,stages:{...}}]}
  Json debug_requests_json(std::size_t limit = 32) const;

  /// Per-stage latency histograms as mcb_stage_duration_seconds, plus
  /// the hardware-counter families: mcb_perf_available (present whether
  /// or not counters work — the degraded-path contract), and per-stage
  /// mcb_stage_cycles_total / mcb_stage_instructions_total /
  /// mcb_stage_llc_miss_bytes_total.
  void collect_metrics(std::vector<MetricFamily>& out) const override;

 private:
  // Finite bucket upper bounds in seconds for stage latencies: 1 us ..
  // 4 s in x4 steps — spans two decades around the paper's per-job
  // costs (characterize ~1e-6 s, SBERT encode ~2e-3 s).
  static constexpr std::array<double, 12> kBucketBounds = {
      1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1.0, 4.0};
  /// kBucketBounds in integer nanoseconds: the hot-path bucket search
  /// compares the raw ns sample without converting to double.
  static constexpr std::array<std::uint64_t, 12> kBucketBoundsNs = {
      1000,     4000,     16000,     64000,     256000,     1000000,
      4000000,  16000000, 64000000,  256000000, 1000000000, 4000000000};

  /// Sample count is derived at scrape time as the sum of all buckets
  /// (including +Inf) — the hot path maintains two cells, not three.
  struct StageHist {
    std::array<std::atomic<std::uint64_t>, kBucketBounds.size() + 1> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };

  struct Shard {
    mutable Mutex mutex;
    std::vector<TraceRecord> slots MCB_GUARDED_BY(mutex);
    std::size_t next MCB_GUARDED_BY(mutex) = 0;
  };

  TracerConfig config_;
  std::function<std::uint64_t()> clock_;
  /// True while clock_ is the built-in steady clock; now_ns() then takes
  /// the TSC fast path instead of the std::function indirection.
  bool default_clock_ = true;
  std::uint64_t id_base_ = 0;  ///< random per-process prefix for generated IDs
  std::atomic<bool> enabled_{true};
  perf::CounterSource* counter_source_ = nullptr;
  bool counters_attached_ = false;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> counted_requests_{0};
  std::array<StageHist, kStageCount> stages_;
  std::array<std::array<std::atomic<std::uint64_t>, perf::kCounterCount>,
             kStageCount>
      stage_counter_totals_{};
  std::vector<Shard> shards_;
};

}  // namespace mcb::obs
