// Request tracing (DESIGN.md §10): per-request trace IDs, RAII stage
// spans, per-stage latency histograms, and a fixed-size flight recorder
// retaining the most recent slow/errored traces.
//
// Model: the serving layer creates one TraceContext per request (the ID
// is adopted from an X-Request-Id header or generated) and installs it
// as the thread's current trace (TraceScope). Any code on that thread —
// the router, the handler, the encoder, the classifier — opens a
// Span(stage) that adds steady-clock time to the context's stage slot;
// a span touches nothing shared. finish() then records each stage the
// request touched, once, into the tracer's per-stage histogram
// (obs::LatencyHistogram, the bucket ladder the server's route ledger
// shares): one sample is one request's time in that stage, and a stage's
// count is the number of requests that reached it. When no trace is
// current (training workflows, benchmarks, tests calling library code
// directly), a Span costs one thread-local load and a branch — the
// disabled-span overhead is gated at <= ~20 ns by bench_check.
//
// finish() also feeds the flight recorder: 4 mutex-sharded rings of 32
// fixed-size slots (no allocation beyond copying into the pre-sized
// slot) that keep the last 128 traces that were slow (>= 10 ms) or
// errored (status >= 400), with per-stage breakdowns, served as JSON by
// GET /debug/requests. The server calls finish() from the one function
// that records a request outcome (serve/server.hpp).
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

 private:
  friend class RequestTracer;
  friend class Span;

  RequestTracer* tracer_ = nullptr;
  /// Counter source snapshot taken at make_trace(); nullptr runs the
  /// request latency-only. Snapshotting (rather than consulting the
  /// tracer per span) keeps attachment atomic per request.
  perf::CounterSource* counters_ = nullptr;
  std::string id_;
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

/// Owns the per-stage latency histograms (lock-free atomics) and the
/// flight recorder. One per HttpServer; registered as a Collector so
/// the stage histograms appear on /metrics in both formats.
class RequestTracer final : public Collector {
 public:
  static constexpr std::size_t kRecorderSlots = 128;  ///< total ring capacity
  static constexpr std::size_t kRecorderShards = 4;   ///< independent mutexed rings
  /// Retained when total time >= this (10 ms) or status >= 400.
  static constexpr std::uint64_t kSlowThresholdNs = 10'000'000;

  RequestTracer();

  /// Start a trace on the current thread; `client_id` non-empty adopts
  /// the client's ID, otherwise a process-unique one is generated.
  TraceContext make_trace(std::string_view client_id = {});

  /// Complete a trace: records one sample per stage the trace touched
  /// (its summed span time), flushes its counter deltas into the totals
  /// and feeds the flight recorder when the request was slow or errored.
  /// `route` is the bounded route key ("POST /predict" or
  /// "(unmatched)"), never the raw attacker-controlled path.
  void finish(TraceContext& trace, int status, std::string_view route);

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

  /// Install the hardware-counter seam (not owned; must outlive the
  /// tracer). New traces attach counters only when the source is
  /// available and hot-path capable (userspace rdpmc reads), so a span
  /// never pays a read(2) syscall. Not thread-safe; wire before serving
  /// starts.
  void set_counter_source(perf::CounterSource* source);
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
  struct Shard {
    mutable Mutex mutex;
    std::array<TraceRecord, kRecorderSlots / kRecorderShards> slots MCB_GUARDED_BY(mutex);
    std::size_t next MCB_GUARDED_BY(mutex) = 0;
  };

  std::function<std::uint64_t()> clock_;
  /// True while clock_ is the built-in steady clock; now_ns() then takes
  /// the TSC fast path instead of the std::function indirection.
  bool default_clock_ = true;
  std::uint64_t id_base_ = 0;  ///< random per-process prefix for generated IDs
  perf::CounterSource* counter_source_ = nullptr;
  bool counters_attached_ = false;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> counted_requests_{0};
  std::array<LatencyHistogram, kStageCount> stages_;
  std::array<std::array<std::atomic<std::uint64_t>, perf::kCounterCount>,
             kStageCount>
      stage_counter_totals_{};
  std::array<Shard, kRecorderShards> shards_;
};

}  // namespace mcb::obs
