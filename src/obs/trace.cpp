#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>

#if defined(__x86_64__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

#include "util/annotations.hpp"

namespace mcb::obs {
namespace {

thread_local TraceContext* t_current_trace = nullptr;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)

/// Calibration state for the invariant-TSC fast clock: absolute time is
/// anchored to the steady clock once, then each read is one rdtsc and a
/// multiply. ok stays false when the CPU does not advertise an invariant
/// TSC and fast_now_ns() falls back to clock_gettime.
struct TscClock {
  bool ok = false;
  std::uint64_t base_tsc = 0;
  std::uint64_t base_ns = 0;
  double ns_per_tick = 0.0;
};

bool invariant_tsc_supported() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000007u) return false;
  if (__get_cpuid(0x80000007u, &a, &b, &c, &d) == 0) return false;
  return (d & (1u << 8)) != 0;  // CPUID.80000007H:EDX[8] = invariant TSC
}

TscClock calibrate_tsc() noexcept {
  TscClock clock;
  if (!invariant_tsc_supported()) return clock;
  const std::uint64_t ns0 = steady_now_ns();
  const std::uint64_t tsc0 = __rdtsc();
  // Spin ~1 ms: clock_gettime resolution (tens of ns) over a 1 ms window
  // bounds the rate error near 0.01%, and both endpoints sample the two
  // clocks back to back so the anchor offset is one call apart.
  std::uint64_t ns1 = ns0;
  std::uint64_t tsc1 = tsc0;
  while (ns1 - ns0 < 1000000) {
    ns1 = steady_now_ns();
    tsc1 = __rdtsc();
  }
  if (tsc1 <= tsc0) return clock;  // TSC not advancing: do not trust it
  clock.ns_per_tick = static_cast<double>(ns1 - ns0) /
                      static_cast<double>(tsc1 - tsc0);
  clock.base_tsc = tsc1;
  clock.base_ns = ns1;
  clock.ok = true;
  return clock;
}

const TscClock& tsc_clock() noexcept {
  // First caller pays the ~1 ms calibration; RequestTracer's constructor
  // warms it so no span ever does. After that the magic-static guard is
  // one acquire load.
  static const TscClock clock = calibrate_tsc();
  return clock;
}

#endif  // __x86_64__

bool id_char_ok(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '-' || c == '_' || c == '.';
}

void copy_bounded(char* dst, std::size_t capacity, std::string_view src) {
  const std::size_t n = std::min(capacity, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

MCB_HOT_PATH std::uint64_t fast_now_ns() noexcept {
#if defined(__x86_64__)
  const TscClock& clock = tsc_clock();
  if (clock.ok) {
    const std::uint64_t ticks = __rdtsc() - clock.base_tsc;
    return clock.base_ns + static_cast<std::uint64_t>(
                               static_cast<double>(ticks) * clock.ns_per_tick);
  }
#endif
  return steady_now_ns();
}

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kRoute: return "route";
    case Stage::kEncode: return "encode";
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kClassify: return "classify";
    case Stage::kSerialize: return "serialize";
  }
  return "unknown";
}

void TraceContext::adopt_id(std::string_view client_id) {
  std::string sanitized;
  // mcb-lint: suppress(R18: reserve is capped at kIdCapacity; ids stay one small block)
  sanitized.reserve(std::min(client_id.size(), TraceRecord::kIdCapacity));
  for (const char c : client_id) {
    if (sanitized.size() >= TraceRecord::kIdCapacity) break;
    if (id_char_ok(c)) sanitized += c;
  }
  if (!sanitized.empty()) id_ = std::move(sanitized);
}

TraceContext* current_trace() noexcept { return t_current_trace; }

MCB_HOT_PATH TraceScope::TraceScope(TraceContext* trace) noexcept
    : previous_(t_current_trace) {
  t_current_trace = trace;
}

MCB_HOT_PATH TraceScope::~TraceScope() { t_current_trace = previous_; }

MCB_HOT_PATH Span::Span(TraceContext* trace, Stage stage) noexcept
    : trace_(trace), stage_(stage) {
  if (trace_ == nullptr) return;
  start_ns_ = trace_->tracer_->now_ns();
  if (trace_->counters_ != nullptr) {
    counted_ = trace_->counters_->read_counters(start_counters_);
  }
}

MCB_HOT_PATH Span::~Span() {
  if (trace_ == nullptr) return;
  const std::uint64_t end_ns = trace_->tracer_->now_ns();
  const std::uint64_t elapsed = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  const auto index = static_cast<std::size_t>(stage_);
  if (counted_) {
    perf::CounterSample end_counters;
    if (trace_->counters_->read_counters(end_counters)) {
      for (std::size_t c = 0; c < perf::kCounterCount; ++c) {
        // Clamp instead of wrapping: a counter that wrapped (or was
        // rescaled downward by multiplexing) contributes 0, never a
        // ~2^64 delta that would poison the stage totals.
        const std::uint64_t start = start_counters_.value[c];
        const std::uint64_t end = end_counters.value[c];
        trace_->stage_counters_[index][c] += end >= start ? end - start : 0;
      }
    }
  }
  trace_->stage_ns_[index] += elapsed;
  ++trace_->stage_calls_[index];
}

RequestTracer::RequestTracer() : clock_(&steady_now_ns) {
  // Warm the TSC calibration here, off the hot path, so the first span
  // never pays the ~1 ms calibration spin.
  (void)fast_now_ns();
  // Per-process random prefix so IDs from restarted servers don't
  // collide; std::random_device is entropy, not the banned libc rand.
  std::random_device device;
  id_base_ = (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

void RequestTracer::set_clock(std::function<std::uint64_t()> clock) {
  // An injected clock disables the TSC fast path; an empty argument
  // restores the built-in clock (and with it the fast path).
  default_clock_ = !clock;
  clock_ = clock ? std::move(clock) : std::function<std::uint64_t()>(&steady_now_ns);
}

void RequestTracer::set_counter_source(perf::CounterSource* source) {
  counter_source_ = source;
  counters_attached_ =
      source != nullptr && source->available() && source->hot_path_capable();
}

TraceContext RequestTracer::make_trace(std::string_view client_id) {
  TraceContext trace;
  trace.tracer_ = this;
  // The counter attachment is snapshotted here, once per request —
  // spans consult only the snapshot.
  trace.counters_ = counters_attached_ ? counter_source_ : nullptr;
  trace.start_ns_ = now_ns();
  // relaxed: uniqueness only needs atomicity of the increment
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx-%08llx",
                static_cast<unsigned long long>(id_base_),
                static_cast<unsigned long long>(seq));
  trace.id_ = buf;
  trace.adopt_id(client_id);
  return trace;
}

void RequestTracer::finish(TraceContext& trace, int status, std::string_view route) {
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t total =
      end_ns >= trace.start_ns_ ? end_ns - trace.start_ns_ : 0;

  // One sample per stage the request touched: its time in that stage.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (trace.stage_calls_[s] != 0) stages_[s].record(trace.stage_ns_[s]);
  }

  // Flush the request's counter deltas into the process totals once per
  // request (spans accumulate into the unsynchronized trace arrays).
  if (trace.counters_ != nullptr) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      for (std::size_t c = 0; c < perf::kCounterCount; ++c) {
        const std::uint64_t delta = trace.stage_counters_[s][c];
        if (delta != 0) {
          // relaxed: independent monotonic cells; scrape view may tear.
          stage_counter_totals_[s][c].fetch_add(delta,
                                                std::memory_order_relaxed);
        }
      }
    }
    // relaxed: monotonic stat counter, no ordering needed
    counted_requests_.fetch_add(1, std::memory_order_relaxed);
  }

  if (status < 400 && total < kSlowThresholdNs) return;

  // relaxed: the sequence only orders retained records; the shard mutex
  // publishes the slot contents.
  const std::uint64_t seq = recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = shards_[seq % shards_.size()];
  // mcb-lint: suppress(R18: only errored or slow traces reach the shard lock; the ring-slot write is bounded) mcb-lint: suppress(R19: only errored or slow traces reach the shard lock; the ring-slot write is bounded)
  MutexLock lock(shard.mutex);
  TraceRecord& slot = shard.slots[shard.next];
  shard.next = (shard.next + 1) % shard.slots.size();
  copy_bounded(slot.id, TraceRecord::kIdCapacity, trace.id_);
  copy_bounded(slot.route, TraceRecord::kRouteCapacity, route);
  slot.status = status;
  slot.total_ns = total;
  slot.stage_ns = trace.stage_ns_;
  slot.stage_calls = trace.stage_calls_;
  slot.seq = seq;
  slot.used = true;
}

Json RequestTracer::debug_requests_json(std::size_t limit) const {
  std::vector<TraceRecord> records;
  records.reserve(kRecorderSlots);
  for (const auto& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& slot : shard.slots) {
      if (slot.used) records.push_back(slot);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.seq > b.seq; });
  if (records.size() > limit) records.resize(limit);

  Json list = Json::array();
  for (const auto& record : records) {
    Json entry = Json::object();
    entry.set("trace_id", record.id);
    entry.set("route", record.route);
    entry.set("status", record.status);
    entry.set("total_us", static_cast<double>(record.total_ns) * 1e-3);
    Json stages = Json::object();
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (record.stage_calls[s] == 0) continue;
      Json stage = Json::object();
      stage.set("us", static_cast<double>(record.stage_ns[s]) * 1e-3);
      stage.set("calls", static_cast<std::int64_t>(record.stage_calls[s]));
      stages.set(stage_name(static_cast<Stage>(s)), stage);
    }
    entry.set("stages", stages);
    list.push_back(entry);
  }
  Json out = Json::object();
  out.set("count", static_cast<std::int64_t>(list.size()));
  out.set("slow_threshold_us", static_cast<double>(kSlowThresholdNs) * 1e-3);
  out.set("recorded_total", static_cast<std::int64_t>(traces_recorded()));
  out.set("requests", list);
  return out;
}

void RequestTracer::collect_metrics(std::vector<MetricFamily>& out) const {
  MetricFamily family;
  family.name = "mcb_stage_duration_seconds";
  family.help = "Per-stage request latency (parse/route/encode/cache/classify/serialize)";
  family.type = MetricType::kHistogram;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    MetricPoint point;
    point.labels = {{"stage", stage_name(static_cast<Stage>(s))}};
    stages_[s].add_to(point);
    family.points.push_back(std::move(point));
  }
  out.push_back(std::move(family));

  // Hardware-counter families. mcb_perf_available is exported in both
  // states — scrapers (and the CI gate) distinguish "counters off" from
  // "metrics broken" by its presence with value 0.
  MetricFamily available;
  available.name = "mcb_perf_available";
  available.help =
      "1 when per-span hardware counters are attached, 0 in the "
      "latency-only fallback (ENOSYS/EACCES/EPERM/no PMU)";
  available.type = MetricType::kGauge;
  available.points.push_back(scalar_point({}, counters_attached_ ? 1.0 : 0.0));
  out.push_back(std::move(available));

  struct CounterFamily {
    const char* name;
    const char* help;
    perf::Counter counter;
    double unit_scale;
  };
  const CounterFamily counter_families[] = {
      {"mcb_stage_cycles_total",
       "CPU cycles attributed to each request stage (multiplexing-scaled)",
       perf::Counter::kCycles, 1.0},
      {"mcb_stage_instructions_total",
       "Instructions retired in each request stage (multiplexing-scaled)",
       perf::Counter::kInstructions, 1.0},
      {"mcb_stage_llc_miss_bytes_total",
       "Estimated DRAM traffic per stage: LLC misses x 64-byte lines",
       perf::Counter::kLlcMisses,
       static_cast<double>(perf::kLlcLineBytes)},
  };
  for (const auto& spec : counter_families) {
    MetricFamily counters;
    counters.name = spec.name;
    counters.help = spec.help;
    counters.type = MetricType::kCounter;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const auto stage = static_cast<Stage>(s);
      counters.points.push_back(scalar_point(
          {{"stage", stage_name(stage)}},
          static_cast<double>(stage_counter_total(stage, spec.counter)) *
              spec.unit_scale));
    }
    out.push_back(std::move(counters));
  }
}

}  // namespace mcb::obs
