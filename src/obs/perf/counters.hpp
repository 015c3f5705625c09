// Hardware-counter telemetry (DESIGN.md §14, "Self-characterization").
//
// A CounterSource is the injectable seam between the span tracer and the
// kernel's perf subsystem: one grouped read returns the calling thread's
// cycles, instructions, LLC loads/misses and branch misses, already
// scaled for multiplexing. The production implementation
// (PerfCounterSource) opens one perf_event_open(2) group per thread —
// leader = cycles with PERF_FORMAT_GROUP so all five counts come from a
// single self-consistent kernel read — and prefers the userspace rdpmc
// fast path (mmap'd perf pages + the seqlock protocol) so a Span's two
// reads cost tens of nanoseconds instead of two read(2) syscalls.
//
// Degradation contract: perf_event_open fails in most containers and
// locked-down VMs (ENOSYS under seccomp, EACCES/EPERM under
// perf_event_paranoid, ENOENT with no PMU). The source then reports
// available() == false with the first errno, the tracer never attaches
// counters to a request, spans fall back to latency-only, and /metrics
// exports mcb_perf_available 0. Tests drive both sides through fake
// CounterSources; nothing in the serving stack branches on #ifdefs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mcb::obs::perf {

/// The fixed counter group, in group (and read_format) order.
enum class Counter : std::uint8_t {
  kCycles = 0,       ///< PERF_COUNT_HW_CPU_CYCLES (group leader)
  kInstructions,     ///< PERF_COUNT_HW_INSTRUCTIONS
  kLlcLoads,         ///< PERF_COUNT_HW_CACHE_REFERENCES (LLC accesses)
  kLlcMisses,        ///< PERF_COUNT_HW_CACHE_MISSES (LLC misses -> DRAM)
  kBranchMisses,     ///< PERF_COUNT_HW_BRANCH_MISSES
};
inline constexpr std::size_t kCounterCount = 5;

const char* counter_name(Counter counter) noexcept;

/// Bytes moved per LLC miss: one x86-64 cache line. This is the serving
/// stack's own traffic model, distinct from the paper's A64FX
/// CounterModel (256-byte lines / CMG divisor) used for *job* counters.
inline constexpr std::uint64_t kLlcLineBytes = 64;

/// One grouped, multiplexing-scaled reading for the calling thread.
struct CounterSample {
  std::array<std::uint64_t, kCounterCount> value{};
};

/// The injectable counter seam. Implementations must keep read() free of
/// allocation and locks — Span calls it twice on the serving hot path
/// (R10–R12/R18 apply transitively).
class CounterSource {
 public:
  virtual ~CounterSource() = default;

  /// Read all counters for the calling thread in one consistent group.
  /// Returns false when the source is (or just became) unavailable.
  /// (Named read_counters, not read, so the lint call graph cannot
  /// conflate it with file/socket `read` functions.)
  virtual bool read_counters(CounterSample& out) noexcept = 0;

  /// True while grouped reads are expected to succeed. Once a hard
  /// failure is observed this stays false for the process lifetime.
  virtual bool available() const noexcept = 0;

  /// errno of the first hard failure (0 while available).
  virtual int error() const noexcept = 0;

  /// True when read() is cheap enough for per-span use (userspace rdpmc;
  /// no syscall). The tracer only attaches counters to requests when
  /// this holds.
  virtual bool hot_path_capable() const noexcept = 0;
};

/// perf_event_open(2)-backed production source. One counter group is
/// opened lazily per thread on first read (pid=0, cpu=-1: this thread,
/// any CPU, userspace only). Availability is a process-wide property:
/// the first thread to fail hard marks the source unavailable for all.
class PerfCounterSource final : public CounterSource {
 public:
  PerfCounterSource();
  ~PerfCounterSource() override;

  PerfCounterSource(const PerfCounterSource&) = delete;
  PerfCounterSource& operator=(const PerfCounterSource&) = delete;

  bool read_counters(CounterSample& out) noexcept override;
  bool available() const noexcept override;
  int error() const noexcept override;
  bool hot_path_capable() const noexcept override;
};

/// Scale a raw grouped reading for multiplexing: when the PMU had more
/// events than slots the kernel time-shares the group and reports
/// time_running < time_enabled; the estimate is raw * enabled/running
/// (perf_event_open(2)). Exposed for the fake-source tests so they
/// exercise the exact production arithmetic.
std::uint64_t scale_for_multiplexing(std::uint64_t raw, std::uint64_t time_enabled,
                                     std::uint64_t time_running) noexcept;

}  // namespace mcb::obs::perf
