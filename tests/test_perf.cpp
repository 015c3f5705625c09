// Tests for the self-characterization subsystem (DESIGN.md §14): the
// CounterSource seam and its degradation contract, multiplexing scaling
// and wraparound clamping, per-stage counter attribution through Span,
// the roofline StageProfileCollector, the SIGPROF sampling profiler's collapsed
// output, and a TSan hammer racing request threads against a /metrics
// scraper and a live profiler capture.
//
// Everything drives fake CounterSources: the real perf_event_open path
// is exercised opportunistically (most CI containers and VMs have no
// usable PMU — exactly the degraded path these tests pin down).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf/counters.hpp"
#include "obs/perf/profiler.hpp"
#include "obs/trace.hpp"
#include "roofline/machine_spec.hpp"
#include "roofline/stage_profile.hpp"

namespace mcb {
namespace {

using obs::perf::Counter;
using obs::perf::CounterSample;
using obs::perf::CounterSource;
using obs::perf::kCounterCount;
using obs::perf::kLlcLineBytes;

/// A source that fails every read with a fixed errno — what the
/// production source looks like under seccomp (ENOSYS), perf_event_
/// paranoid (EACCES/EPERM) or a PMU-less VM (ENOENT).
class FailingCounterSource final : public CounterSource {
 public:
  explicit FailingCounterSource(int error) : error_(error) {}
  bool read_counters(CounterSample&) noexcept override { return false; }
  bool available() const noexcept override { return false; }
  int error() const noexcept override { return error_; }
  bool hot_path_capable() const noexcept override { return false; }

 private:
  int error_;
};

/// A scripted source: each read returns the next sample in the script
/// (the last one repeats once exhausted). Thread-compatible, not
/// thread-safe — for single-threaded attribution tests.
class ScriptedCounterSource final : public CounterSource {
 public:
  explicit ScriptedCounterSource(std::vector<CounterSample> script)
      : script_(std::move(script)) {}
  bool read_counters(CounterSample& out) noexcept override {
    if (script_.empty()) return false;
    out = script_[next_];
    if (next_ + 1 < script_.size()) ++next_;
    return true;
  }
  bool available() const noexcept override { return !script_.empty(); }
  int error() const noexcept override { return 0; }
  bool hot_path_capable() const noexcept override { return true; }

 private:
  std::vector<CounterSample> script_;
  std::size_t next_ = 0;
};

/// Thread-safe monotonic source for the hammer: every read advances a
/// shared tick so deltas are always positive and non-zero.
class TickingCounterSource final : public CounterSource {
 public:
  bool read_counters(CounterSample& out) noexcept override {
    // relaxed: any unique monotonic value works; no ordering needed
    const std::uint64_t tick = tick_.fetch_add(7, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      out.value[i] = tick * (i + 1);
    }
    return true;
  }
  bool available() const noexcept override { return true; }
  int error() const noexcept override { return 0; }
  bool hot_path_capable() const noexcept override { return true; }

 private:
  std::atomic<std::uint64_t> tick_{1};
};

CounterSample sample_of(std::uint64_t cycles, std::uint64_t instructions,
                        std::uint64_t llc_loads, std::uint64_t llc_misses,
                        std::uint64_t branch_misses) {
  CounterSample s;
  s.value = {cycles, instructions, llc_loads, llc_misses, branch_misses};
  return s;
}

// --------------------------------------------------- scaling arithmetic

TEST(PerfCounters, ScaleForMultiplexing) {
  using obs::perf::scale_for_multiplexing;
  // Fully scheduled: raw value passes through.
  EXPECT_EQ(scale_for_multiplexing(1000, 500, 500), 1000U);
  EXPECT_EQ(scale_for_multiplexing(1000, 500, 600), 1000U);
  // Never scheduled: nothing to extrapolate.
  EXPECT_EQ(scale_for_multiplexing(1000, 500, 0), 0U);
  // Half-scheduled: the estimate doubles the raw count.
  EXPECT_EQ(scale_for_multiplexing(1000, 1000, 500), 2000U);
  // Quarter-scheduled.
  EXPECT_EQ(scale_for_multiplexing(400, 4000, 1000), 1600U);
}

TEST(PerfCounters, CounterNamesAreStable) {
  EXPECT_STREQ(obs::perf::counter_name(Counter::kCycles), "cycles");
  EXPECT_STREQ(obs::perf::counter_name(Counter::kInstructions), "instructions");
  EXPECT_STREQ(obs::perf::counter_name(Counter::kLlcLoads), "llc_loads");
  EXPECT_STREQ(obs::perf::counter_name(Counter::kLlcMisses), "llc_misses");
  EXPECT_STREQ(obs::perf::counter_name(Counter::kBranchMisses), "branch_misses");
}

// ------------------------------------------------------- degraded path

TEST(PerfCounters, TracerDegradesWhenSourceUnavailable) {
  for (const int err : {ENOSYS, EACCES, EPERM}) {
    obs::RequestTracer tracer;
    FailingCounterSource source(err);
    tracer.set_counter_source(&source);
    EXPECT_FALSE(tracer.counters_attached());
    EXPECT_EQ(tracer.counter_source()->error(), err);

    // Latency-only fallback: spans still time stages.
    std::uint64_t now = 0;
    tracer.set_clock([&now] { return now; });
    obs::TraceContext trace = tracer.make_trace();
    obs::TraceScope scope(&trace);
    {
      obs::Span span(obs::Stage::kEncode);
      now += 100;
    }
    EXPECT_EQ(trace.stage_ns(obs::Stage::kEncode), 100U);
    EXPECT_EQ(trace.stage_counter(obs::Stage::kEncode, Counter::kCycles), 0U);
    tracer.finish(trace, 200, "POST /predict");
    EXPECT_EQ(tracer.counted_requests(), 0U);

    // The availability gauge is exported with value 0 — present either
    // way is the scrape contract.
    std::vector<obs::MetricFamily> families;
    tracer.collect_metrics(families);
    const std::string text = obs::render_prometheus(families);
    EXPECT_NE(text.find("mcb_perf_available 0"), std::string::npos);
  }
}

TEST(PerfCounters, SyscallOnlySourceIsNotAttached) {
  // A source that works but only via syscall reads would multiply every
  // span's cost: the tracer leaves requests latency-only.
  class SyscallOnlySource final : public CounterSource {
   public:
    bool read_counters(CounterSample& out) noexcept override {
      out = sample_of(1, 1, 1, 1, 1);
      return true;
    }
    bool available() const noexcept override { return true; }
    int error() const noexcept override { return 0; }
    bool hot_path_capable() const noexcept override { return false; }
  };
  SyscallOnlySource source;
  obs::RequestTracer tracer;
  tracer.set_counter_source(&source);
  EXPECT_FALSE(tracer.counters_attached());
}

// -------------------------------------------------- counter attribution

TEST(PerfCounters, SpanAttributesCounterDeltasPerStage) {
  obs::RequestTracer tracer;
  // Script: span start, span end — instructions +6400, misses +10.
  ScriptedCounterSource source({
      sample_of(1000, 10000, 500, 100, 50),
      sample_of(3000, 16400, 900, 110, 70),
  });
  tracer.set_counter_source(&source);
  ASSERT_TRUE(tracer.counters_attached());

  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kClassify); }
  EXPECT_EQ(trace.stage_counter(obs::Stage::kClassify, Counter::kCycles), 2000U);
  EXPECT_EQ(trace.stage_counter(obs::Stage::kClassify, Counter::kInstructions),
            6400U);
  EXPECT_EQ(trace.stage_counter(obs::Stage::kClassify, Counter::kLlcMisses), 10U);

  // Totals flush once, at finish().
  EXPECT_EQ(tracer.stage_counter_total(obs::Stage::kClassify, Counter::kCycles), 0U);
  tracer.finish(trace, 200, "POST /predict");
  EXPECT_EQ(tracer.stage_counter_total(obs::Stage::kClassify, Counter::kCycles),
            2000U);
  EXPECT_EQ(tracer.stage_counter_total(obs::Stage::kClassify, Counter::kLlcMisses),
            10U);
  EXPECT_EQ(tracer.counted_requests(), 1U);

  // The exported byte family applies the 64-byte line model.
  std::vector<obs::MetricFamily> families;
  tracer.collect_metrics(families);
  const std::string text = obs::render_prometheus(families);
  EXPECT_NE(text.find("mcb_perf_available 1"), std::string::npos);
  EXPECT_NE(text.find("mcb_stage_cycles_total{stage=\"classify\"} 2000"),
            std::string::npos);
  EXPECT_NE(
      text.find("mcb_stage_llc_miss_bytes_total{stage=\"classify\"} 640"),
      std::string::npos);
}

TEST(PerfCounters, MultiplexedReadingsScaleLikeProduction) {
  // Simulate what PerfCounterSource does under multiplexing: raw counts
  // scaled by enabled/running before they reach the tracer. A group
  // that ran half the time doubles its raw deltas.
  const std::uint64_t raw_start = 500, raw_end = 900;
  const std::uint64_t start_scaled =
      obs::perf::scale_for_multiplexing(raw_start, 2000, 1000);
  const std::uint64_t end_scaled =
      obs::perf::scale_for_multiplexing(raw_end, 4000, 2000);
  ScriptedCounterSource source({
      sample_of(start_scaled, start_scaled, 0, 0, 0),
      sample_of(end_scaled, end_scaled, 0, 0, 0),
  });
  obs::RequestTracer tracer;
  tracer.set_counter_source(&source);
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kEncode); }
  EXPECT_EQ(trace.stage_counter(obs::Stage::kEncode, Counter::kCycles),
            (raw_end - raw_start) * 2);
}

TEST(PerfCounters, WraparoundClampsToZeroInsteadOfPoisoning) {
  // End < start (counter wrap, or a multiplexing rescale that shrank
  // the estimate): the delta must clamp to 0, not add ~2^64.
  ScriptedCounterSource source({
      sample_of(/*cycles=*/1000, 5000, 0, 40, 0),
      sample_of(/*cycles=*/900, 6000, 0, 30, 0),
  });
  obs::RequestTracer tracer;
  tracer.set_counter_source(&source);
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kParse); }
  EXPECT_EQ(trace.stage_counter(obs::Stage::kParse, Counter::kCycles), 0U);
  EXPECT_EQ(trace.stage_counter(obs::Stage::kParse, Counter::kLlcMisses), 0U);
  // Counters that did advance still attribute normally.
  EXPECT_EQ(trace.stage_counter(obs::Stage::kParse, Counter::kInstructions),
            1000U);
}

// ---------------------------------------- roofline stage self-profiling

TEST(StageProfile, DerivesIntensityAndBoundedness) {
  obs::RequestTracer tracer;
  // classify: 64000 instructions over 10 misses * 64 B = 100 F/B —
  // far above Fugaku's ~3.3 ridge, so compute-bound. parse: 640
  // instructions over 1000 misses — deep memory-bound.
  ScriptedCounterSource source({
      sample_of(0, 0, 0, 0, 0),
      sample_of(0, 64000, 0, 10, 0),
      sample_of(0, 64000, 0, 10, 0),
      sample_of(0, 64640, 0, 1010, 0),
  });
  tracer.set_counter_source(&source);
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kClassify); }
  { obs::Span span(obs::Stage::kParse); }
  tracer.finish(trace, 200, "POST /predict");

  const Characterizer characterizer(fugaku_node_spec());
  const StageProfileCollector collector(tracer, characterizer);
  EXPECT_DOUBLE_EQ(collector.stage_intensity(obs::Stage::kClassify),
                   64000.0 / (10.0 * 64.0));
  EXPECT_DOUBLE_EQ(collector.stage_intensity(obs::Stage::kParse),
                   640.0 / (1000.0 * 64.0));
  // No data for encode: absent, not fabricated.
  EXPECT_DOUBLE_EQ(collector.stage_intensity(obs::Stage::kEncode), 0.0);

  std::vector<obs::MetricFamily> families;
  collector.collect_metrics(families);
  ASSERT_EQ(families.size(), 2U);
  const std::string text = obs::render_prometheus(families);
  EXPECT_NE(text.find("mcb_stage_arith_intensity{stage=\"classify\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("mcb_stage_boundedness{stage=\"classify\",label=\"compute-bound\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mcb_stage_boundedness{stage=\"parse\",label=\"memory-bound\"} 0"),
            std::string::npos);
  EXPECT_EQ(text.find("stage=\"encode\""), std::string::npos);
}

TEST(StageProfile, PureComputeStageUsesTheSentinel) {
  obs::RequestTracer tracer;
  ScriptedCounterSource source({
      sample_of(0, 0, 0, 0, 0),
      sample_of(0, 5000, 0, 0, 0),  // instructions, zero misses
  });
  tracer.set_counter_source(&source);
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kRoute); }
  tracer.finish(trace, 200, "GET /jobs");

  const Characterizer characterizer(fugaku_node_spec());
  const StageProfileCollector collector(tracer, characterizer);
  EXPECT_DOUBLE_EQ(collector.stage_intensity(obs::Stage::kRoute),
                   kPureComputeIntensity);
  std::vector<obs::MetricFamily> families;
  collector.collect_metrics(families);
  const std::string text = obs::render_prometheus(families);
  EXPECT_NE(text.find("label=\"compute-bound\""), std::string::npos);
}

TEST(StageProfile, DegradedTracerYieldsEmptyFamilies) {
  obs::RequestTracer tracer;  // no counter source at all
  const Characterizer characterizer(fugaku_node_spec());
  const StageProfileCollector collector(tracer, characterizer);
  std::vector<obs::MetricFamily> families;
  collector.collect_metrics(families);
  ASSERT_EQ(families.size(), 2U);
  EXPECT_TRUE(families[0].points.empty());
  EXPECT_TRUE(families[1].points.empty());
}

// ------------------------------------------------------------ profiler

TEST(Profiler, CaptureProducesWellFormedCollapsedStacks) {
  // Keep a thread busy so the capture has something to attribute even
  // if the runner's wall-clock sampling lands between test work.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  });

  obs::perf::ProfileOptions options;
  options.hz = 997;
  options.seconds = 0.4;
  obs::perf::ProfileReport report;
  std::string error;
  const bool ok = obs::perf::SamplingProfiler::capture(options, report, error);
  stop.store(true, std::memory_order_relaxed);
  burner.join();

  ASSERT_TRUE(ok) << error;
  EXPECT_GT(report.samples, 0U);
  ASSERT_FALSE(report.collapsed.empty());
  // Every line: at least one frame, ';'-joined, exactly one trailing
  // " <count>" with count >= 1. Frames never contain spaces (sanitized).
  std::size_t line_start = 0;
  std::size_t lines = 0;
  while (line_start < report.collapsed.size()) {
    std::size_t line_end = report.collapsed.find('\n', line_start);
    ASSERT_NE(line_end, std::string::npos) << "unterminated last line";
    const std::string line =
        report.collapsed.substr(line_start, line_end - line_start);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << "frame contains a space: " << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty());
    for (const char c : count) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_FALSE(line.substr(0, space).empty());
    ++lines;
    line_start = line_end + 1;
  }
  EXPECT_GT(lines, 0U);
}

TEST(Profiler, ConcurrentCaptureIsRejectedAsBusy) {
  std::string first_error;
  obs::perf::ProfileReport first_report;
  std::thread first([&first_error, &first_report] {
    obs::perf::ProfileOptions options;
    options.seconds = 0.6;
    options.hz = 97;
    (void)obs::perf::SamplingProfiler::capture(options, first_report,
                                               first_error);
  });
  // Wait until the first capture holds the busy flag.
  for (int i = 0; i < 200 && !obs::perf::SamplingProfiler::busy(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (obs::perf::SamplingProfiler::busy()) {
    obs::perf::ProfileOptions options;
    options.seconds = 0.2;
    obs::perf::ProfileReport report;
    std::string error;
    EXPECT_FALSE(obs::perf::SamplingProfiler::capture(options, report, error));
    EXPECT_NE(error.find("busy"), std::string::npos);
  }
  first.join();
  EXPECT_FALSE(obs::perf::SamplingProfiler::busy());
}

// ------------------------------------------------ satellite 3: the hammer

TEST(PerfCounters, HammerWithScraperAndProfileCapture) {
  obs::RequestTracer tracer;
  TickingCounterSource source;
  tracer.set_counter_source(&source);
  ASSERT_TRUE(tracer.counters_attached());
  const Characterizer characterizer(fugaku_node_spec());
  const StageProfileCollector stage_profile(tracer, characterizer);

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kIters; ++i) {
        obs::TraceContext trace = tracer.make_trace();
        obs::TraceScope scope(&trace);
        { obs::Span span(obs::Stage::kParse); }
        { obs::Span span(obs::Stage::kClassify); }
        // Errored, so every request also contends for the recorder shards.
        tracer.finish(trace, 500, "POST /predict");
      }
    });
  }
  // A scraper races the writers (tracer + derived roofline families),
  // exactly what a live /metrics endpoint does.
  threads.emplace_back([&tracer, &stage_profile, &done] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::MetricFamily> families;
      tracer.collect_metrics(families);
      stage_profile.collect_metrics(families);
      (void)obs::render_prometheus(families);
      std::this_thread::yield();
    }
  });
  // And one /debug/profile capture runs while the hammer is hot.
  threads.emplace_back([] {
    obs::perf::ProfileOptions options;
    options.hz = 397;
    options.seconds = 0.3;
    obs::perf::ProfileReport report;
    std::string error;
    (void)obs::perf::SamplingProfiler::capture(options, report, error);
  });

  for (int t = 0; t < kThreads; ++t) threads[static_cast<std::size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (std::size_t t = kThreads; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(tracer.counted_requests(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Every span advanced the ticking source, so both stages accumulated
  // positive instruction counts and the collector classifies them.
  EXPECT_GT(tracer.stage_counter_total(obs::Stage::kParse, Counter::kInstructions),
            0U);
  EXPECT_GT(
      tracer.stage_counter_total(obs::Stage::kClassify, Counter::kInstructions),
      0U);
  std::vector<obs::MetricFamily> families;
  stage_profile.collect_metrics(families);
  ASSERT_EQ(families.size(), 2U);
  EXPECT_EQ(families[0].points.size(), 2U);
}

// --------------------------------------- the real source, best effort

TEST(PerfCounters, ProductionSourceHonorsItsOwnContract) {
  // Whatever this machine supports, the source must be internally
  // consistent: available() implies reads succeed; !available() implies
  // an errno and failed reads.
  obs::perf::PerfCounterSource source;
  CounterSample sample;
  if (source.available()) {
    EXPECT_TRUE(source.read_counters(sample));
    EXPECT_EQ(source.error(), 0);
  } else {
    EXPECT_FALSE(source.read_counters(sample));
    EXPECT_NE(source.error(), 0);
    EXPECT_FALSE(source.hot_path_capable());
  }
  // Either way the tracer wires it without crashing.
  obs::RequestTracer tracer;
  tracer.set_counter_source(&source);
  obs::TraceContext trace = tracer.make_trace();
  obs::TraceScope scope(&trace);
  { obs::Span span(obs::Stage::kEncode); }
  tracer.finish(trace, 200, "POST /predict");
}

}  // namespace
}  // namespace mcb
