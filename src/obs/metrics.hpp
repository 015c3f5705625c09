// Metrics registry + exposition (DESIGN.md §10, "Observability").
//
// One metrics surface for the whole process: every component that has
// counters or latency distributions implements (or registers) a
// Collector; the Registry gathers snapshot MetricFamily lists from all
// of them at scrape time and the renderers turn one snapshot into
// either the Prometheus text exposition format (GET /metrics?format=
// prometheus) or a JSON tree (the default /metrics view). Collection is
// pull-based: nothing is copied or locked until a scrape happens, so
// the serving hot path only ever touches its own atomics/histograms.
//
// Histogram points follow the Prometheus model: `bounds` holds the
// finite upper bucket edges (ascending), `cumulative[i]` counts samples
// <= bounds[i], and `count`/`sum` describe the whole distribution (the
// implicit +Inf bucket equals `count`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/sync.hpp"

namespace mcb::obs {

using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// One sample (counter/gauge) or one labelled histogram series.
struct MetricPoint {
  LabelSet labels;
  double value = 0.0;  ///< counter/gauge value; unused for histograms

  // Histogram-only fields (empty bounds => scalar point).
  std::vector<double> bounds;              ///< finite upper edges, ascending
  std::vector<std::uint64_t> cumulative;   ///< samples <= bounds[i]
  std::uint64_t count = 0;                 ///< total samples (+Inf bucket)
  double sum = 0.0;                        ///< sum of observed values
};

struct MetricFamily {
  std::string name;  ///< Prometheus-safe: [a-zA-Z_:][a-zA-Z0-9_:]*
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricPoint> points;
};

/// Lock-free latency histogram on the one bucket ladder every latency
/// family shares (stage spans and per-route handler time): 1 us to
/// 256 s in x4 steps, plus +Inf. A sample costs two relaxed atomic adds;
/// the count is derived at scrape time as the sum of all buckets, so a
/// snapshot's count always equals its +Inf bucket.
class LatencyHistogram {
 public:
  /// Finite upper bounds in ns; the top one keeps a long /train finite.
  static constexpr std::array<std::uint64_t, 15> kBoundsNs = {
      1'000,         4'000,          16'000,         64'000,         256'000,
      1'000'000,     4'000'000,      16'000'000,     64'000'000,     256'000'000,
      1'000'000'000, 4'000'000'000,  16'000'000'000, 64'000'000'000, 256'000'000'000};

  void record(std::uint64_t ns) noexcept;

  /// Adds this histogram's samples into `point` (setting its bounds on
  /// first use, so several histograms can merge into one series) and
  /// returns how many samples it added.
  std::uint64_t add_to(MetricPoint& point) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBoundsNs.size() + 1> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Interface for anything that can contribute metric families to a
/// scrape. Implementations must be safe to call from any thread.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void collect_metrics(std::vector<MetricFamily>& out) const = 0;
};

/// Adapter for components that don't want to inherit: wraps a lambda.
class CallbackCollector final : public Collector {
 public:
  explicit CallbackCollector(std::function<void(std::vector<MetricFamily>&)> fn)
      : fn_(std::move(fn)) {}
  void collect_metrics(std::vector<MetricFamily>& out) const override { fn_(out); }

 private:
  std::function<void(std::vector<MetricFamily>&)> fn_;
};

/// Holds non-owning pointers to registered collectors and gathers their
/// snapshots. Registration happens at wiring time (server construction);
/// gather() may run concurrently with itself and with registration.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The collector must outlive the registry (it is not owned).
  void add(const Collector* collector);

  /// Snapshot every registered collector, in registration order.
  std::vector<MetricFamily> gather() const;

 private:
  mutable Mutex mutex_;
  std::vector<const Collector*> collectors_ MCB_GUARDED_BY(mutex_);
};

/// Escape a label value for the exposition format: backslash, double
/// quote and newline are escaped per the Prometheus spec.
std::string prometheus_escape(std::string_view value);

/// Render a snapshot in the Prometheus text exposition format
/// (text/plain; version=0.0.4): one # HELP + # TYPE pair per family,
/// histogram series expanded into _bucket{le=...}/_sum/_count.
std::string render_prometheus(const std::vector<MetricFamily>& families);

/// Render the same snapshot as JSON: {family: {"type":..., "help":...,
/// "points":[{"labels":{...},"value":...} | histogram fields]}}.
Json render_json(const std::vector<MetricFamily>& families);

/// Convenience: build a scalar (counter/gauge) point.
MetricPoint scalar_point(LabelSet labels, double value);

}  // namespace mcb::obs
