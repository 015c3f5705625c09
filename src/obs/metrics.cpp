#include "obs/metrics.hpp"

#include <cstdio>

namespace mcb::obs {
namespace {

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// %g-style shortest representation; Prometheus accepts scientific
/// notation and "+Inf" (handled by callers where needed).
std::string format_value(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void append_labels(std::string& out, const LabelSet& labels,
                   const char* extra_key = nullptr,
                   const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += prometheus_escape(value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;  // bucket edges are numeric; no escaping needed
    out += '"';
  }
  out += '}';
}

Json labels_json(const LabelSet& labels) {
  Json out = Json::object();
  for (const auto& [key, value] : labels) out.set(key, value);
  return out;
}

}  // namespace

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  std::size_t bucket = kBoundsNs.size();  // +Inf
  for (std::size_t b = 0; b < kBoundsNs.size(); ++b) {
    if (ns <= kBoundsNs[b]) {
      bucket = b;
      break;
    }
  }
  // relaxed: independent monotonic cells; a scrape tolerates a
  // momentarily inconsistent bucket/sum pair.
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);  // relaxed: see above
}

std::uint64_t LatencyHistogram::add_to(MetricPoint& point) const {
  if (point.bounds.empty()) {
    for (const std::uint64_t ns : kBoundsNs) {
      point.bounds.push_back(static_cast<double>(ns) * 1e-9);
    }
    point.cumulative.assign(kBoundsNs.size(), 0);
  }
  std::uint64_t running = 0;
  for (std::size_t b = 0; b < kBoundsNs.size(); ++b) {
    running += buckets_[b].load(std::memory_order_relaxed);  // relaxed: scrape-time read
    point.cumulative[b] += running;
  }
  running += buckets_[kBoundsNs.size()].load(std::memory_order_relaxed);  // relaxed: see above
  point.count += running;
  // relaxed: see above
  point.sum += static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return running;
}

void Registry::add(const Collector* collector) {
  if (collector == nullptr) return;
  MutexLock lock(mutex_);
  collectors_.push_back(collector);
}

std::vector<MetricFamily> Registry::gather() const {
  std::vector<const Collector*> snapshot;
  {
    MutexLock lock(mutex_);
    snapshot = collectors_;
  }
  std::vector<MetricFamily> families;
  for (const Collector* collector : snapshot) {
    collector->collect_metrics(families);
  }
  return families;
}

std::string prometheus_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_prometheus(const std::vector<MetricFamily>& families) {
  std::string out;
  for (const auto& family : families) {
    out += "# HELP ";
    out += family.name;
    out += ' ';
    // HELP text uses the same escaping rules minus the quote.
    for (const char c : family.help) {
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '\n';
    out += "# TYPE ";
    out += family.name;
    out += ' ';
    out += type_name(family.type);
    out += '\n';

    for (const auto& point : family.points) {
      if (family.type == MetricType::kHistogram) {
        std::uint64_t running = 0;
        for (std::size_t b = 0; b < point.bounds.size(); ++b) {
          running = b < point.cumulative.size() ? point.cumulative[b] : running;
          out += family.name;
          out += "_bucket";
          append_labels(out, point.labels, "le", format_value(point.bounds[b]));
          out += ' ';
          out += std::to_string(running);
          out += '\n';
        }
        out += family.name;
        out += "_bucket";
        append_labels(out, point.labels, "le", "+Inf");
        out += ' ';
        out += std::to_string(point.count);
        out += '\n';
        out += family.name;
        out += "_sum";
        append_labels(out, point.labels);
        out += ' ';
        out += format_value(point.sum);
        out += '\n';
        out += family.name;
        out += "_count";
        append_labels(out, point.labels);
        out += ' ';
        out += std::to_string(point.count);
        out += '\n';
      } else {
        out += family.name;
        append_labels(out, point.labels);
        out += ' ';
        out += format_value(point.value);
        out += '\n';
      }
    }
  }
  return out;
}

Json render_json(const std::vector<MetricFamily>& families) {
  Json out = Json::object();
  for (const auto& family : families) {
    Json entry = Json::object();
    entry.set("type", type_name(family.type));
    entry.set("help", family.help);
    Json points = Json::array();
    for (const auto& point : family.points) {
      Json p = Json::object();
      if (!point.labels.empty()) p.set("labels", labels_json(point.labels));
      if (family.type == MetricType::kHistogram) {
        Json bounds = Json::array();
        for (const double b : point.bounds) bounds.push_back(b);
        Json cumulative = Json::array();
        for (const std::uint64_t c : point.cumulative) {
          cumulative.push_back(static_cast<std::int64_t>(c));
        }
        p.set("bounds", bounds);
        p.set("cumulative", cumulative);
        p.set("count", static_cast<std::int64_t>(point.count));
        p.set("sum", point.sum);
      } else {
        p.set("value", point.value);
      }
      points.push_back(p);
    }
    entry.set("points", points);
    out.set(family.name, entry);
  }
  return out;
}

MetricPoint scalar_point(LabelSet labels, double value) {
  MetricPoint point;
  point.labels = std::move(labels);
  point.value = value;
  return point;
}

}  // namespace mcb::obs
