// bench_check — the bench-smoke CI gate (DESIGN.md §8).
//
// Compares freshly generated BENCH_*.json artifacts (mcb-bench-v1,
// written by the benches' --json flag) against the committed baselines
// in bench/baselines/ (mcb-bench-baseline-v1). Usage:
//
//   bench_check BASELINE FRESH [BASELINE FRESH ...]
//
// Each baseline metric carries its own policy:
//
//   {"schema": "mcb-bench-baseline-v1",
//    "metrics": {"rf_batch_speedup": {"value": 3.0,
//                                     "direction": "higher",
//                                     "gate": "fail"}}}
//
// direction: which way is better ("higher" = throughput/speedup,
//            "lower" = latency). gate: "fail" metrics hard-fail the run
//            when they regress past 2x; "warn" metrics only ever warn;
//            "floor" metrics are absolute acceptance thresholds — any
//            fresh value worse than the baseline value hard-fails, with
//            no regression slack (used for contractual minimums like
//            the spatial-index speedup, where the baseline is the
//            requirement itself rather than a measured sample).
// Any gated metric regressed >= 2.0x  -> exit 1 (hard failure).
// Any metric regressed >= 1.25x       -> WARN line, exit stays 0.
// Any "floor" metric below its value  -> exit 1; within 25% above the
//                                        floor -> WARN.
//
// The 2x hard threshold is deliberately loose so shared CI runners
// (noisy neighbors, frequency scaling) do not flake the gate; the
// "fail"-gated metrics are machine-relative ratios (scalar vs batched
// on the same box, same run), which are far more stable than absolute
// throughput. To refresh a baseline after an intentional change, run
// the bench with --json locally (or download the CI artifact) and copy
// the new values into bench/baselines/, keeping direction/gate.
//
// A second mode validates a Prometheus text-exposition scrape (the
// bench-smoke job scrapes the live server's /metrics?format=prometheus):
//
//   bench_check --prom FILE
//
// checks that every sample belongs to a family announced by # TYPE,
// every family has # HELP, histogram buckets are cumulative with
// ascending le bounds, each histogram's +Inf bucket equals _count, and
// the server's route ledger holds: for every route, the status classes
// of mcb_http_requests_total sum to mcb_http_request_duration_seconds_count.
//
// A third mode validates a collapsed-stack profile (the load-test job
// captures GET /debug/profile against the live server — DESIGN.md §14):
//
//   bench_check --collapsed FILE
//
// every line must be `frame[;frame...] COUNT` — frames non-empty with
// no embedded spaces (the profiler sanitizes demangled names), a single
// space, and a positive integer count. An empty capture fails: even an
// idle server's parked threads produce wall-clock samples.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using mcb::Json;

constexpr double kWarnFactor = 1.25;
constexpr double kFailFactor = 2.0;

std::optional<Json> load_json(const std::string& path, const char* role) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench_check: cannot open %s file %s\n", role, path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  auto json = Json::parse(buffer.str(), &error);
  if (!json.has_value()) {
    std::fprintf(stderr, "bench_check: %s is not valid JSON: %s\n", path.c_str(), error.c_str());
  }
  return json;
}

/// Checks one baseline/fresh pair; returns the number of hard failures.
int check_pair(const std::string& baseline_path, const std::string& fresh_path) {
  const auto baseline = load_json(baseline_path, "baseline");
  const auto fresh = load_json(fresh_path, "fresh");
  if (!baseline.has_value() || !fresh.has_value()) return 1;
  if ((*baseline)["schema"].as_string() != "mcb-bench-baseline-v1") {
    std::fprintf(stderr, "bench_check: %s: expected schema mcb-bench-baseline-v1\n",
                 baseline_path.c_str());
    return 1;
  }
  if ((*fresh)["schema"].as_string() != "mcb-bench-v1") {
    std::fprintf(stderr, "bench_check: %s: expected schema mcb-bench-v1\n", fresh_path.c_str());
    return 1;
  }

  const Json& fresh_metrics = (*fresh)["metrics"];
  int failures = 0;
  std::printf("bench_check: %s vs %s\n", fresh_path.c_str(), baseline_path.c_str());
  for (const auto& [name, entry] : (*baseline)["metrics"].as_object()) {
    const double base_value = entry["value"].as_double();
    const std::string direction = entry["direction"].as_string();
    const std::string gate = entry["gate"].as_string();
    if (base_value <= 0.0 || (direction != "higher" && direction != "lower") ||
        (gate != "fail" && gate != "warn" && gate != "floor")) {
      std::fprintf(stderr, "  FAIL  %s: malformed baseline entry\n", name.c_str());
      ++failures;
      continue;
    }
    if (!fresh_metrics.contains(name)) {
      std::fprintf(stderr, "  FAIL  %s: missing from fresh artifact\n", name.c_str());
      ++failures;
      continue;
    }
    const double fresh_value = fresh_metrics[name].as_double();
    if (fresh_value <= 0.0) {
      std::fprintf(stderr, "  FAIL  %s: non-positive fresh value %g\n", name.c_str(), fresh_value);
      ++failures;
      continue;
    }
    // factor > 1 means the fresh value is worse than the baseline.
    const double factor =
        direction == "higher" ? base_value / fresh_value : fresh_value / base_value;
    const char* verdict = "ok  ";
    if (gate == "floor") {
      // Absolute threshold: the baseline value IS the requirement.
      if (factor > 1.0) {
        verdict = "FAIL";
        ++failures;
      } else if (factor >= 1.0 / kWarnFactor) {
        verdict = "WARN";  // passing, but within 25% of the floor
      }
    } else if (factor >= kFailFactor && gate == "fail") {
      verdict = "FAIL";
      ++failures;
    } else if (factor >= kWarnFactor) {
      verdict = "WARN";
    }
    std::printf("  %s  %-28s fresh %12.6g  baseline %12.6g  (%.2fx %s, gate=%s)\n", verdict,
                name.c_str(), fresh_value, base_value, factor,
                factor >= 1.0 ? "worse" : "better-or-equal", gate.c_str());
  }
  return failures;
}

// --------------------------------------------------------------- --prom

struct PromSample {
  std::string name;          // full sample name (incl. _bucket/_sum/_count)
  std::string series_key;    // labels with any le="..." removed
  std::string le;            // le label value ("" when absent)
  std::string route;         // route label value ("" when absent)
  double value = 0.0;
  std::size_t line = 0;
};

/// Parse `name{labels} value` / `name value`. Returns false (with a
/// diagnostic) on anything structurally broken.
bool parse_prom_sample(std::string_view text, std::size_t line_no, PromSample& out,
                       int& errors) {
  const auto bad = [&](const char* why) {
    std::fprintf(stderr, "  FAIL  line %zu: %s\n", line_no, why);
    ++errors;
    return false;
  };
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[i])) != 0 || text[i] == '_' ||
          text[i] == ':')) {
    ++i;
  }
  if (i == 0) return bad("sample does not start with a metric name");
  out.name = std::string(text.substr(0, i));
  out.series_key.clear();
  out.le.clear();
  out.route.clear();
  out.line = line_no;

  if (i < text.size() && text[i] == '{') {
    ++i;
    while (i < text.size() && text[i] != '}') {
      std::size_t key_start = i;
      while (i < text.size() && text[i] != '=') ++i;
      if (i >= text.size()) return bad("unterminated label pair");
      const std::string key(text.substr(key_start, i - key_start));
      ++i;  // '='
      if (i >= text.size() || text[i] != '"') return bad("label value not quoted");
      ++i;
      std::string value;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          value += text[i + 1];
          i += 2;
        } else {
          value += text[i];
          ++i;
        }
      }
      if (i >= text.size()) return bad("unterminated label value");
      ++i;  // closing quote
      if (key == "le") {
        out.le = value;
      } else {
        if (key == "route") out.route = value;
        if (!out.series_key.empty()) out.series_key += ',';
        out.series_key += key;
        out.series_key += '=';
        out.series_key += value;
      }
      if (i < text.size() && text[i] == ',') ++i;
    }
    if (i >= text.size()) return bad("unterminated label block");
    ++i;  // '}'
  }
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
  if (i >= text.size()) return bad("sample has no value");
  char* end = nullptr;
  const std::string value_text(text.substr(i));
  out.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str()) return bad("sample value is not a number");
  return true;
}

int check_prometheus(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench_check: cannot open exposition file %s\n", path.c_str());
    return 1;
  }
  int errors = 0;
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::map<std::string, bool> helped;        // family -> has # HELP
  // family -> series_key -> buckets in file order (le text, cumulative count)
  std::map<std::string, std::map<std::string, std::vector<std::pair<std::string, double>>>>
      buckets;
  // family -> series_key -> _count value
  std::map<std::string, std::map<std::string, double>> counts;
  // route -> {requests summed over status classes, latency-histogram count}
  std::map<std::string, std::pair<double, double>> ledger;
  std::size_t samples = 0;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::vector<std::string> parts = mcb::split(line, ' ');
      if (parts.size() >= 3 && parts[1] == "HELP") {
        helped[parts[2]] = true;
      } else if (parts.size() >= 4 && parts[1] == "TYPE") {
        if (types.count(parts[2]) != 0) {
          std::fprintf(stderr, "  FAIL  line %zu: duplicate # TYPE for %s\n", line_no,
                       parts[2].c_str());
          ++errors;
        }
        types[parts[2]] = parts[3];
      }
      continue;
    }
    PromSample sample;
    if (!parse_prom_sample(line, line_no, sample, errors)) continue;
    ++samples;

    // Resolve the owning family: histogram series names carry a suffix.
    std::string family = sample.name;
    bool is_bucket = false, is_count = false;
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (family.size() > suffix.size() &&
          family.compare(family.size() - suffix.size(), suffix.size(), suffix) == 0) {
        const std::string base = family.substr(0, family.size() - suffix.size());
        if (types.count(base) != 0 && types[base] == "histogram") {
          is_bucket = suffix == "_bucket";
          is_count = suffix == "_count";
          family = base;
          break;
        }
      }
    }
    if (types.count(family) == 0) {
      std::fprintf(stderr, "  FAIL  line %zu: sample %s precedes/lacks its # TYPE\n",
                   line_no, sample.name.c_str());
      ++errors;
      continue;
    }
    if (types[family] == "histogram" && family == sample.name) {
      std::fprintf(stderr,
                   "  FAIL  line %zu: bare sample %s for a histogram family\n",
                   line_no, sample.name.c_str());
      ++errors;
      continue;
    }
    if (is_bucket) {
      if (sample.le.empty()) {
        std::fprintf(stderr, "  FAIL  line %zu: _bucket sample without le label\n",
                     line_no);
        ++errors;
        continue;
      }
      buckets[family][sample.series_key].emplace_back(sample.le, sample.value);
    } else if (is_count) {
      counts[family][sample.series_key] = sample.value;
    }
    if (sample.name == "mcb_http_requests_total") {
      ledger[sample.route].first += sample.value;
    } else if (sample.name == "mcb_http_request_duration_seconds_count") {
      ledger[sample.route].second = sample.value;
    }
  }

  for (const auto& [route, totals] : ledger) {
    if (totals.first != totals.second) {
      std::fprintf(stderr,
                   "  FAIL  route \"%s\": mcb_http_requests_total sums to %g but "
                   "mcb_http_request_duration_seconds_count is %g\n",
                   route.c_str(), totals.first, totals.second);
      ++errors;
    }
  }

  for (const auto& [family, series] : buckets) {
    for (const auto& [key, entries] : series) {
      const std::string where = family + "{" + key + "}";
      double prev_le = -1.0, prev_count = -1.0;
      bool saw_inf = false;
      for (const auto& [le_text, cumulative] : entries) {
        if (saw_inf) {
          std::fprintf(stderr, "  FAIL  %s: bucket after le=\"+Inf\"\n", where.c_str());
          ++errors;
          break;
        }
        if (le_text == "+Inf") {
          saw_inf = true;
        } else {
          char* end = nullptr;
          const double le = std::strtod(le_text.c_str(), &end);
          if (end == le_text.c_str() || le <= prev_le) {
            std::fprintf(stderr, "  FAIL  %s: le bounds not ascending (le=\"%s\")\n",
                         where.c_str(), le_text.c_str());
            ++errors;
          }
          prev_le = le;
        }
        if (cumulative < prev_count) {
          std::fprintf(stderr, "  FAIL  %s: buckets not cumulative at le=\"%s\"\n",
                       where.c_str(), le_text.c_str());
          ++errors;
        }
        prev_count = cumulative;
      }
      if (!saw_inf) {
        std::fprintf(stderr, "  FAIL  %s: missing le=\"+Inf\" bucket\n", where.c_str());
        ++errors;
      } else if (counts.count(family) == 0 || counts[family].count(key) == 0) {
        std::fprintf(stderr, "  FAIL  %s: histogram series without _count\n",
                     where.c_str());
        ++errors;
      } else if (entries.back().second != counts[family][key]) {
        std::fprintf(stderr, "  FAIL  %s: +Inf bucket %g != _count %g\n", where.c_str(),
                     entries.back().second, counts[family][key]);
        ++errors;
      }
    }
  }
  for (const auto& [family, type] : types) {
    (void)type;
    if (helped.count(family) == 0) {
      std::fprintf(stderr, "  FAIL  %s: # TYPE without # HELP\n", family.c_str());
      ++errors;
    }
  }
  if (samples == 0) {
    std::fprintf(stderr, "  FAIL  %s: no samples in exposition\n", path.c_str());
    ++errors;
  }
  if (errors == 0) {
    std::printf(
        "bench_check: %s OK — %zu samples, %zu families, %zu histogram series valid\n",
        path.c_str(), samples, types.size(), [&] {
          std::size_t n = 0;
          for (const auto& [f, s] : buckets) {
            (void)f;
            n += s.size();
          }
          return n;
        }());
  }
  return errors;
}

// ---------------------------------------------------------- --collapsed

int check_collapsed(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench_check: cannot open collapsed profile %s\n", path.c_str());
    return 1;
  }
  int errors = 0;
  std::size_t stacks = 0;
  std::uint64_t total_samples = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    const auto bad = [&](const char* why) {
      std::fprintf(stderr, "  FAIL  line %zu: %s\n", line_no, why);
      ++errors;
    };
    if (line.empty()) {
      bad("empty line in collapsed profile");
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      bad("expected 'frames COUNT' with exactly one separating space");
      continue;
    }
    const std::string_view stack = std::string_view(line).substr(0, space);
    const std::string_view count_text = std::string_view(line).substr(space + 1);
    if (stack.find(' ') != std::string_view::npos) {
      bad("frame names contain an unsanitized space");
      continue;
    }
    bool frame_ok = true;
    std::size_t frame_start = 0;
    for (std::size_t i = 0; i <= stack.size(); ++i) {
      if (i == stack.size() || stack[i] == ';') {
        if (i == frame_start) frame_ok = false;  // empty frame (";;" or edge)
        frame_start = i + 1;
      }
    }
    if (!frame_ok) {
      bad("empty frame in stack");
      continue;
    }
    std::uint64_t count = 0;
    if (!mcb::parse_u64(count_text, count) || count == 0) {
      bad("count is not a positive integer");
      continue;
    }
    ++stacks;
    total_samples += count;
  }
  if (stacks == 0) {
    std::fprintf(stderr, "  FAIL  %s: no stacks in collapsed profile\n", path.c_str());
    ++errors;
  }
  if (errors == 0) {
    std::printf("bench_check: %s OK — %zu unique stacks, %llu samples\n", path.c_str(),
                stacks, static_cast<unsigned long long>(total_samples));
  }
  return errors;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string_view(argv[1]) == "--prom") {
    return check_prometheus(argv[2]) == 0 ? 0 : 1;
  }
  if (argc == 3 && std::string_view(argv[1]) == "--collapsed") {
    return check_collapsed(argv[2]) == 0 ? 0 : 1;
  }
  if (argc < 3 || (argc - 1) % 2 != 0) {
    std::fprintf(stderr,
                 "usage: bench_check BASELINE FRESH [BASELINE FRESH ...]\n"
                 "       bench_check --prom EXPOSITION_FILE\n"
                 "       bench_check --collapsed PROFILE_FILE\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    failures += check_pair(argv[i], argv[i + 1]);
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_check: %d hard failure(s) — a gated metric regressed >= %.1fx.\n"
                 "If the regression is intentional, refresh bench/baselines/ (see header).\n",
                 failures, kFailFactor);
    return 1;
  }
  std::printf("bench_check: all gated metrics within %.1fx of baseline\n", kFailFactor);
  return 0;
}
