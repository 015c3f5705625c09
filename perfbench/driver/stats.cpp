#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

bool tail_supported(std::size_t n, double q) {
  if (n == 0) return false;
  return n - nearest_rank(n, q) >= kMinTailSamples;
}

double tail_percentile(const std::vector<double>& samples, double q) {
  if (!tail_supported(samples.size(), q)) return std::numeric_limits<double>::quiet_NaN();
  return percentile(samples, q);
}

std::string quantile_label(double q) {
  const double pct = q * 100.0;
  char buffer[16];
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buffer, sizeof(buffer), "p%.0f", pct);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p%.1f", pct);
  }
  return buffer;
}

}  // namespace perfbench
