// Order statistics for the benchmark's reports.
//
// A timing is reported as its median and a fixed tail percentile, which
// is reported only with at least ten samples strictly beyond it
// (nearest-rank definition). A failed or refused request enters a
// latency sample set as +infinity, so it misses every latency limit
// instead of vanishing from the tail.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `samples` at quantile q in (0, 1]. Sorts
/// its argument. Returns NaN on an empty set.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// Whether n samples leave at least kMinTailSamples strictly beyond the
/// nearest-rank q-quantile (n - ceil(q * n) >= 10).
bool tail_supported(std::size_t n, double q);

/// The q-percentile as reported: its value when tail_supported() holds
/// for the sample count, NaN otherwise. Every reported percentile above
/// the median goes through this.
double tail_percentile(const std::vector<double>& samples, double q);

/// "p99" / "p95" / "p50" label for a quantile.
std::string quantile_label(double q);

}  // namespace perfbench
