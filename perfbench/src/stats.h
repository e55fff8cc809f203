#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

// Sample statistics and arrival schedules of the benchmark. Latencies are
// taken from the benchmark's own clock and summarised exactly here, never
// from the program's power-of-two histograms.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "doduo/util/rng.h"

namespace perfbench {

/// Exact nearest-rank percentile: the smallest sample with at least
/// q * n samples at or below it (q in [0, 1]). 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// The highest percentile (as a fraction, floored to 0.1 %) that still has
/// at least `beyond` samples above it; 0 when the sample is too small.
inline double HighestSupportedQuantile(size_t n, size_t beyond = 10) {
  if (n <= beyond) return 0.0;
  const double q = 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::floor(q * 1000.0) / 1000.0;
}

/// One latency sample summary: count, p50, p99 and the highest supported
/// percentile, rendered for the report.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;      // HighestSupportedQuantile(count)
  double top_value = 0.0;  // Percentile at top_q
};

inline LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.top_q = HighestSupportedQuantile(samples.size());
  s.top_value = s.top_q > 0 ? Percentile(samples, s.top_q) : 0.0;
  return s;
}

std::string FormatSummary(const LatencySummary& s);

/// Poisson arrival times (seconds from phase start) at `rate` per second
/// over [0, duration): exponential gaps of mean 1/rate drawn from `rng`.
inline std::vector<double> PoissonArrivals(double rate, double duration,
                                           doduo::util::Rng* rng) {
  std::vector<double> times;
  if (rate <= 0.0 || duration <= 0.0) return times;
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= duration) break;
    times.push_back(t);
  }
  return times;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
