#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run hands back: the metrics of its mode (end-to-end
/// when untraced, per-layer when traced), the request tally, and the human
/// report lines printed above the final JSON line.
struct Report {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;  // failed + rejected + oracle mismatches
  bool correct = true;
  std::vector<std::string> lines;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Line(std::string text) { lines.push_back(std::move(text)); }

  /// The result object: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}}}, one line.
  std::string Json() const;
};

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
