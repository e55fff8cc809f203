#include "src/report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "src/stats.h"

namespace perfbench {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(size > 0 ? size : 0), '\0');
  if (size > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string FormatSummary(const LatencySummary& s) {
  if (s.count == 0) return "n=0";
  return Format("n=%zu p50=%.4f p99=%.4f p%.1f=%.4f ms", s.count, s.p50,
                s.p99, 100.0 * s.top_q, s.top_value);
}

std::string Report::Json() const {
  std::string out = Format("{\"correct\": %s, \"attempted\": %zu, "
                           "\"failed\": %zu, \"metrics\": {",
                           correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
