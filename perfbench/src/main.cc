// perfbench_run — one benchmark run of one workload.
//
//   perfbench_run --workload web_batch|lake_dirty --seed N
//       --seconds S --trace 0|1 --model DIR --int8-model DIR
//       --serve-bin PATH --artifacts DIR
//
// Prints a human report, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ones with --trace 1. perfbench/run.py builds the
// programs, supplies the paths and checks the metric names against
// BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workloads.h"

namespace {

int Usage() {
  std::fputs(
      "usage: perfbench_run --workload web_batch|lake_dirty "
      "--seed N --seconds S --trace 0|1 --model DIR --int8-model DIR "
      "--serve-bin PATH --artifacts DIR\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--model") {
      config.model_dir = value;
    } else if (flag == "--int8-model") {
      config.int8_dir = value;
    } else if (flag == "--serve-bin") {
      config.serve_bin = value;
    } else if (flag == "--artifacts") {
      config.artifacts_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.model_dir.empty() || config.int8_dir.empty() ||
      config.seconds <= 0) {
    return Usage();
  }

  if (config.workload != "web_batch" && config.workload != "lake_dirty") {
    return Usage();
  }
  const perfbench::Report report = perfbench::RunOffline(config);
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());

  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
