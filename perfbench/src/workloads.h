#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "doduo/core/model_io.h"
#include "doduo/table/table.h"
#include "doduo/util/metrics.h"
#include "src/report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // web_batch | lake_dirty
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_dir;      // fp32 v2 checkpoint directory
  std::string int8_dir;       // its doduo_convert --int8 copy
  std::string serve_bin;      // doduo_serve built from this checkout
  std::string artifacts_dir;  // trace JSON and layer tables go here
};

/// web_batch and lake_dirty: offline closed loop through the library.
Report RunOffline(const RunConfig& config);

/// Served annotation (traced web_batch run): spawns doduo_serve, drives it
/// open loop at fixed rates and up a rate ladder, and adds the serve.*
/// metrics (client latency, max_rps, STATS-frame stage means) to `report`.
void AddServeMetrics(const RunConfig& config, Report* report);
/// Names and units AddServeMetrics reports (zero on workloads without it).
const std::vector<std::pair<std::string, std::string>>& ServeMetricNames();

// -- Process helpers ---------------------------------------------------------

/// Resets the kernel's peak-RSS mark of this process (/proc/self/clear_refs
/// "5"); false when the kernel refuses.
bool ResetPeakRss();
/// VmHWM of `pid` (0 = this process) in MB, or 0 when unreadable.
double PeakRssMb(int pid = 0);

// -- Library metric deltas ---------------------------------------------------

/// A counter/histogram reading taken from util::SnapshotMetrics() or from a
/// doduo_serve STATS JSON dump.
struct MetricReading {
  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum_us(const std::string& name) const;

  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, std::pair<double, double>>> histograms;
};
MetricReading ReadLocalMetrics();
/// Parses util::MetricsToJson() text (what the STATS frame carries).
MetricReading ParseMetricsJson(const std::string& json);
/// after - before, field by field.
MetricReading Delta(const MetricReading& after, const MetricReading& before);

// -- Layer replays (outside any timed phase) -------------------------------

/// The robust path's table-side work replayed through public functions on
/// already-built tables: ColumnSanitizer::Sanitize, the column-subset copy
/// of chunked or partly skipped tables, and TableSerializer::SerializeTable
/// per chunk, giving the encoder's sequence lengths.
struct TableReplay {
  double sanitize_ms = 0.0;    // total
  double chunk_copy_ms = 0.0;  // total
  std::vector<int> seq_lens;   // one per encoder call
};
TableReplay ReplayTableSide(const doduo::core::LoadedModel& model,
                            const std::vector<doduo::table::Table>& tables);

/// Encoder kernels replayed at the recorded sequence lengths with the
/// model's dimensions through public nn ops (fp32 GEMMs via the dispatched
/// SIMD MatMul, int8 GEMMs via Int8Linear). Times are totals in ms; flops
/// and bytes are computed from tensor sizes, not measured.
struct KernelReplay {
  double gemm_ms = 0.0;
  double int8_gemm_ms = 0.0;
  double attn_ms = 0.0;
  double norm_act_ms = 0.0;
  double gflop = 0.0;
  double mb = 0.0;
};
KernelReplay ReplayKernels(const doduo::core::LoadedModel& model,
                           const std::vector<int>& seq_lens);

/// Mean ms to construct the ReplicaPool that Annotator::FanOut builds on
/// every batch call with `replicas` replicas.
double ReplayReplicaBuildMs(doduo::core::LoadedModel* model, int replicas,
                            int repetitions);

/// Loads `dir` `repetitions` times; median load ms and the load.bytes_*
/// counters of one load, in MB.
struct LoadReplay {
  double ms = 0.0;
  double mb_mapped = 0.0;
  double mb_copied = 0.0;
};
LoadReplay ReplayLoad(const std::string& dir, int repetitions);

/// util::ParseCsv then table::TableFromCsvRows (header row first); false
/// when either fails.
bool ParseTable(const std::string& csv, const std::string& id,
                doduo::table::Table* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
