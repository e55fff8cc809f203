// web_batch and lake_dirty: offline closed loops through the library's
// public entry points, CSV text in, ColumnOutcomes out:
//   util::ParseCsv -> table::TableFromCsvRows ->
//   Annotator::AnnotateTypesRobustBatch on a 2-thread compute pool.
//
// The gated numbers are CPU-time based (tables per CPU-second of the
// annotating process, CPU ms per single-table call, CPU seconds of set-up):
// on a shared VM the vCPUs are taken away for seconds at a time, which
// moves wall-clock throughput by up to 2x between runs while CPU time
// stays within a few per cent. Wall-clock figures are printed next to
// them and reported as per-layer metrics by the traced run.

#include <algorithm>
#include <map>
#include <memory>

#include "doduo/core/annotator.h"
#include "doduo/nn/quant.h"
#include "doduo/synth/knowledge_base.h"
#include "doduo/util/csv.h"
#include "doduo/util/thread_pool.h"
#include "src/inputs.h"
#include "src/oracle.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

constexpr int kComputeThreads = 2;
constexpr int kLoadRepetitions = 21;  // traced run's LoadModelDir replay
// Set-ups per cycle of the timed loop. Their CPU cost switches between two
// levels ~40 % apart for seconds at a time with the machine's load, so they
// are spread over the whole run and the fastest is reported.
constexpr int kSetupPerCycle = 5;

struct OfflineShape {
  int tables;  // distinct tables per run
  int batch;   // tables per AnnotateTypesRobustBatch call
};

OfflineShape ShapeOf(const std::string& workload) {
  // Web: three rounds of the 28 x 7 (rows, cols) grid.
  return workload == "lake_dirty" ? OfflineShape{30, 4} : OfflineShape{588, 64};
}

/// Whole passes over the distinct tables, each timed on the wall clock and
/// on the process CPU clock.
struct PassStats {
  size_t tables = 0;
  size_t batches = 0;
  size_t failed = 0;      // CSV that did not parse into a table
  size_t mismatched = 0;  // tables whose outcomes differ from the reference
  std::vector<double> latency_ms;      // per table: its batch call, wall
  std::vector<double> pass_rates;      // tables per wall second, per pass
  std::vector<double> pass_cpu_rates;  // tables per CPU second, per pass

  // Upper quartile over passes: contention from other tenants only ever
  // slows a pass down, so the less disturbed passes are the steadier
  // estimate of what the program costs.
  double tables_per_s() const { return Percentile(pass_rates, 0.75); }
  double tables_per_cpu_s() const { return Percentile(pass_cpu_rates, 0.75); }
};

/// Runs `batch` tables per call once, untimed: fresh pool threads and
/// replica workspaces warm up here.
void WarmUp(const doduo::core::Annotator& annotator,
            const std::vector<BenchTable>& inputs, int batch) {
  std::vector<doduo::table::Table> warm(
      std::min(inputs.size(), static_cast<size_t>(batch)));
  for (size_t i = 0; i < warm.size(); ++i) {
    (void)ParseTable(inputs[i].csv, inputs[i].id, &warm[i]);
  }
  (void)annotator.AnnotateTypesRobustBatch(warm);
}

/// One whole pass over the distinct tables in calls of `batch` tables, each
/// output checked against the reference.
void RunPass(const doduo::core::Annotator& annotator,
             const std::vector<BenchTable>& inputs, int batch,
             const std::vector<Outcomes>& reference, TraceRecorder* tracer,
             PassStats* stats) {
  std::vector<doduo::table::Table> tables;
  const int64_t pass_start = NowNs();
  const int64_t pass_cpu_start = ProcessCpuNs();
  for (size_t b = 0; b < inputs.size(); b += static_cast<size_t>(batch)) {
    const size_t end = std::min(inputs.size(), b + static_cast<size_t>(batch));
    const int64_t t0 = NowNs();
    std::vector<Outcomes> outcomes;
    std::vector<size_t> index;
    {
      TraceRecorder::Span batch_span(tracer, "bench.batch",
                                     static_cast<int64_t>(b));
      {
        // Freeing the previous batch's tables is table-layer work too.
        TraceRecorder::Span span(tracer, "table.release",
                                 static_cast<int64_t>(b));
        tables.clear();
      }
      for (size_t i = b; i < end; ++i) {
        doduo::util::Result<doduo::util::CsvRows> rows = [&] {
          TraceRecorder::Span span(tracer, "csv.parse", static_cast<int64_t>(i));
          return doduo::util::ParseCsv(inputs[i].csv);
        }();
        if (!rows.ok()) {
          ++stats->failed;
          continue;
        }
        TraceRecorder::Span span(tracer, "table.from_rows",
                                 static_cast<int64_t>(i));
        auto table =
            doduo::table::TableFromCsvRows(rows.value(), true, inputs[i].id);
        // Release the parsed rows inside the span: for a 20k-row file that
        // is a measurable share of the table layer.
        doduo::util::CsvRows().swap(rows.value());
        if (!table.ok()) {
          ++stats->failed;
          continue;
        }
        tables.push_back(std::move(table).value());
        index.push_back(i);
      }
      outcomes = annotator.AnnotateTypesRobustBatch(tables);
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    for (size_t k = 0; k < index.size(); ++k) {
      stats->latency_ms.push_back(ms);
      if (CountMismatches(outcomes[k], reference[index[k]]) > 0) {
        ++stats->mismatched;
      }
    }
    stats->tables += end - b;
    ++stats->batches;
  }
  const double n = static_cast<double>(inputs.size());
  stats->pass_rates.push_back(n * 1e9 /
                              static_cast<double>(NowNs() - pass_start));
  stats->pass_cpu_rates.push_back(
      n * 1e9 / static_cast<double>(ProcessCpuNs() - pass_cpu_start));
}

/// Whole passes until `budget_s` is spent.
PassStats TimedPasses(const doduo::core::Annotator& annotator,
                      const std::vector<BenchTable>& inputs, int batch,
                      double budget_s, const std::vector<Outcomes>& reference,
                      TraceRecorder* tracer) {
  PassStats stats;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  do {
    RunPass(annotator, inputs, batch, reference, tracer, &stats);
  } while (NowNs() < deadline);
  return stats;
}

/// Per-call wall and CPU time of single-table calls, by table index.
struct CallTimes {
  std::vector<std::vector<double>> wall_ms;
  std::vector<std::vector<double>> cpu_ms;
  size_t calls = 0;

  explicit CallTimes(size_t tables) : wall_ms(tables), cpu_ms(tables) {}

  /// Each called table's fastest call: the least disturbed measurement of
  /// what that table costs.
  static std::vector<double> PerTableBest(
      const std::vector<std::vector<double>>& by_table) {
    std::vector<double> out;
    for (const std::vector<double>& samples : by_table) {
      if (!samples.empty()) out.push_back(Percentile(samples, 0.0));
    }
    return out;
  }
};

/// One AnnotateTypesRobust call per table (CSV text to outcomes). With
/// `reference` empty the outcomes become the oracle's reference; otherwise
/// they are checked against it. One table per call is also the light-load
/// sample.
std::vector<Outcomes> SingleCalls(const doduo::core::Annotator& annotator,
                                  const std::vector<BenchTable>& inputs,
                                  const std::vector<Outcomes>& reference,
                                  CallTimes* times, size_t* failed) {
  std::vector<Outcomes> outcomes(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int64_t t0 = NowNs();
    const int64_t c0 = ProcessCpuNs();
    doduo::table::Table table;
    if (!ParseTable(inputs[i].csv, inputs[i].id, &table)) {
      ++*failed;
      continue;
    }
    outcomes[i] = annotator.AnnotateTypesRobust(table);
    if (times != nullptr) {
      times->cpu_ms[i].push_back(static_cast<double>(ProcessCpuNs() - c0) / 1e6);
      times->wall_ms[i].push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++times->calls;
    }
    if (!reference.empty() && CountMismatches(outcomes[i], reference[i]) > 0) {
      ++*failed;
    }
  }
  return outcomes;
}


/// LoadModelDir to the first outcome of one table, as a user starting the
/// library pays it, `repetitions` times; appends the CPU seconds of each.
/// The probe table is the same small web table on every workload and seed.
bool MeasureSetup(const std::string& model_dir, const BenchTable& probe,
                  int repetitions, std::vector<double>* cpu_s) {
  for (int r = 0; r < repetitions; ++r) {
    const int64_t c0 = ProcessCpuNs();
    auto loaded = doduo::core::LoadModelDir(model_dir);
    if (!loaded.ok()) return false;
    doduo::table::Table table;
    if (!ParseTable(probe.csv, probe.id, &table)) return false;
    const Outcomes outcomes =
        loaded.value()->MakeAnnotator().AnnotateTypesRobust(table);
    if (outcomes.empty()) return false;
    cpu_s->push_back(static_cast<double>(ProcessCpuNs() - c0) / 1e9);
  }
  return true;
}

std::vector<BenchTable> MakeInputs(const RunConfig& config,
                                   const doduo::synth::KnowledgeBase& kb) {
  const OfflineShape shape = ShapeOf(config.workload);
  return config.workload == "lake_dirty"
             ? GenerateLakeTables(kb, config.seed, shape.tables, nullptr)
             : GenerateWebTables(kb, config.seed, shape.tables);
}

std::unique_ptr<doduo::core::LoadedModel> MustLoad(const std::string& dir,
                                                   Report* report) {
  auto loaded = doduo::core::LoadModelDir(dir);
  if (!loaded.ok()) {
    report->Line("error: " + loaded.status().ToString());
    report->correct = false;
    return nullptr;
  }
  return std::move(loaded).value();
}

double CsvMegabytes(const std::vector<BenchTable>& inputs) {
  double bytes = 0;
  for (const BenchTable& t : inputs) bytes += static_cast<double>(t.csv.size());
  return bytes / 1e6;
}

double ErrorRate(const Report& report) {
  return report.attempted > 0 ? static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                              : 0.0;
}

void AddTraceMetrics(const RunConfig& config,
                     const std::vector<BenchTable>& inputs,
                     doduo::core::LoadedModel* model, Report* report);

}  // namespace

Report RunOffline(const RunConfig& config) {
  Report report;
  const OfflineShape shape = ShapeOf(config.workload);
  const doduo::synth::KnowledgeBase kb =
      doduo::synth::KnowledgeBase::BuildWikiTableKb(kModelKbSeed);
  const std::vector<BenchTable> inputs = MakeInputs(config, kb);
  report.Line(Format("%s: %zu distinct tables, %.2f MB of CSV, batches of %d, "
                     "seed %llu",
                     config.workload.c_str(), inputs.size(),
                     CsvMegabytes(inputs), shape.batch,
                     static_cast<unsigned long long>(config.seed)));
  auto fp32 = MustLoad(config.model_dir, &report);
  if (fp32 == nullptr) return report;
  if (config.trace) {
    AddTraceMetrics(config, inputs, fp32.get(), &report);
    return report;
  }
  auto int8 = MustLoad(config.int8_dir, &report);
  if (int8 == nullptr) return report;
  const bool rss_reset = ResetPeakRss();

  // References on a one-thread pool, fp32 and int8.
  size_t failed = 0;
  doduo::util::SetComputeThreads(1);
  const doduo::core::Annotator annotator32 = fp32->MakeAnnotator();
  const doduo::core::Annotator annotator8 = int8->MakeAnnotator();
  doduo::nn::SetQuantEnabled(false);
  const std::vector<Outcomes> ref32 =
      SingleCalls(annotator32, inputs, {}, nullptr, &failed);
  doduo::nn::SetQuantEnabled(true);
  const std::vector<Outcomes> ref8 =
      SingleCalls(annotator8, inputs, {}, nullptr, &failed);

  // The timed loop, in cycles so every measurement is spread over the
  // whole run and sees the same machine: an fp32 and an int8 batch pass on
  // the 2-thread pool, then on one thread every table as a single-table
  // fp32 call (the light sample) and a few set-ups.
  const BenchTable probe = GenerateWebTables(kb, 0, 1).front();
  std::vector<double> setup_s;
  doduo::util::SetComputeThreads(kComputeThreads);
  WarmUp(annotator8, inputs, shape.batch);
  doduo::nn::SetQuantEnabled(false);
  WarmUp(annotator32, inputs, shape.batch);
  PassStats run32, run8;
  CallTimes light(inputs.size());
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  do {
    doduo::nn::SetQuantEnabled(false);
    RunPass(annotator32, inputs, shape.batch, ref32, nullptr, &run32);
    doduo::nn::SetQuantEnabled(true);
    RunPass(annotator8, inputs, shape.batch, ref8, nullptr, &run8);
    doduo::nn::SetQuantEnabled(false);
    // Single-table calls and set-ups on one thread: no pool hand-offs, so
    // their CPU time is the call's own work.
    doduo::util::SetComputeThreads(1);
    (void)SingleCalls(annotator32, inputs, ref32, &light, &failed);
    if (!MeasureSetup(config.model_dir, probe, kSetupPerCycle, &setup_s)) {
      ++failed;
    }
    doduo::util::SetComputeThreads(kComputeThreads);
  } while (NowNs() < deadline);
  const double rss_mb = PeakRssMb();

  F1Tally f1_32, f1_8;
  for (size_t i = 0; i < inputs.size(); ++i) {
    f1_32.Add(ref32[i], inputs[i].labels);
    f1_8.Add(ref8[i], inputs[i].labels);
  }
  const bool oracle_ok = OracleSelfCheck(ref32);
  const LatencySummary light_cpu =
      Summarize(CallTimes::PerTableBest(light.cpu_ms));
  const LatencySummary light_wall =
      Summarize(CallTimes::PerTableBest(light.wall_ms));

  report.attempted = run32.tables + run8.tables + light.calls;
  report.failed = failed + run32.failed + run8.failed + run32.mismatched +
                  run8.mismatched;
  report.correct = oracle_ok && report.failed == 0;

  report.Add("tables_per_cpu_s", run32.tables_per_cpu_s(), "tables/cpu_s");
  report.Add("int8_tables_per_cpu_s", run8.tables_per_cpu_s(), "tables/cpu_s");
  report.Add("p50_cpu_ms.light", light_cpu.p50, "cpu_ms");
  report.Add("p99_cpu_ms.light", light_cpu.p99, "cpu_ms");
  report.Add("setup_s", Percentile(setup_s, 0.0), "s");
  report.Add("rss_mb", rss_mb, "MB");
  report.Add("type_f1", f1_32.F1(), "ratio");
  report.Add("int8_type_f1", f1_8.F1(), "ratio");

  std::string rates;
  for (size_t p = 0; p < run32.pass_rates.size(); ++p) {
    rates += Format(" %.4g/%.4g", run32.pass_cpu_rates[p], run8.pass_cpu_rates[p]);
  }
  report.Line(Format("closed loop: %zu fp32 + %zu int8 passes; tables per "
                     "CPU-s per pass (fp32/int8):%s",
                     run32.pass_rates.size(), run8.pass_rates.size(),
                     rates.c_str()));
  report.Line(Format("wall clock: fp32 %.1f tables/s, int8 %.1f tables/s",
                     run32.tables_per_s(), run8.tables_per_s()));
  report.Line(Format("set-up CPU s over %zu set-ups: fastest %.5f, median "
                     "%.5f",
                     setup_s.size(), Percentile(setup_s, 0.0),
                     Median(setup_s)));
  report.Line(Format(
      "int8 vs dispatched SIMD fp32 (%s kernel), same run: %.4f per CPU-s "
      "(int8 %.1f / fp32 %.1f tables/cpu_s), %.4f wall (int8 %.1f / fp32 "
      "%.1f tables/s)",
      doduo::nn::Int8KernelName(),
      run8.tables_per_cpu_s() / run32.tables_per_cpu_s(),
      run8.tables_per_cpu_s(), run32.tables_per_cpu_s(),
      run8.tables_per_s() / run32.tables_per_s(), run8.tables_per_s(),
      run32.tables_per_s()));
  report.Line(Format("light (one table per call, 1-thread pool; %zu calls, "
                     "each table's fastest), CPU: ",
                     light.calls) +
              FormatSummary(light_cpu));
  report.Line("light, wall: " + FormatSummary(light_wall));
  report.Line("heavy (a table in a full batch call, 2-thread pool), wall: " +
              FormatSummary(Summarize(run32.latency_ms)));
  report.Line(Format("error_rate = %.6f (failed %zu, oracle mismatches fp32 "
                     "%zu, int8 %zu, of %zu attempted); oracle self-check %s",
                     ErrorRate(report), failed + run32.failed + run8.failed,
                     run32.mismatched, run8.mismatched, report.attempted,
                     oracle_ok ? "caught the perturbation" : "FAILED"));
  if (!rss_reset) report.Line("note: peak RSS could not be reset");
  return report;
}

namespace {

void AddTraceMetrics(const RunConfig& config,
                     const std::vector<BenchTable>& inputs,
                     doduo::core::LoadedModel* model, Report* report) {
  const OfflineShape shape = ShapeOf(config.workload);
  const double n = static_cast<double>(inputs.size());
  doduo::nn::SetQuantEnabled(false);
  const LoadReplay load = ReplayLoad(config.model_dir, kLoadRepetitions);

  size_t failed = 0;
  doduo::util::SetComputeThreads(1);
  const doduo::core::Annotator annotator = model->MakeAnnotator();
  CallTimes light(inputs.size());
  const std::vector<Outcomes> reference =
      SingleCalls(annotator, inputs, {}, &light, &failed);
  const std::vector<double> light_wall =
      CallTimes::PerTableBest(light.wall_ms);

  // On the 2-thread pool: untraced passes on both sides of a traced one,
  // so drift in machine speed does not read as tracing overhead. Then a
  // traced pass on one thread, where every stage runs on the batch's own
  // thread, for the stage-sum check.
  doduo::util::SetComputeThreads(kComputeThreads);
  WarmUp(annotator, inputs, shape.batch);
  const double phase_s = config.seconds / 4;
  PassStats untraced =
      TimedPasses(annotator, inputs, shape.batch, phase_s / 2, reference, nullptr);
  TraceRecorder tracer;
  const MetricReading before = ReadLocalMetrics();
  tracer.Install();
  const PassStats traced =
      TimedPasses(annotator, inputs, shape.batch, phase_s, reference, &tracer);
  tracer.Uninstall();
  const MetricReading delta = Delta(ReadLocalMetrics(), before);
  const std::vector<SpanRecord> spans = tracer.Collect();
  const PassStats untraced_after =
      TimedPasses(annotator, inputs, shape.batch, phase_s / 2, reference, nullptr);
  for (const PassStats* p : {&untraced_after}) {
    untraced.pass_rates.insert(untraced.pass_rates.end(), p->pass_rates.begin(),
                               p->pass_rates.end());
    untraced.latency_ms.insert(untraced.latency_ms.end(), p->latency_ms.begin(),
                               p->latency_ms.end());
    untraced.tables += p->tables;
    untraced.failed += p->failed;
    untraced.mismatched += p->mismatched;
  }

  doduo::util::SetComputeThreads(1);
  WarmUp(annotator, inputs, shape.batch);
  tracer.Install();
  const PassStats single =
      TimedPasses(annotator, inputs, shape.batch, phase_s, reference, &tracer);
  tracer.Uninstall();
  const std::vector<SpanRecord> single_spans = tracer.Collect();
  doduo::util::SetComputeThreads(kComputeThreads);

  // Replays of the layers that have no span of their own.
  std::vector<doduo::table::Table> tables(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    (void)ParseTable(inputs[i].csv, inputs[i].id, &tables[i]);
  }
  const TableReplay table_side = ReplayTableSide(*model, tables);
  const KernelReplay kernels = ReplayKernels(*model, table_side.seq_lens);
  const double replica_ms = ReplayReplicaBuildMs(model, kComputeThreads, 20);

  // Span sums of the traced 2-thread pass.
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_by_layer;
  for (const SpanRecord& s : spans) {
    total_ms[s.name] += static_cast<double>(s.duration_ns()) / 1e6;
    self_by_layer[LayerOf(s.name)] += static_cast<double>(s.self_ns) / 1e6;
  }
  const double t = static_cast<double>(traced.tables);
  const double csv_mb =
      CsvMegabytes(inputs) * static_cast<double>(traced.pass_rates.size());

  // Stage sum of the one-thread pass against its batch wall time.
  std::map<std::string, double> single_ms;
  for (const SpanRecord& s : single_spans) {
    single_ms[s.name] += static_cast<double>(s.duration_ns()) / 1e6;
  }
  const double ts = static_cast<double>(single.tables);
  const double stage_ms =
      single_ms["csv.parse"] + single_ms["table.from_rows"] +
      single_ms["table.release"] + single_ms["serializer.serialize"] + single_ms["model.encoder_forward"] +
      single_ms["model.type_head"] +
      (table_side.sanitize_ms + table_side.chunk_copy_ms) / n * ts;
  const double wall_ms = single_ms["bench.batch"];
  const double unaccounted = wall_ms > 0 ? (wall_ms - stage_ms) / wall_ms : 0;

  const std::vector<double> seq(table_side.seq_lens.begin(),
                                table_side.seq_lens.end());
  const double tokens = delta.counter("serializer.tokens_total");
  const double encoder_us = delta.hist_sum_us("model.encoder_forward_us");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  report->Add("csv.parse_ms", total_ms["csv.parse"] / t, "ms");
  report->Add("csv.mb_per_s", ratio(csv_mb, total_ms["csv.parse"] / 1e3), "MB/s");
  report->Add("table.from_rows_ms",
              (total_ms["table.from_rows"] + total_ms["table.release"]) / t,
              "ms");
  report->Add("sanitize.ms", table_side.sanitize_ms / n, "ms");
  report->Add("sanitize.cols_skipped",
              delta.counter("sanitizer.cols_skipped") * n / t, "count");
  report->Add("sanitize.cells_repaired",
              delta.counter("sanitizer.cells_repaired") * n / t, "count");
  report->Add("chunk.copy_ms", table_side.chunk_copy_ms / n, "ms");
  report->Add("serialize.ms",
              delta.hist_sum_us("serializer.serialize_us") / 1e3 / t, "ms");
  report->Add("serialize.tokens_per_table", tokens / t, "tokens");
  report->Add("serialize.truncated_spans",
              delta.counter("serializer.spans_truncated_total") / t, "count");
  report->Add("encoder.ms", encoder_us / 1e3 / t, "ms");
  report->Add("encoder.calls_per_table",
              delta.hist_count("model.encoder_forward_us") / t, "calls");
  report->Add("encoder.seq_len.p50", Percentile(seq, 0.5), "tokens");
  report->Add("encoder.seq_len.p99", Percentile(seq, 0.99), "tokens");
  report->Add("encoder.us_per_token", ratio(encoder_us, tokens), "us/token");
  report->Add("nn.gemm_ms", kernels.gemm_ms / n, "ms");
  report->Add("nn.int8_gemm_ms", kernels.int8_gemm_ms / n, "ms");
  report->Add("nn.attn_ms", kernels.attn_ms / n, "ms");
  report->Add("nn.norm_act_ms", kernels.norm_act_ms / n, "ms");
  report->Add("nn.gflop_per_table", kernels.gflop / n, "GFLOP");
  report->Add("nn.mb_per_table", kernels.mb / n, "MB");
  report->Add("nn.int8_speedup", ratio(kernels.gemm_ms, kernels.int8_gemm_ms),
              "ratio");
  report->Add("load.ms", load.ms, "ms");
  report->Add("load.mb_mapped", load.mb_mapped, "MB");
  report->Add("load.mb_copied", load.mb_copied, "MB");
  report->Add("replica.build_ms", replica_ms, "ms");
  report->Add("replica.builds", static_cast<double>(traced.batches), "count");
  report->Add("fanout.busy_share",
              ratio(total_ms["model.encoder_forward"],
                    total_ms["annotator.batch"] * kComputeThreads),
              "ratio");
  report->Add("heads.ms", delta.hist_sum_us("model.heads_us") / 1e3 / t, "ms");
  report->Add("annotate.abstained", delta.counter("annotate.abstained") * n / t,
              "count");
  report->Add("annotate.skipped_cols",
              delta.counter("annotate.skipped_cols") * n / t, "count");
  report->Add("annotate.unaccounted_share", unaccounted, "ratio");
  report->Add("trace.overhead_share",
              1.0 - ratio(traced.tables_per_s(), untraced.tables_per_s()),
              "ratio");
  report->Add("wall.tables_per_s", untraced.tables_per_s(), "tables/s");
  report->Add("wall.p50_ms.light", Percentile(light_wall, 0.5), "ms");
  report->Add("wall.p99_ms.light", Percentile(light_wall, 0.99), "ms");
  report->Add("wall.p50_ms.heavy", Percentile(untraced.latency_ms, 0.5), "ms");
  report->Add("wall.p99_ms.heavy", Percentile(untraced.latency_ms, 0.99), "ms");
  for (const auto& [layer, name] :
       std::vector<std::pair<std::string, std::string>>{
           {"util", "self_ms.util"},
           {"table", "self_ms.table"},
           {"text+table", "self_ms.text_table"},
           {"transformer", "self_ms.transformer"},
           {"core", "self_ms.core"},
           {"bench", "self_ms.bench"}}) {
    report->Add(name, self_by_layer[layer] / t, "ms");
  }

  report->attempted = inputs.size() + untraced.tables + traced.tables +
                      single.tables;
  report->failed = failed + untraced.failed + traced.failed + single.failed +
                   untraced.mismatched + traced.mismatched + single.mismatched;
  report->correct = OracleSelfCheck(reference) && report->failed == 0;

  // Artifacts: the trace and the per-layer self-time table.
  const std::string stem = config.artifacts_dir + "/" + config.workload +
                           "-seed" + std::to_string(config.seed);
  if (!WriteChromeTrace(spans, stem + ".trace.json")) {
    report->Line("note: could not write " + stem + ".trace.json");
  }
  std::string table_text = Format("%-24s %-12s %14s %9s\n", "span", "layer",
                                  "self ms/table", "share");
  double self_total = 0;
  const std::map<std::string, double> self_by_name = SelfMsByName(spans);
  for (const auto& [name, ms] : self_by_name) self_total += ms;
  for (const auto& [name, ms] : self_by_name) {
    table_text += Format("%-24s %-12s %14.5f %8.2f%%\n", name.c_str(),
                         LayerOf(name).c_str(), ms / t,
                         100.0 * ratio(ms, self_total));
  }
  table_text += Format(
      "stage-sum check (1-thread pass): stages %.3f ms of batch wall %.3f ms, "
      "unaccounted %.2f%% (limit 5%%)\n",
      stage_ms, wall_ms, 100.0 * unaccounted);
  table_text += Format(
      "tracing overhead: untraced %.1f vs traced %.1f tables/s (wall)",
      untraced.tables_per_s(), traced.tables_per_s());
  if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
    std::fputs(table_text.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  report->Line(table_text);
  report->Line(Format("trace: %zu spans -> %s.trace.json", spans.size(),
                      stem.c_str()));

  // Served annotation runs on web-shaped tables only; the dirty lake has
  // no server phase and reports zeros for those names.
  if (config.workload == "web_batch") {
    AddServeMetrics(config, report);
  } else {
    for (const auto& [name, unit] : ServeMetricNames()) {
      report->Add(name, 0.0, unit);
    }
  }
  report->Line(Format("error_rate = %.6f (%zu of %zu attempted)",
                      ErrorRate(*report), report->failed, report->attempted));
}

}  // namespace

}  // namespace perfbench
