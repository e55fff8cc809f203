// Self-tests of the benchmark itself (not of doduo): input generators,
// dirt rates, arrival schedules, percentiles, the output oracle, span
// nesting and STATS parsing. Built with the benchmark; perfbench/run.py
// runs it once per build, or run it directly:
//
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "doduo/synth/knowledge_base.h"
#include "doduo/util/csv.h"
#include "doduo/util/rng.h"
#include "src/inputs.h"
#include "src/oracle.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool Near(double got, double want, double tolerance) {
  return std::fabs(got - want) <= tolerance;
}

bool SameTables(const std::vector<perfbench::BenchTable>& a,
                const std::vector<perfbench::BenchTable>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].csv != b[i].csv || a[i].labels != b[i].labels) return false;
  }
  return true;
}

void GeneratorsAreDeterministic(const doduo::synth::KnowledgeBase& kb) {
  using perfbench::GenerateLakeTables;
  using perfbench::GenerateWebTables;
  EXPECT(SameTables(GenerateWebTables(kb, 7, 64), GenerateWebTables(kb, 7, 64)));
  EXPECT(!SameTables(GenerateWebTables(kb, 7, 64), GenerateWebTables(kb, 8, 64)));
  EXPECT(SameTables(GenerateLakeTables(kb, 7, 10, nullptr),
                    GenerateLakeTables(kb, 7, 10, nullptr)));
  EXPECT(!SameTables(GenerateLakeTables(kb, 7, 10, nullptr),
                     GenerateLakeTables(kb, 8, 10, nullptr)));

  // Web shapes are stratified: one full round of the rows x cols grid
  // gives every shape once, whatever the seed.
  const auto web = GenerateWebTables(kb, 3, 28 * 7);
  size_t columns = 0;
  for (const auto& t : web) {
    auto rows = doduo::util::ParseCsv(t.csv);
    EXPECT(rows.ok());
    if (!rows.ok()) continue;
    EXPECT(rows.value().size() >= 2 && rows.value().size() <= 31);
    EXPECT(rows.value()[0].size() == t.labels.size());
    columns += t.labels.size();
  }
  EXPECT(columns > web.size() * 3);
}

void LakeDirtAppearsAtStatedRates(const doduo::synth::KnowledgeBase& kb) {
  perfbench::DirtCounts dirt;
  std::vector<perfbench::BenchTable> lake;
  for (uint64_t seed : {11, 12}) {
    auto part = perfbench::GenerateLakeTables(kb, seed, 20, &dirt);
    lake.insert(lake.end(), part.begin(), part.end());
  }
  EXPECT(dirt.tables == 40);
  EXPECT(dirt.wide_tables == 4);  // one table in ten
  // Whole-table features: binomial over 40 tables, 4-sigma bands.
  const double n = static_cast<double>(dirt.tables);
  EXPECT(Near(dirt.bom / n, perfbench::kLakeBomRate, 0.29));
  EXPECT(Near(dirt.crlf / n, 1.0 / 3, 0.3));
  EXPECT(Near(dirt.bare_cr / n, 1.0 / 3, 0.3));
  // Column and cell features: many draws, tight bands.
  EXPECT(Near(static_cast<double>(dirt.null_heavy_columns) / dirt.columns,
              perfbench::kLakeNullHeavyColumnRate, 0.04));
  EXPECT(Near(static_cast<double>(dirt.invalid_utf8_cells) / dirt.cells,
              perfbench::kLakeInvalidUtf8CellRate, 0.001));
  EXPECT(Near(static_cast<double>(dirt.header_echo_rows) / dirt.rows,
              perfbench::kLakeHeaderEchoRowRate, 0.0003));

  // The counts describe the bytes the program is given.
  size_t bom = 0, crlf = 0, bare_cr = 0, invalid = 0;
  for (const auto& t : lake) {
    if (t.csv.rfind("\xEF\xBB\xBF", 0) == 0) ++bom;
    if (t.csv.find("\r\n") != std::string::npos) {
      ++crlf;
    } else if (t.csv.find('\r') != std::string::npos) {
      ++bare_cr;
    }
    for (size_t i = 0; i + 1 < t.csv.size(); ++i) {
      const auto c = static_cast<unsigned char>(t.csv[i]);
      const auto next = static_cast<unsigned char>(t.csv[i + 1]);
      // Truncated lead byte or a continuation byte after ASCII.
      if ((c == 0xC3 && (next & 0xC0) != 0x80) ||
          (c == 0x80 && (i == 0 || static_cast<unsigned char>(t.csv[i - 1]) < 0x80))) {
        ++invalid;
      }
    }
    auto rows = doduo::util::ParseCsv(t.csv);
    EXPECT(rows.ok());
  }
  EXPECT(bom == dirt.bom);
  EXPECT(crlf == dirt.crlf);
  EXPECT(bare_cr == dirt.bare_cr);
  // A continuation byte appended right after a multi-byte character reads
  // as well-formed here, so allow a small shortfall, never an excess.
  EXPECT(invalid <= dirt.invalid_utf8_cells);
  EXPECT(static_cast<double>(invalid) >=
         0.95 * static_cast<double>(dirt.invalid_utf8_cells));
}

void PoissonScheduleMath() {
  doduo::util::Rng rng(5);
  const double rate = 1000, duration = 50;
  const std::vector<double> t = perfbench::PoissonArrivals(rate, duration, &rng);
  const double expected = rate * duration;
  EXPECT(Near(static_cast<double>(t.size()), expected, 4 * std::sqrt(expected)));
  double prev = 0, sum = 0, sum_sq = 0;
  bool ordered = true;
  for (double x : t) {
    ordered = ordered && x > prev && x < duration;
    sum += x - prev;
    sum_sq += (x - prev) * (x - prev);
    prev = x;
  }
  EXPECT(ordered);
  const double mean = sum / static_cast<double>(t.size());
  const double var = sum_sq / static_cast<double>(t.size()) - mean * mean;
  EXPECT(Near(mean, 1.0 / rate, 0.02 / rate));
  // Exponential gaps: standard deviation equals the mean.
  EXPECT(Near(std::sqrt(var) / mean, 1.0, 0.03));
  EXPECT(perfbench::PoissonArrivals(0, 10, &rng).empty());
  doduo::util::Rng a(9), b(9);
  EXPECT(perfbench::PoissonArrivals(200, 5, &a) ==
         perfbench::PoissonArrivals(200, 5, &b));
}

void PercentileHelper() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::Percentile(v, 0.50) == 50);
  EXPECT(perfbench::Percentile(v, 0.99) == 99);
  EXPECT(perfbench::Percentile(v, 1.00) == 100);
  EXPECT(perfbench::Percentile(v, 0.0) == 1);
  EXPECT(perfbench::Percentile(v, 0.001) == 1);
  EXPECT(perfbench::Percentile({}, 0.5) == 0);
  EXPECT(perfbench::Percentile({7}, 0.99) == 7);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::HighestSupportedQuantile(1000) == 0.99);
  EXPECT(perfbench::HighestSupportedQuantile(100) == 0.9);
  EXPECT(perfbench::HighestSupportedQuantile(10) == 0.0);
  const perfbench::LatencySummary s = perfbench::Summarize(v);
  EXPECT(s.count == 100 && s.p50 == 50 && s.p99 == 99);
  EXPECT(s.top_q == 0.9 && s.top_value == 90);
}

void OracleCatchesPerturbations() {
  doduo::core::ColumnOutcome annotated;
  annotated.labels = {"film.film"};
  annotated.confidence = 0.8125;
  doduo::core::ColumnOutcome skipped;
  skipped.skipped_reason = "mostly_null";
  const perfbench::Outcomes want = {skipped, annotated};
  EXPECT(perfbench::CountMismatches(want, want) == 0);
  perfbench::Outcomes got = want;
  got[1].confidence = std::nextafter(got[1].confidence, 1.0);
  EXPECT(perfbench::CountMismatches(got, want) == 1);
  got = want;
  got[0].skipped_reason = "empty_column";
  EXPECT(perfbench::CountMismatches(got, want) == 1);
  got = want;
  got[1].abstained = true;
  EXPECT(perfbench::CountMismatches(got, want) == 1);
  EXPECT(perfbench::CountMismatches({annotated}, want) == 2);
  EXPECT(perfbench::OracleSelfCheck({want}));
  EXPECT(!perfbench::OracleSelfCheck({{skipped}}));

  perfbench::F1Tally f1;
  f1.Add(want, {{"people.person"}, {"film.film", "x.y"}});
  EXPECT(f1.tp == 1 && f1.fp == 0 && f1.fn == 2);
  EXPECT(Near(f1.F1(), 0.5, 1e-12));
}

void SpansNestAndSelfTimeSubtractsChildren() {
  perfbench::TraceRecorder recorder;
  recorder.Install();
  {
    perfbench::TraceRecorder::Span outer(&recorder, "bench.batch", 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      perfbench::TraceRecorder::Span inner(&recorder, "csv.parse", 4);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  recorder.Uninstall();
  const std::vector<perfbench::SpanRecord> spans = recorder.Collect();
  EXPECT(spans.size() == 2);
  if (spans.size() == 2) {
    EXPECT(spans[0].name == "bench.batch" && spans[0].parent == -1);
    EXPECT(spans[1].name == "csv.parse" && spans[1].parent == 0);
    EXPECT(spans[1].request_id == 4);
    EXPECT(spans[0].self_ns + spans[1].duration_ns() <= spans[0].duration_ns() + 1);
    EXPECT(spans[0].self_ns >= 2'000'000 && spans[0].self_ns < 3'000'000 + 2'000'000);
  }
  EXPECT(perfbench::LayerOf("model.encoder_forward") == "transformer");
  EXPECT(perfbench::LayerOf("serializer.serialize") == "text+table");
}

void StatsJsonParses() {
  const std::string json =
      "{\"counters\":{\"a.b\":3,\"serve.requests_rejected\":7},"
      "\"histograms\":{\"serve.queue_wait_us\":{\"count\":4,\"sum_us\":100,"
      "\"buckets\":[[64,3],[128,1]]},\"x\":{\"count\":0,\"sum_us\":0,"
      "\"buckets\":[]}}}";
  const perfbench::MetricReading r = perfbench::ParseMetricsJson(json);
  EXPECT(r.counter("a.b") == 3);
  EXPECT(r.counter("serve.requests_rejected") == 7);
  EXPECT(r.hist_count("serve.queue_wait_us") == 4);
  EXPECT(r.hist_sum_us("serve.queue_wait_us") == 100);
  EXPECT(r.hist_count("x") == 0);
  const perfbench::MetricReading d = perfbench::Delta(r, perfbench::MetricReading{});
  EXPECT(d.counter("serve.requests_rejected") == 7);
}

}  // namespace

int main() {
  const doduo::synth::KnowledgeBase kb =
      doduo::synth::KnowledgeBase::BuildWikiTableKb(perfbench::kModelKbSeed);
  GeneratorsAreDeterministic(kb);
  LakeDirtAppearsAtStatedRates(kb);
  PoissonScheduleMath();
  PercentileHelper();
  OracleCatchesPerturbations();
  SpansNestAndSelfTimeSubtractsChildren();
  StatsJsonParses();
  std::printf("perfbench self-test: %s (%d failure(s))\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
