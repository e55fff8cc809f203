#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "doduo/core/replica_pool.h"
#include "doduo/nn/activations.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/quant.h"
#include "doduo/table/sanitizer.h"
#include "doduo/util/csv.h"
#include "doduo/util/rng.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double MetricReading::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0.0;
}

double MetricReading::hist_count(const std::string& name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return v.first;
  }
  return 0.0;
}

double MetricReading::hist_sum_us(const std::string& name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return v.second;
  }
  return 0.0;
}

MetricReading ReadLocalMetrics() {
  const doduo::util::MetricsSnapshot snapshot = doduo::util::SnapshotMetrics();
  MetricReading reading;
  for (const auto& c : snapshot.counters) {
    reading.counters.emplace_back(c.name, static_cast<double>(c.value));
  }
  for (const auto& h : snapshot.histograms) {
    reading.histograms.emplace_back(
        h.name, std::make_pair(static_cast<double>(h.count),
                               static_cast<double>(h.sum_micros)));
  }
  return reading;
}

namespace {

// Reads the number after `key` at or after `pos`; npos-safe.
double NumberAfter(const std::string& text, const std::string& key,
                   size_t pos, size_t limit) {
  const size_t at = text.find(key, pos);
  if (at == std::string::npos || at >= limit) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

MetricReading ParseMetricsJson(const std::string& json) {
  // {"counters":{"a":1,...},"histograms":{"h":{"count":N,"sum_us":S,
  // "buckets":[[..],..]},...}} — names never contain quotes.
  MetricReading reading;
  const size_t counters_at = json.find("\"counters\":{");
  const size_t hist_at = json.find("\"histograms\":{");
  if (counters_at == std::string::npos || hist_at == std::string::npos) {
    return reading;
  }
  size_t pos = counters_at + 12;
  while (pos < hist_at && json[pos] == '"') {
    const size_t name_end = json.find('"', pos + 1);
    const std::string name = json.substr(pos + 1, name_end - pos - 1);
    char* end = nullptr;
    const double value = std::strtod(json.c_str() + name_end + 2, &end);
    reading.counters.emplace_back(name, value);
    pos = static_cast<size_t>(end - json.c_str());
    if (json[pos] == ',') ++pos;
  }
  pos = hist_at + 14;
  while (pos < json.size() && json[pos] == '"') {
    const size_t name_end = json.find('"', pos + 1);
    const std::string name = json.substr(pos + 1, name_end - pos - 1);
    const size_t object_end = json.find("]}", name_end);
    const double count = NumberAfter(json, "\"count\":", name_end, object_end);
    const double sum = NumberAfter(json, "\"sum_us\":", name_end, object_end);
    reading.histograms.emplace_back(name, std::make_pair(count, sum));
    pos = object_end + 2;
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return reading;
}

MetricReading Delta(const MetricReading& after, const MetricReading& before) {
  MetricReading delta;
  for (const auto& [name, value] : after.counters) {
    delta.counters.emplace_back(name, value - before.counter(name));
  }
  for (const auto& [name, value] : after.histograms) {
    delta.histograms.emplace_back(
        name, std::make_pair(value.first - before.hist_count(name),
                             value.second - before.hist_sum_us(name)));
  }
  return delta;
}

bool ParseTable(const std::string& csv, const std::string& id,
                doduo::table::Table* out) {
  auto rows = doduo::util::ParseCsv(csv);
  if (!rows.ok()) return false;
  auto table = doduo::table::TableFromCsvRows(rows.value(), true, id);
  if (!table.ok()) return false;
  *out = std::move(table).value();
  return true;
}

TableReplay ReplayTableSide(const doduo::core::LoadedModel& model,
                            const std::vector<doduo::table::Table>& tables) {
  TableReplay replay;
  const doduo::table::TableSerializer& serializer = *model.serializer;
  // Same chunk cap as the robust path: every column keeps its [CLS] plus at
  // least one value token.
  const size_t chunk_cap = static_cast<size_t>(
      std::max(1, (serializer.options().max_total_tokens - 1) / 2));
  const doduo::table::ColumnSanitizer sanitizer{doduo::table::SanitizerOptions{}};
  for (const doduo::table::Table& table : tables) {
    const int64_t t0 = NowNs();
    const doduo::table::SanitizeResult sanitized = sanitizer.Sanitize(table);
    replay.sanitize_ms += static_cast<double>(NowNs() - t0) / 1e6;
    const doduo::table::Table& effective =
        sanitized.any_modified ? sanitized.table : table;
    std::vector<int> annotatable;
    for (int c = 0; c < table.num_columns(); ++c) {
      if (sanitized.columns[static_cast<size_t>(c)].skip ==
          doduo::table::SkipReason::kNone) {
        annotatable.push_back(c);
      }
    }
    for (size_t begin = 0; begin < annotatable.size(); begin += chunk_cap) {
      const size_t end = std::min(annotatable.size(), begin + chunk_cap);
      doduo::table::Table subset;
      const doduo::table::Table* chunk = &effective;
      if (end - begin != static_cast<size_t>(effective.num_columns())) {
        const int64_t c0 = NowNs();
        subset.set_id(effective.id());
        for (size_t i = begin; i < end; ++i) {
          subset.AddColumn(effective.column(annotatable[i]));
        }
        replay.chunk_copy_ms += static_cast<double>(NowNs() - c0) / 1e6;
        chunk = &subset;
      }
      auto serialized = serializer.SerializeTable(*chunk);
      if (serialized.ok()) {
        replay.seq_lens.push_back(
            static_cast<int>(serialized.value().token_ids.size()));
      }
    }
  }
  return replay;
}

namespace {

doduo::nn::Tensor Random(int64_t rows, int64_t cols, doduo::util::Rng* rng) {
  doduo::nn::Tensor t({rows, cols});
  t.FillUniform(rng, 0.1f);
  return t;
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

}  // namespace

KernelReplay ReplayKernels(const doduo::core::LoadedModel& model,
                           const std::vector<int>& seq_lens) {
  namespace nn = doduo::nn;
  const auto& enc = model.config.encoder;
  const int64_t d = enc.hidden_dim;
  const int64_t f = enc.ffn_dim;
  const int64_t heads = enc.num_heads;
  const int64_t dh = enc.head_dim();
  doduo::util::Rng rng(7);

  // One set of weights per GEMM shape; the replay measures kernels, not the
  // trained values.
  const nn::Tensor w_qkv = Random(d, 3 * d, &rng);
  const nn::Tensor w_out = Random(d, d, &rng);
  const nn::Tensor w_ffn1 = Random(d, f, &rng);
  const nn::Tensor w_ffn2 = Random(f, d, &rng);
  nn::QuantizedWeight q_qkv, q_out, q_ffn1, q_ffn2;
  nn::QuantizeWeight(w_qkv, &q_qkv);
  nn::QuantizeWeight(w_out, &q_out);
  nn::QuantizeWeight(w_ffn1, &q_ffn1);
  nn::QuantizeWeight(w_ffn2, &q_ffn2);
  nn::Tensor ffn_bias({f});
  nn::LayerNorm norm("replay", d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  KernelReplay out;
  nn::Tensor qkv, proj, hidden, act, y, scores, probs, context;
  for (int len : seq_lens) {
    const int64_t L = len;
    const nn::Tensor x = Random(L, d, &rng);
    const nn::Tensor ctx = Random(L, d, &rng);
    const nn::Tensor h = Random(L, f, &rng);
    std::vector<nn::Tensor> q, k, v;
    for (int64_t i = 0; i < heads; ++i) {
      q.push_back(Random(L, dh, &rng));
      k.push_back(Random(L, dh, &rng));
      v.push_back(Random(L, dh, &rng));
    }
    for (int layer = 0; layer < enc.num_layers; ++layer) {
      int64_t t = NowNs();
      nn::MatMul(x, w_qkv, &qkv);
      nn::MatMul(ctx, w_out, &proj);
      nn::MatMul(x, w_ffn1, &hidden);
      nn::MatMul(h, w_ffn2, &y);
      out.gemm_ms += MsSince(t);

      t = NowNs();
      nn::Int8Linear(x, nn::View(q_qkv), nullptr, &qkv);
      nn::Int8Linear(ctx, nn::View(q_out), nullptr, &proj);
      nn::Int8Linear(x, nn::View(q_ffn1), nullptr, &hidden);
      nn::Int8Linear(h, nn::View(q_ffn2), nullptr, &y);
      out.int8_gemm_ms += MsSince(t);

      t = NowNs();
      for (int64_t i = 0; i < heads; ++i) {
        nn::MatMulTransposedB(q[static_cast<size_t>(i)],
                              k[static_cast<size_t>(i)], &scores);
        nn::ScaleMaskSoftmaxRows(scores, scale, nullptr, &probs);
        nn::MatMul(probs, v[static_cast<size_t>(i)], &context);
      }
      out.attn_ms += MsSince(t);

      t = NowNs();
      (void)norm.Forward(x);
      nn::BiasGeluForward(&hidden, ffn_bias, &act);
      (void)norm.Forward(ctx);
      out.norm_act_ms += MsSince(t);

      // 2*m*k*n per GEMM; bytes = fp32 A + B + C of every GEMM.
      auto gemm = [&](double m, double kd, double n) {
        out.gflop += 2.0 * m * kd * n / 1e9;
        out.mb += 4.0 * (m * kd + kd * n + m * n) / 1e6;
      };
      const double Ld = static_cast<double>(L);
      gemm(Ld, static_cast<double>(d), 3.0 * static_cast<double>(d));
      gemm(Ld, static_cast<double>(d), static_cast<double>(d));
      gemm(Ld, static_cast<double>(d), static_cast<double>(f));
      gemm(Ld, static_cast<double>(f), static_cast<double>(d));
      for (int64_t i = 0; i < heads; ++i) {
        gemm(Ld, static_cast<double>(dh), Ld);
        gemm(Ld, Ld, static_cast<double>(dh));
      }
    }
  }
  return out;
}

double ReplayReplicaBuildMs(doduo::core::LoadedModel* model, int replicas,
                            int repetitions) {
  std::vector<double> ms;
  for (int r = 0; r < repetitions; ++r) {
    const int64_t t = NowNs();
    const doduo::core::ReplicaPool pool(model->model.get(),
                                        model->serializer.get(), &model->types,
                                        model->relation_vocab(), replicas);
    ms.push_back(MsSince(t));
  }
  return Mean(ms);
}

LoadReplay ReplayLoad(const std::string& dir, int repetitions) {
  LoadReplay out;
  std::vector<double> ms;
  for (int r = 0; r < repetitions; ++r) {
    const MetricReading before = ReadLocalMetrics();
    const int64_t t = NowNs();
    auto loaded = doduo::core::LoadModelDir(dir);
    ms.push_back(MsSince(t));
    if (!loaded.ok()) continue;
    const MetricReading delta = Delta(ReadLocalMetrics(), before);
    out.mb_mapped = delta.counter("load.bytes_mapped") / 1e6;
    out.mb_copied = delta.counter("load.bytes_copied") / 1e6;
  }
  out.ms = Median(ms);
  return out;
}

}  // namespace perfbench
