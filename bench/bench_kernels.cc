// google-benchmark microbenchmarks of the library's hot kernels: dense
// matmul, attention/encoder forward, WordPiece tokenization, CSV parsing,
// column sanitizing, table serialization, Sherlock feature extraction, and
// k-means.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "doduo/baselines/sherlock_features.h"
#include "doduo/cluster/kmeans.h"
#include "doduo/core/annotator.h"
#include "doduo/core/model_io.h"
#include "doduo/core/replica_pool.h"
#include "doduo/nn/activations.h"
#include "doduo/nn/expf.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/quant.h"
#include "doduo/table/sanitizer.h"
#include "doduo/table/serializer.h"
#include "doduo/table/table.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/transformer/bert.h"
#include "doduo/util/csv.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/rng.h"
#include "doduo/util/thread_pool.h"
#include "testing/counting_new.h"

namespace {

using doduo::nn::Tensor;

// GEMM at a fixed thread-pool size; Args are (matrix size, threads).
// threads=1 is the serial path (the parallel dispatch gate sees a
// single-thread pool and runs inline), so BM_MatMul/256/1 vs /256/4 is the
// serial-vs-parallel comparison the scaling PRs track.
void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    doduo::nn::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_MatMul)
    ->ArgPair(64, 1)
    ->ArgPair(128, 1)
    ->ArgPair(256, 1)
    ->ArgPair(256, 2)
    ->ArgPair(256, 4)
    ->ArgPair(256, 8);

void BM_MatMulTransposedB(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    doduo::nn::MatMulTransposedB(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_MatMulTransposedB)->ArgPair(256, 1)->ArgPair(256, 4);

// The member of a kernel family (Fp32GemmKernels, TanhKernels, ...) named
// `name`, or nullptr when this CPU cannot run it. The lists ignore
// DODUO_SIMD, so the scalar and AVX2 baselines are reachable on any host
// that has the ISA.
template <typename Kernel>
const Kernel* FindKernel(const std::vector<Kernel>& kernels,
                         const char* name) {
  for (const Kernel& kernel : kernels) {
    if (std::strcmp(kernel.name, name) == 0) return &kernel;
  }
  return nullptr;
}

const doduo::nn::Fp32GemmKernel* FindFp32Kernel(const char* name) {
  static const std::vector<doduo::nn::Fp32GemmKernel> kernels =
      doduo::nn::Fp32GemmKernels();
  return FindKernel(kernels, name);
}

// out = a · b through one member of the fp32 GEMM family.
void MatMulWith(const doduo::nn::Fp32GemmKernel& kernel, const Tensor& a,
                const Tensor& b, Tensor* out) {
  out->ResizeUninitialized({a.rows(), b.cols()});
  kernel.matmul(doduo::nn::FullView(a), doduo::nn::FullView(b),
                doduo::nn::MutFullView(out));
}

void BM_MatMulScalarRef(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(1);
  doduo::util::Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  const doduo::nn::Fp32GemmKernel& scalar = *FindFp32Kernel("scalar");
  for (auto _ : state) {
    MatMulWith(scalar, a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulScalarRef)->Arg(64)->Arg(128)->Arg(256);

// The four Linear GEMMs of one encoder block at the benchmark model's
// shape (hidden 64, FFN 256) over `rows` tokens: QKV [rows,64]·[64,192],
// output projection [rows,64]·[64,64], FFN up [rows,64]·[64,256] and FFN
// down [rows,256]·[256,64].
constexpr int64_t kLinearShapes[4][2] = {
    {64, 192}, {64, 64}, {64, 256}, {256, 64}};

struct LinearShapesFixture {
  explicit LinearShapesFixture(int64_t rows) : outs(4) {
    doduo::util::Rng rng(15);
    for (const auto& [k, n] : kLinearShapes) {
      xs.emplace_back(std::vector<int64_t>{rows, k});
      ws.emplace_back(std::vector<int64_t>{k, n});
      xs.back().FillNormal(&rng, 1.0f);
      ws.back().FillNormal(&rng, 1.0f);
      flops += 2.0 * static_cast<double>(rows * k * n);
    }
  }
  void Run(const doduo::nn::Fp32GemmKernel& kernel) {
    for (size_t i = 0; i < xs.size(); ++i) {
      MatMulWith(kernel, xs[i], ws[i], &outs[i]);
    }
  }
  std::vector<Tensor> xs, ws, outs;
  double flops = 0.0;
};

// The same four Linears through one int8 kernel (each packs its own
// weights): dynamic activation quantization, the int8 GEMM and the
// dequant epilogue, as Int8Linear runs them.
struct Int8LinearShapesFixture {
  Int8LinearShapesFixture(int64_t rows, const doduo::nn::Int8Kernel& k)
      : kernel(k), packed(4), outs(4) {
    doduo::util::Rng rng(15);
    for (size_t i = 0; i < packed.size(); ++i) {
      const auto [in, out] = kLinearShapes[i];
      xs.emplace_back(std::vector<int64_t>{rows, in});
      xs.back().FillNormal(&rng, 1.0f);
      Tensor w({in, out});
      w.FillNormal(&rng, 1.0f);
      doduo::nn::QuantizedWeight qw;
      doduo::nn::QuantizeWeight(w, &qw);
      kernel.pack(qw.q.data(), out, in, &packed[i]);
      scales.push_back(std::move(qw.scale));
    }
  }
  void Run() {
    for (size_t i = 0; i < xs.size(); ++i) {
      const auto [in, out] = kLinearShapes[i];
      kernel.linear(xs[i], {&packed[i], scales[i].data(), out, in}, nullptr,
                    &outs[i]);
    }
  }
  const doduo::nn::Int8Kernel& kernel;
  std::vector<doduo::nn::PackedInt8> packed;
  std::vector<std::vector<float>> scales;
  std::vector<Tensor> xs, outs;
};

// Args (rows, kernel): rows 76 and 190 are the web tables' mean and p99
// sequence lengths, 1216 and 4864 the rows of 16 and 64 mean-size tables
// packed into one forward (the per-row cost a packed multi-table pass would
// pay, next to BM_Int8LinearShards); kernel 0 = scalar, 1 = avx, 2 = avx512
// (skipped where the CPU lacks it). Single thread; items_per_second is
// FLOP/s.
void BM_MatMulLinearShapes(benchmark::State& state) {
  static const char* const kNames[] = {"scalar", "avx", "avx512"};
  const doduo::nn::Fp32GemmKernel* kernel =
      FindFp32Kernel(kNames[state.range(1)]);
  if (kernel == nullptr) {
    state.SkipWithError("kernel not available on this CPU");
    return;
  }
  doduo::util::SetComputeThreads(1);
  LinearShapesFixture fixture(state.range(0));
  for (auto _ : state) {
    fixture.Run(*kernel);
    for (Tensor& out : fixture.outs) benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.flops));
  state.SetLabel(kernel->name);
}
BENCHMARK(BM_MatMulLinearShapes)
    ->ArgPair(76, 0)
    ->ArgPair(76, 1)
    ->ArgPair(76, 2)
    ->ArgPair(190, 0)
    ->ArgPair(190, 1)
    ->ArgPair(190, 2)
    ->ArgPair(1216, 1)
    ->ArgPair(1216, 2)
    ->ArgPair(4864, 1)
    ->ArgPair(4864, 2);

// Int8 GEMM through Int8Linear — the full quantized inference cost per
// call: dynamic per-row activation quantization, the int8 GEMM kernel, and
// the dequant epilogue. Weight quantization happens once outside the
// loop, mirroring Linear's prequantized cache. items_per_second is directly
// comparable to BM_MatMul at the same size.
void BM_Int8Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(1);
  Tensor x({n, n});
  Tensor w({n, n});
  x.FillNormal(&rng, 1.0f);
  w.FillNormal(&rng, 1.0f);
  doduo::nn::QuantizedWeight qw;
  doduo::nn::QuantizeWeight(w, &qw);
  Tensor y;
  for (auto _ : state) {
    doduo::nn::Int8Linear(x, doduo::nn::View(qw), nullptr, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(doduo::nn::Int8KernelName());
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_Int8Gemm)
    ->ArgPair(64, 1)
    ->ArgPair(128, 1)
    ->ArgPair(256, 1)
    ->ArgPair(256, 4);

// Int8 GEMM per available kernel (Arg = index into Int8Kernels(): 0 scalar,
// then avx2 and amx where the CPU has them) at 256³, single thread, each
// on weights packed by its own pack. items_per_second is directly
// comparable to BM_MatMul/256/1.
void BM_Int8GemmPerIsa(benchmark::State& state) {
  const auto kernels = doduo::nn::Int8Kernels();
  const auto which = static_cast<size_t>(state.range(0));
  if (which >= kernels.size()) {
    state.SkipWithError("kernel not available on this CPU");
    return;
  }
  const int64_t n = 256;
  doduo::util::SetComputeThreads(1);
  doduo::util::Rng rng(1);
  Tensor x({n, n});
  Tensor w({n, n});
  x.FillNormal(&rng, 1.0f);
  w.FillNormal(&rng, 1.0f);
  doduo::nn::QuantizedWeight qw;
  doduo::nn::QuantizeWeight(w, &qw);
  doduo::nn::PackedInt8 packed;
  kernels[which].pack(qw.q.data(), n, n, &packed);
  const doduo::nn::Int8WeightView view{&packed, qw.scale.data(), n, n};
  Tensor y;
  for (auto _ : state) {
    kernels[which].linear(x, view, nullptr, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(kernels[which].name);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Int8GemmPerIsa)->Arg(0)->Arg(1)->Arg(2);

// The four Linears through the dispatched Int8Linear on a pool of
// `threads` (args: rows, threads). Int8Linear shards only at or above its
// own volume (kInt8ShardVolume, nn/quant.cc); with DODUO_PARALLEL_THRESHOLD=1
// every call shards, which is how the 1- and 2-thread sides measure the
// hand-off that constant avoids. Wall time, as the hand-off shows there.
void BM_Int8LinearShards(benchmark::State& state) {
  const int64_t rows = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(15);
  std::vector<Tensor> xs;
  std::vector<doduo::nn::QuantizedWeight> weights(4);
  std::vector<Tensor> outs(4);
  for (size_t i = 0; i < weights.size(); ++i) {
    const auto [in, out] = kLinearShapes[i];
    xs.emplace_back(std::vector<int64_t>{rows, in});
    xs.back().FillNormal(&rng, 1.0f);
    Tensor w({in, out});
    w.FillNormal(&rng, 1.0f);
    doduo::nn::QuantizeWeight(w, &weights[i]);
  }
  for (auto _ : state) {
    for (size_t i = 0; i < xs.size(); ++i) {
      doduo::nn::Int8Linear(xs[i], doduo::nn::View(weights[i]), nullptr,
                            &outs[i]);
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(doduo::nn::Int8KernelName());
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_Int8LinearShards)
    ->ArgsProduct({{76, 190, 512, 1024, 2048}, {1, 2}})
    ->UseRealTime();

// Bench-local scalar FFN epilogue: bias add + GeluScalar per element, the
// loop BiasGeluForward runs under DODUO_SIMD=0 (the dispatcher caches its
// choice per process, so the scalar baseline lives here, as for GEMM).
void BiasGeluScalar(Tensor* pre_act, const Tensor& bias, Tensor* act) {
  act->ResizeUninitialized(pre_act->shape());
  const int64_t n = pre_act->cols();
  for (int64_t i = 0; i < pre_act->rows(); ++i) {
    float* u = pre_act->row(i);
    float* out = act->row(i);
    for (int64_t j = 0; j < n; ++j) {
      u[j] += bias.data()[j];
      out[j] = doduo::nn::GeluScalar(u[j]);
    }
  }
}

// GELU epilogue at the FFN shape [rows, 256]; rows 76 and 190 are the web
// tables' mean and p99 sequence lengths. Second arg: 0 = scalar port,
// 1 = dispatched BiasGeluForward. The bias is zero so the in-place bias add
// leaves the N(0, 1) pre-activations as they are across iterations.
constexpr int64_t kFfnWidth = 256;

void BM_BiasGelu(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const bool dispatched = state.range(1) != 0;
  doduo::util::Rng rng(4);
  Tensor pre({rows, kFfnWidth});
  pre.FillNormal(&rng, 1.0f);
  const Tensor bias({kFfnWidth});
  Tensor act;
  for (auto _ : state) {
    if (dispatched) {
      doduo::nn::BiasGeluForward(&pre, bias, &act);
    } else {
      BiasGeluScalar(&pre, bias, &act);
    }
    benchmark::DoNotOptimize(act.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * kFfnWidth);
  state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_BiasGelu)
    ->ArgPair(76, 0)
    ->ArgPair(76, 1)
    ->ArgPair(190, 0)
    ->ArgPair(190, 1);

void BM_SoftmaxRows(benchmark::State& state) {
  doduo::util::Rng rng(2);
  Tensor logits({128, 128});
  logits.FillNormal(&rng, 1.0f);
  Tensor probs;
  for (auto _ : state) {
    doduo::nn::SoftmaxRows(logits, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

// Attention forward at seq (packed QKV GEMM, per-head kernel, output
// projection). Reports allocs_per_iter — global operator new calls per
// forward (testing/counting_new.cc is linked in) — which is 0 at steady
// state on one thread.
void BM_AttentionForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  doduo::util::Rng rng(11);
  doduo::transformer::TransformerConfig config;
  config.max_positions = seq;
  config.hidden_dim = 64;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.num_layers = 1;
  config.dropout = 0.0f;
  doduo::transformer::MultiHeadSelfAttention attn("bench", config, &rng);
  Tensor x({seq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  attn.Forward(x, nullptr);  // warm up buffers
  const size_t allocs_before = doduo::testing::OperatorNewCalls();
  for (auto _ : state) {
    const Tensor& y = attn.Forward(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(doduo::testing::OperatorNewCalls() -
                          allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_AttentionForward)->Arg(64)->Arg(128)->Arg(512);

// Bench-local scalar attention head: Dot-order q·kᵀ, the scalar softmax row
// with nn::Expf, and P·V with the zero skip, the per-element op order of
// the kernel's reference. The dispatcher caches its SIMD choice per
// process, so the scalar baseline lives here, as for GEMM and GELU.
void AttentionHeadScalar(doduo::nn::ConstMatView q, doduo::nn::ConstMatView k,
                         doduo::nn::ConstMatView v, float scale, Tensor* probs,
                         doduo::nn::MutMatView ctx) {
  const int64_t s = q.rows;
  const int64_t hd = q.cols;
  probs->ResizeUninitialized({s, s});
  for (int64_t i = 0; i < s; ++i) {
    float* p = probs->row(i);
    float max_logit = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < s; ++j) {
      p[j] = doduo::nn::Dot(q.data + i * q.stride, k.data + j * k.stride, hd) *
             scale;
      max_logit = std::max(max_logit, p[j]);
    }
    double total = 0.0;
    for (int64_t j = 0; j < s; ++j) {
      p[j] = doduo::nn::Expf(p[j] - max_logit);
      total += static_cast<double>(p[j]);
    }
    const float inv = static_cast<float>(1.0 / total);
    float* c = ctx.data + i * ctx.stride;
    for (int64_t col = 0; col < hd; ++col) c[col] = 0.0f;
    for (int64_t j = 0; j < s; ++j) {
      p[j] *= inv;
      if (p[j] == 0.0f) continue;
      const float* vrow = v.data + j * v.stride;
      for (int64_t col = 0; col < hd; ++col) c[col] += p[j] * vrow[col];
    }
  }
}

// The attention core of one layer at the benchmark model's shape (4 heads,
// hd 16) on a packed [seq, 192] QKV buffer, single thread: (seq, 0) the
// scalar head above, (seq, 1) the dispatched nn::AttentionHeadForward.
// seq 76 and 190 are the web tables' mean and p99 sequence lengths.
constexpr int64_t kAttnHeads = 4;
constexpr int64_t kAttnHeadDim = 16;

struct AttentionHeadsFixture {
  explicit AttentionHeadsFixture(int64_t seq)
      : qkv({seq, 3 * kAttnHeads * kAttnHeadDim}),
        ctx({seq, kAttnHeads * kAttnHeadDim}) {
    doduo::util::Rng rng(13);
    qkv.FillNormal(&rng, 1.0f);
  }
  // Every head through `head` (AttentionHeadForward or one member of
  // nn::AttentionKernels), or through the scalar head above when null.
  void Run(decltype(doduo::nn::AttentionKernel::head) head) {
    const int64_t d = kAttnHeads * kAttnHeadDim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(kAttnHeadDim));
    for (int64_t h = 0; h < kAttnHeads; ++h) {
      const int64_t off = h * kAttnHeadDim;
      const auto q = doduo::nn::ColumnsView(qkv, off, kAttnHeadDim);
      const auto k = doduo::nn::ColumnsView(qkv, d + off, kAttnHeadDim);
      const auto v = doduo::nn::ColumnsView(qkv, 2 * d + off, kAttnHeadDim);
      const auto c = doduo::nn::MutColumnsView(&ctx, off, kAttnHeadDim);
      if (head != nullptr) {
        head(q, k, v, scale, nullptr, &kt, &probs, c);
      } else {
        AttentionHeadScalar(q, k, v, scale, &probs, c);
      }
    }
  }
  Tensor qkv, ctx, kt, probs;
};

void BM_AttentionHeads(benchmark::State& state) {
  const int64_t seq = state.range(0);
  const bool dispatched = state.range(1) != 0;
  doduo::util::SetComputeThreads(1);
  AttentionHeadsFixture fixture(seq);
  for (auto _ : state) {
    fixture.Run(dispatched ? &doduo::nn::AttentionHeadForward : nullptr);
    benchmark::DoNotOptimize(fixture.ctx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kAttnHeads * seq * seq);
  state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_AttentionHeads)
    ->ArgPair(76, 0)
    ->ArgPair(76, 1)
    ->ArgPair(190, 0)
    ->ArgPair(190, 1);

// exp over 4096 softmax-range inputs: 0 = the scalar nn::Expf port,
// 1 = the dispatched ExpfRow (AVX2+FMA twin where available).
void BM_Expf(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  doduo::util::Rng rng(14);
  std::vector<float> x(4096);
  for (float& v : x) v = rng.UniformFloat(-30.0f, 0.0f);
  std::vector<float> y(x.size());
  for (auto _ : state) {
    if (dispatched) {
      doduo::nn::ExpfRow(x.data(), 0.0f, y.data(),
                         static_cast<int64_t>(x.size()));
    } else {
      for (size_t i = 0; i < x.size(); ++i) y[i] = doduo::nn::Expf(x[i]);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x.size()));
  state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_Expf)->Arg(0)->Arg(1);

doduo::transformer::TransformerConfig BenchEncoderConfig() {
  doduo::transformer::TransformerConfig config;
  config.vocab_size = 2000;
  config.max_positions = 192;
  config.hidden_dim = 64;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.dropout = 0.0f;
  return config;
}

// Full encoder stack (attention + fused bias/GELU FFN) at seq, with the
// allocations-per-forward report.
void BM_EncoderForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  doduo::util::Rng rng(12);
  doduo::transformer::TransformerConfig config = BenchEncoderConfig();
  config.max_positions = seq;
  doduo::transformer::Encoder encoder("bench", config, &rng);
  encoder.set_training(false);
  Tensor x({seq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  encoder.Forward(x, nullptr);  // warm up buffers
  const size_t allocs_before = doduo::testing::OperatorNewCalls();
  for (auto _ : state) {
    const Tensor& y = encoder.Forward(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(doduo::testing::OperatorNewCalls() -
                          allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_EncoderForward)->Arg(64)->Arg(128)->Arg(512);

void BM_BertForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  doduo::util::Rng rng(3);
  doduo::transformer::BertModel model("bench", BenchEncoderConfig(), &rng);
  model.set_training(false);
  std::vector<int> ids(static_cast<size_t>(seq));
  for (int i = 0; i < seq; ++i) {
    ids[static_cast<size_t>(i)] = 5 + static_cast<int>(rng.NextUint64(1900));
  }
  for (auto _ : state) {
    const Tensor& hidden = model.Forward(ids);
    benchmark::DoNotOptimize(hidden.data());
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_BertForward)->Arg(32)->Arg(96)->Arg(160);

void BM_BertForwardBackward(benchmark::State& state) {
  const int seq = 96;
  doduo::util::Rng rng(4);
  doduo::transformer::BertModel model("bench", BenchEncoderConfig(), &rng);
  std::vector<int> ids(static_cast<size_t>(seq));
  for (int i = 0; i < seq; ++i) {
    ids[static_cast<size_t>(i)] = 5 + static_cast<int>(rng.NextUint64(1900));
  }
  Tensor grad({seq, 64});
  grad.FillNormal(&rng, 0.1f);
  for (auto _ : state) {
    model.Forward(ids);
    model.Backward(grad);
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_BertForwardBackward);

struct TokenizerFixture {
  TokenizerFixture() {
    std::vector<std::string> lines;
    for (int i = 0; i < 200; ++i) {
      lines.push_back("george miller directed happy feet in nineteen " +
                      std::to_string(i));
    }
    doduo::text::WordPieceTrainer trainer({.vocab_size = 500,
                                           .min_pair_frequency = 2});
    vocab = trainer.TrainFromLines(lines);
  }
  doduo::text::Vocab vocab;
};

void BM_WordPieceEncode(benchmark::State& state) {
  static TokenizerFixture fixture;
  doduo::text::WordPieceTokenizer tokenizer(&fixture.vocab);
  const std::string text =
      "george miller directed happy feet and produced mad max in 1979";
  for (auto _ : state) {
    auto ids = tokenizer.Encode(text);
    benchmark::DoNotOptimize(ids.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_WordPieceEncode);

void BM_SerializeTable(benchmark::State& state) {
  static TokenizerFixture fixture;
  doduo::text::WordPieceTokenizer tokenizer(&fixture.vocab);
  doduo::table::TableSerializer serializer(&tokenizer, {});
  doduo::table::Table table("bench");
  for (int c = 0; c < 5; ++c) {
    doduo::table::Column column;
    column.name = "col" + std::to_string(c);
    for (int r = 0; r < 6; ++r) {
      column.values.push_back("george miller " + std::to_string(r));
    }
    table.AddColumn(std::move(column));
  }
  for (auto _ : state) {
    auto serialized = serializer.SerializeTable(table).value();
    benchmark::DoNotOptimize(serialized.token_ids.data());
  }
}
BENCHMARK(BM_SerializeTable);

// Lake-shaped CSV for the ingest kernels (the shape of perfbench's
// lake_dirty tables): 6000 rows x 10 columns of one- to three-word cells,
// one null-heavy column (95 % null markers), 2 % of the other cells
// ill-formed UTF-8 and 1 % quoted for an embedded comma.
const std::string& LakeCsv() {
  static const std::string text = [] {
    static const char* const kWords[] = {
        "george", "miller", "happy", "feet", "oslo", "bergen", "tromso",
        "united", "kingdom", "france", "judy", "morris", "silent", "storm",
        "international", "airport", "river", "thames", "university",
        "college", "symphony", "orchestra", "football", "club"};
    static const char* const kNulls[] = {"", "null", "N/A", "NaN", "-"};
    constexpr int kRows = 6000;
    constexpr int kCols = 10;
    doduo::util::Rng rng(11);
    doduo::util::CsvRows rows(kRows + 1);
    for (int c = 0; c < kCols; ++c) {
      rows[0].push_back("type_" + std::to_string(c));
    }
    for (int r = 1; r <= kRows; ++r) {
      for (int c = 0; c < kCols; ++c) {
        std::string cell;
        if (c == kCols - 1 && rng.Bernoulli(0.95)) {
          cell = kNulls[rng.NextUint64(5)];
        } else {
          const uint64_t words = 1 + rng.NextUint64(3);
          for (uint64_t w = 0; w < words; ++w) {
            if (w > 0) cell += rng.Bernoulli(0.01) ? ", " : " ";
            cell += kWords[rng.NextUint64(std::size(kWords))];
          }
          if (rng.Bernoulli(0.02)) cell += rng.Bernoulli(0.5) ? "\x80" : "\xC3";
        }
        rows[static_cast<size_t>(r)].push_back(std::move(cell));
      }
    }
    return doduo::util::WriteCsvString(rows);
  }();
  return text;
}

const doduo::table::Table& LakeTable() {
  static const doduo::table::Table table =
      doduo::table::TableFromCsvRows(doduo::util::ParseCsv(LakeCsv()).value(),
                                     true, "lake")
          .value();
  return table;
}

// CSV text to rows, MB/s of CSV text.
void BM_ParseCsv(benchmark::State& state) {
  const std::string& text = LakeCsv();
  for (auto _ : state) {
    auto rows = doduo::util::ParseCsv(text);
    benchmark::DoNotOptimize(rows.value().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseCsv);

// The annotate path's sanitizer pass (Repair): classify every column and
// record the repaired cells as an overlay, MB/s of the table's CSV text.
void BM_Sanitize(benchmark::State& state) {
  const doduo::table::Table& table = LakeTable();
  const doduo::table::ColumnSanitizer sanitizer;
  for (auto _ : state) {
    auto result = sanitizer.Repair(table);
    benchmark::DoNotOptimize(result.columns.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(LakeCsv().size()));
}
BENCHMARK(BM_Sanitize);

void BM_SherlockFeatures(benchmark::State& state) {
  doduo::table::Column column;
  doduo::util::Rng rng(5);
  for (int r = 0; r < 20; ++r) {
    column.values.push_back("value " + std::to_string(rng.NextUint64(1000)));
  }
  for (auto _ : state) {
    auto features = doduo::baselines::ExtractSherlockFeatures(column);
    benchmark::DoNotOptimize(features.data());
  }
}
BENCHMARK(BM_SherlockFeatures);

// Batched annotation throughput (tables/sec): AnnotateTypesBatch over a
// fleet of tables at a given pool size, vs. the threads=1 row which is the
// sequential-loop equivalent.
struct BatchAnnotateFixture {
  BatchAnnotateFixture() : tokenizer(&shared().vocab) {
    config.encoder.vocab_size = shared().vocab.size();
    config.encoder.max_positions = 128;
    config.encoder.hidden_dim = 64;
    config.encoder.num_layers = 2;
    config.encoder.num_heads = 4;
    config.encoder.ffn_dim = 256;
    config.encoder.dropout = 0.0f;
    config.serializer.max_total_tokens = 128;
    config.num_types = 8;
    config.num_relations = 0;
    config.tasks = doduo::core::TaskSet::kTypesOnly;
    for (int t = 0; t < config.num_types; ++t) {
      types.AddLabel("type" + std::to_string(t));
    }
    doduo::util::Rng rng(7);
    model = std::make_unique<doduo::core::DoduoModel>(config, &rng);
    model->set_training(false);
    serializer = std::make_unique<doduo::table::TableSerializer>(
        &tokenizer, config.serializer);
    for (int t = 0; t < 16; ++t) {
      doduo::table::Table table("bench" + std::to_string(t));
      for (int c = 0; c < 4; ++c) {
        doduo::table::Column column;
        column.name = "col" + std::to_string(c);
        for (int r = 0; r < 6; ++r) {
          column.values.push_back("george miller " + std::to_string(t + r));
        }
        table.AddColumn(std::move(column));
      }
      tables.push_back(std::move(table));
    }
  }

  static TokenizerFixture& shared() {
    static TokenizerFixture fixture;
    return fixture;
  }

  doduo::text::WordPieceTokenizer tokenizer;
  doduo::core::DoduoConfig config;
  doduo::table::LabelVocab types;
  std::unique_ptr<doduo::core::DoduoModel> model;
  std::unique_ptr<doduo::table::TableSerializer> serializer;
  std::vector<doduo::table::Table> tables;
};

void BM_AnnotateTypesBatch(benchmark::State& state) {
  static BatchAnnotateFixture fixture;
  doduo::util::SetComputeThreads(static_cast<int>(state.range(0)));
  doduo::core::Annotator annotator(fixture.model.get(),
                                   fixture.serializer.get(), &fixture.types,
                                   nullptr);
  for (auto _ : state) {
    auto results = annotator.AnnotateTypesBatch(fixture.tables).value();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.tables.size()));
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_AnnotateTypesBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// End-to-end annotation with the int8 inference path toggled (Arg: 0 =
// fp32, 1 = DODUO_QUANT on) — the tables/sec comparison DESIGN §14 tracks.
void BM_AnnotateTypesQuant(benchmark::State& state) {
  static BatchAnnotateFixture fixture;
  doduo::nn::SetQuantEnabled(state.range(0) != 0);
  doduo::core::Annotator annotator(fixture.model.get(),
                                   fixture.serializer.get(), &fixture.types,
                                   nullptr);
  for (auto _ : state) {
    auto results = annotator.AnnotateTypesBatch(fixture.tables).value();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.tables.size()));
  doduo::nn::SetQuantEnabled(false);
}
BENCHMARK(BM_AnnotateTypesQuant)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// BENCH_quant.json — machine-readable kernel scorecard (DESIGN §14),
// emitted when DODUO_BENCH_QUANT=1: GEMM GFLOP/s for the dispatched fp32
// path, the fp32 scalar reference, and int8 (with int8 over dispatched
// fp32, the ratio the acceptance gate checks); the FFN GELU epilogue,
// dispatched vs the scalar tanh port (the second gated ratio); the
// attention core, dispatched vs the scalar head (the third); the four
// Linear GEMMs, AVX-512 tile vs AVX axpy (the fourth); the AVX-512 twins
// of GELU and attention vs their AVX2 twins (the fifth and sixth), with
// exp and LayerNorm reported beside them; lake ingest MB/s
// (CSV parse, rows to a Table, and the sanitizer's Repair pass, ungated);
// batched annotation
// tables/sec with the quant path off and on; and the per-worker RSS delta
// of a ReplicaPool built over a v2 mmap checkpoint, next to the bytes the
// load actually mapped. Both sides of every gated ratio are the best of
// kGateReps interleaved repetitions, so a burst of load from a neighbour
// on a shared host does not decide a gate.

template <typename Fn>
double SecondsPerCall(int iters, const Fn& fn) {
  fn();  // warm up (and fault in any lazily built state)
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / iters;
}

constexpr int kGateReps = 5;

// Seconds per call of `base` and `fast` (first and second), each the best
// of kGateReps repetitions timed alternately.
template <typename Base, typename Fast>
std::pair<double, double> BestOfInterleaved(int iters, const Base& base,
                                            const Fast& fast) {
  double best_base = std::numeric_limits<double>::infinity();
  double best_fast = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kGateReps; ++rep) {
    best_base = std::min(best_base, SecondsPerCall(iters, base));
    best_fast = std::min(best_fast, SecondsPerCall(iters, fast));
  }
  return {best_base, best_fast};
}

// Resident set size in kB from /proc/self/status, or -1 off-Linux.
int64_t VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

void EmitQuantBenchJson() {
  const std::string path = doduo::util::GetEnvString("DODUO_BENCH_QUANT_JSON",
                                                     "BENCH_quant.json");
  const int64_t n = 256;
  doduo::util::Rng rng(9);
  Tensor x({n, n});
  Tensor w({n, n});
  x.FillNormal(&rng, 1.0f);
  w.FillNormal(&rng, 1.0f);
  doduo::nn::QuantizedWeight qw;
  doduo::nn::QuantizeWeight(w, &qw);
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);

  Tensor y;
  doduo::util::SetComputeThreads(1);
  const auto [fp32_s, int8_s] = BestOfInterleaved(
      20, [&] { doduo::nn::MatMul(x, w, &y); },
      [&] { doduo::nn::Int8Linear(x, doduo::nn::View(qw), nullptr, &y); });
  const doduo::nn::Fp32GemmKernel& scalar = *FindFp32Kernel("scalar");
  const double scalar_s =
      SecondsPerCall(5, [&] { MatMulWith(scalar, x, w, &y); });
  const double fp32_gflops = flops / fp32_s / 1e9;
  const double scalar_gflops = flops / scalar_s / 1e9;
  const double int8_gflops = flops / int8_s / 1e9;
  // The gated ratio: int8 against the fp32 path users actually run
  // (dispatched SIMD MatMul). The scalar ratio is kept for continuity.
  const double speedup = fp32_s / int8_s;
  const double speedup_vs_scalar = scalar_s / int8_s;

  // FFN GELU epilogue, dispatched vs the scalar port, summed over the two
  // BM_BiasGelu shapes (zero bias, so repeated calls see the same input).
  double gelu_scalar_s = 0.0;
  double gelu_simd_s = 0.0;
  for (const int64_t rows : {int64_t{76}, int64_t{190}}) {
    Tensor pre({rows, kFfnWidth});
    pre.FillNormal(&rng, 1.0f);
    const Tensor bias({kFfnWidth});
    Tensor act;
    const auto [scalar_s_rows, simd_s_rows] = BestOfInterleaved(
        200, [&] { BiasGeluScalar(&pre, bias, &act); },
        [&] { doduo::nn::BiasGeluForward(&pre, bias, &act); });
    gelu_scalar_s += scalar_s_rows;
    gelu_simd_s += simd_s_rows;
  }
  const double gelu_speedup = gelu_scalar_s / gelu_simd_s;

  // Attention core of one layer (4 heads, hd 16), dispatched vs the scalar
  // head, single thread, at the BM_AttentionHeads shapes. Gated per shape:
  // the smaller ratio is the one reported on stderr.
  const int64_t attn_seqs[] = {76, 190};
  double attn_scalar_us[2];
  double attn_simd_us[2];
  double attn_speedup = 0.0;
  for (int i = 0; i < 2; ++i) {
    AttentionHeadsFixture fixture(attn_seqs[i]);
    const int iters = attn_seqs[i] < 100 ? 400 : 80;
    const auto [scalar_s_seq, simd_s_seq] =
        BestOfInterleaved(
            iters, [&] { fixture.Run(nullptr); },
            [&] { fixture.Run(&doduo::nn::AttentionHeadForward); });
    attn_scalar_us[i] = scalar_s_seq * 1e6;
    attn_simd_us[i] = simd_s_seq * 1e6;
    const double ratio = attn_scalar_us[i] / attn_simd_us[i];
    attn_speedup = i == 0 ? ratio : std::min(attn_speedup, ratio);
  }

  // The four Linear GEMMs at rows 76 and 190, the AVX-512 tile against the
  // AVX axpy it replaced, single thread; the gated ratio is of the summed
  // times. Hosts without AVX-512F have no tile and skip the gate.
  const doduo::nn::Fp32GemmKernel* avx = FindFp32Kernel("avx");
  const doduo::nn::Fp32GemmKernel* tile = FindFp32Kernel("avx512");
  double tile_avx_us = 0.0;
  double tile_us = 0.0;
  if (avx != nullptr && tile != nullptr) {
    for (const int64_t rows : {int64_t{76}, int64_t{190}}) {
      LinearShapesFixture fixture(rows);
      const auto [avx_s_rows, tile_s_rows] =
          BestOfInterleaved(rows < 100 ? 200 : 80, [&] { fixture.Run(*avx); },
                            [&] { fixture.Run(*tile); });
      tile_avx_us += avx_s_rows * 1e6;
      tile_us += tile_s_rows * 1e6;
    }
  }
  const double tile_speedup = tile_us > 0.0 ? tile_avx_us / tile_us : 0.0;

  // The four Linears at 76 rows through the int8 kernels, AMX against the
  // AVX2 kernel it replaces where the host has both, single thread.
  const std::vector<doduo::nn::Int8Kernel> int8_kernels =
      doduo::nn::Int8Kernels();
  const auto* int8_avx2 = FindKernel(int8_kernels, "avx2");
  const auto* int8_amx = FindKernel(int8_kernels, "amx");
  double int8_avx2_us = 0.0;
  double int8_amx_us = 0.0;
  if (int8_avx2 != nullptr && int8_amx != nullptr) {
    Int8LinearShapesFixture avx2_shapes(76, *int8_avx2);
    Int8LinearShapesFixture amx_shapes(76, *int8_amx);
    const auto [avx2_s, amx_s] = BestOfInterleaved(
        400, [&] { avx2_shapes.Run(); }, [&] { amx_shapes.Run(); });
    int8_avx2_us = avx2_s * 1e6;
    int8_amx_us = amx_s * 1e6;
  }

  // The AVX-512 twins of the non-GEMM kernels against the AVX2 twins they
  // sit beside, single thread, each through its family's kernel list so
  // both run on this host: GELU at the BM_BiasGelu shapes (times summed),
  // the attention core at the BM_AttentionHeads shapes (the smaller ratio
  // is the gated one), exp over the BM_Expf inputs, and LayerNorm at
  // [76, 64] and [190, 64]. Hosts without AVX-512F have no twins to
  // compare and skip these gates.
  const std::vector<doduo::nn::TanhKernel> tanh_kernels =
      doduo::nn::TanhKernels();
  const std::vector<doduo::nn::AttentionKernel> attn_kernels =
      doduo::nn::AttentionKernels();
  const std::vector<doduo::nn::ExpfKernel> expf_kernels =
      doduo::nn::ExpfKernels();
  const std::vector<doduo::nn::LayerNormKernel> norm_kernels =
      doduo::nn::LayerNormKernels();
  const auto* gelu_avx2 = FindKernel(tanh_kernels, "avx2");
  const auto* gelu_512 = FindKernel(tanh_kernels, "avx512");
  const auto* attn_avx2 = FindKernel(attn_kernels, "avx2");
  const auto* attn_512 = FindKernel(attn_kernels, "avx512");
  const auto* expf_avx2 = FindKernel(expf_kernels, "avx2");
  const auto* expf_512 = FindKernel(expf_kernels, "avx512");
  const auto* norm_avx2 = FindKernel(norm_kernels, "avx2");
  const auto* norm_512 = FindKernel(norm_kernels, "avx512");
  const bool twins = gelu_avx2 != nullptr && gelu_512 != nullptr &&
                     attn_avx2 != nullptr && attn_512 != nullptr &&
                     expf_avx2 != nullptr && expf_512 != nullptr &&
                     norm_avx2 != nullptr && norm_512 != nullptr;
  double twin_gelu_us[2] = {0.0, 0.0};  // {avx2, avx512}
  double twin_attn_us[2][2] = {};       // [seq][{avx2, avx512}]
  double twin_expf_us[2] = {0.0, 0.0};
  double twin_norm_us[2] = {0.0, 0.0};
  double twin_attn_speedup = 0.0;
  if (twins) {
    for (const int64_t rows : {int64_t{76}, int64_t{190}}) {
      Tensor pre({rows, kFfnWidth});
      pre.FillNormal(&rng, 1.0f);
      Tensor act({rows, kFfnWidth});
      const auto gelu_rows = [&](const doduo::nn::TanhKernel& kernel) {
        for (int64_t i = 0; i < rows; ++i) {
          kernel.gelu_row(pre.row(i), act.row(i), kFfnWidth);
        }
      };
      const auto [avx2_s, avx512_s] =
          BestOfInterleaved(200, [&] { gelu_rows(*gelu_avx2); },
                            [&] { gelu_rows(*gelu_512); });
      twin_gelu_us[0] += avx2_s * 1e6;
      twin_gelu_us[1] += avx512_s * 1e6;

      Tensor hidden({rows, 64});
      hidden.FillNormal(&rng, 1.0f);
      const Tensor gamma = Tensor::Full({64}, 1.0f);
      const Tensor beta({64});
      Tensor normalized({rows, 64}), rstd({rows}), normed({rows, 64});
      const auto norm = [&](const doduo::nn::LayerNormKernel& kernel) {
        kernel.forward(hidden.data(), gamma.data(), beta.data(), 1e-5f, rows,
                       64, normalized.data(), rstd.data(), normed.data());
      };
      const auto [norm_avx2_s, norm_512_s] = BestOfInterleaved(
          2000, [&] { norm(*norm_avx2); }, [&] { norm(*norm_512); });
      twin_norm_us[0] += norm_avx2_s * 1e6;
      twin_norm_us[1] += norm_512_s * 1e6;
    }
    for (int i = 0; i < 2; ++i) {
      AttentionHeadsFixture fixture(attn_seqs[i]);
      const int iters = attn_seqs[i] < 100 ? 400 : 80;
      const auto [avx2_s, avx512_s] =
          BestOfInterleaved(iters, [&] { fixture.Run(attn_avx2->head); },
                            [&] { fixture.Run(attn_512->head); });
      twin_attn_us[i][0] = avx2_s * 1e6;
      twin_attn_us[i][1] = avx512_s * 1e6;
      const double ratio = avx2_s / avx512_s;
      twin_attn_speedup = i == 0 ? ratio : std::min(twin_attn_speedup, ratio);
    }
    std::vector<float> logits(4096);
    for (float& v : logits) v = rng.UniformFloat(-30.0f, 0.0f);
    std::vector<float> e(logits.size());
    const auto exp_row = [&](const doduo::nn::ExpfKernel& kernel) {
      kernel.row(logits.data(), 0.0f, e.data(),
                 static_cast<int64_t>(logits.size()));
    };
    const auto [avx2_s, avx512_s] = BestOfInterleaved(
        2000, [&] { exp_row(*expf_avx2); }, [&] { exp_row(*expf_512); });
    twin_expf_us[0] = avx2_s * 1e6;
    twin_expf_us[1] = avx512_s * 1e6;
  }

  // Lake ingest, single thread, in MB/s of CSV text (best of kGateReps):
  // CSV text to rows; rows to a Table plus releasing the rows, the cell
  // copies the columnar-cells layout would remove (ROADMAP); and the
  // sanitizer pass the annotate path runs (Repair). Each from-rows call
  // consumes a copy of the parsed rows, made off the clock, and releases
  // its Table off the clock.
  const double csv_mb = static_cast<double>(LakeCsv().size()) / 1e6;
  double parse_s = std::numeric_limits<double>::infinity();
  double from_rows_s = std::numeric_limits<double>::infinity();
  double sanitize_s = std::numeric_limits<double>::infinity();
  const doduo::table::ColumnSanitizer sanitizer;
  const doduo::util::CsvRows parsed = doduo::util::ParseCsv(LakeCsv()).value();
  for (int rep = 0; rep < kGateReps; ++rep) {
    parse_s = std::min(parse_s, SecondsPerCall(5, [&] {
      auto rows = doduo::util::ParseCsv(LakeCsv());
      benchmark::DoNotOptimize(rows.value().data());
    }));
    std::chrono::duration<double> from_rows{0};
    for (int i = 0; i < 5; ++i) {
      doduo::util::CsvRows rows = parsed;
      const auto start = std::chrono::steady_clock::now();
      auto table = doduo::table::TableFromCsvRows(rows, true, "lake");
      doduo::util::CsvRows().swap(rows);
      from_rows += std::chrono::steady_clock::now() - start;
      benchmark::DoNotOptimize(table.value().columns().data());
    }
    from_rows_s = std::min(from_rows_s, from_rows.count() / 5);
    sanitize_s = std::min(sanitize_s, SecondsPerCall(5, [&] {
      auto result = sanitizer.Repair(LakeTable());
      benchmark::DoNotOptimize(result.columns.data());
    }));
  }

  // End-to-end annotate throughput, fp32 vs int8, same model and tables.
  BatchAnnotateFixture fixture;
  doduo::core::Annotator annotator(fixture.model.get(),
                                   fixture.serializer.get(), &fixture.types,
                                   nullptr);
  const double tables = static_cast<double>(fixture.tables.size());
  doduo::nn::SetQuantEnabled(false);
  const double fp32_batch_s = SecondsPerCall(3, [&] {
    auto results = annotator.AnnotateTypesBatch(fixture.tables).value();
    benchmark::DoNotOptimize(results.data());
  });
  doduo::nn::SetQuantEnabled(true);
  const double int8_batch_s = SecondsPerCall(3, [&] {
    auto results = annotator.AnnotateTypesBatch(fixture.tables).value();
    benchmark::DoNotOptimize(results.data());
  });
  doduo::nn::SetQuantEnabled(false);

  // Replica-pool RSS: save the fixture model as a v2 int8 checkpoint,
  // reload it (weights borrow the mapping), and measure what each extra
  // worker costs in resident memory on top of the shared weights.
  const int kWorkers = 4;
  int64_t bytes_mapped = 0;
  int64_t rss_before_kb = -1;
  int64_t rss_after_kb = -1;
  double rss_per_worker_kb = -1.0;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "doduo_bench_quant_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  doduo::table::LabelVocab relations;
  const doduo::util::Status saved = doduo::core::SaveModelDir(
      dir, fixture.model.get(), BatchAnnotateFixture::shared().vocab,
      fixture.types, relations, {.quant_int8 = true});
  if (saved.ok()) {
    doduo::util::Counter* mapped =
        doduo::util::GetCounter("load.bytes_mapped");
    const uint64_t mapped_before = mapped->value();
    auto loaded = doduo::core::LoadModelDir(dir);
    if (loaded.ok()) {
      doduo::core::LoadedModel& m = *loaded.value();
      bytes_mapped = static_cast<int64_t>(mapped->value() - mapped_before);
      rss_before_kb = VmRssKb();
      doduo::core::ReplicaPool pool(m.model.get(), m.serializer.get(),
                                    &m.types, m.relation_vocab(), kWorkers);
      rss_after_kb = VmRssKb();
      if (rss_before_kb >= 0 && rss_after_kb >= 0) {
        rss_per_worker_kb =
            static_cast<double>(rss_after_kb - rss_before_kb) /
            (pool.num_replicas() - 1);
      }
    } else {
      std::fprintf(stderr, "quant_bench: load failed: %s\n",
                   loaded.status().ToString().c_str());
    }
  } else {
    std::fprintf(stderr, "quant_bench: save failed: %s\n",
                 saved.ToString().c_str());
  }
  std::filesystem::remove_all(dir);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "quant_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"gemm\": {\"m\": %lld, \"k\": %lld, \"n\": %lld,\n"
               "    \"fp32_gflops\": %.3f, \"fp32_scalar_gflops\": %.3f,\n"
               "    \"int8_gflops\": %.3f, \"int8_kernel\": \"%s\",\n"
               "    \"int8_vs_fp32_simd\": %.3f,\n"
               "    \"int8_vs_fp32_scalar\": %.3f},\n",
               static_cast<long long>(n), static_cast<long long>(n),
               static_cast<long long>(n), fp32_gflops, scalar_gflops,
               int8_gflops, doduo::nn::Int8KernelName(), speedup,
               speedup_vs_scalar);
  std::fprintf(out,
               "  \"gelu\": {\"rows\": [76, 190], \"n\": %lld,\n"
               "    \"scalar_us\": %.2f, \"simd_us\": %.2f,\n"
               "    \"gelu_simd_vs_scalar\": %.3f},\n",
               static_cast<long long>(kFfnWidth), gelu_scalar_s * 1e6,
               gelu_simd_s * 1e6, gelu_speedup);
  std::fprintf(out,
               "  \"attention\": {\"seq\": [76, 190], \"heads\": %lld, "
               "\"head_dim\": %lld,\n"
               "    \"scalar_us\": [%.2f, %.2f], \"simd_us\": [%.2f, %.2f],\n"
               "    \"attn_simd_vs_scalar\": [%.3f, %.3f]},\n",
               static_cast<long long>(kAttnHeads),
               static_cast<long long>(kAttnHeadDim), attn_scalar_us[0],
               attn_scalar_us[1], attn_simd_us[0], attn_simd_us[1],
               attn_scalar_us[0] / attn_simd_us[0],
               attn_scalar_us[1] / attn_simd_us[1]);
  if (tile_us > 0.0) {
    std::fprintf(out,
                 "  \"gemm_tile\": {\"rows\": [76, 190], "
                 "\"shapes\": \"64x192 64x64 64x256 256x64\",\n"
                 "    \"avx_us\": %.2f, \"tile_us\": %.2f,\n"
                 "    \"tile_vs_avx\": %.3f},\n",
                 tile_avx_us, tile_us, tile_speedup);
  } else {
    std::fprintf(out,
                 "  \"gemm_tile\": {\"tile_vs_avx\": null, "
                 "\"skipped\": \"cpu has no avx512f\"},\n");
  }
  if (int8_amx_us > 0.0) {
    std::fprintf(out,
                 "  \"int8_isa\": {\"rows\": 76, "
                 "\"shapes\": \"64x192 64x64 64x256 256x64\",\n"
                 "    \"avx2_us\": %.2f, \"amx_us\": %.2f,\n"
                 "    \"int8_amx_vs_avx2\": %.3f},\n",
                 int8_avx2_us, int8_amx_us, int8_avx2_us / int8_amx_us);
  } else {
    std::fprintf(out,
                 "  \"int8_isa\": {\"int8_amx_vs_avx2\": null, "
                 "\"skipped\": \"no amx int8 kernel\"},\n");
  }
  if (twins) {
    std::fprintf(
        out,
        "  \"avx512_twins\": {\n"
        "    \"gelu\": {\"rows\": [76, 190], \"n\": %lld, "
        "\"avx2_us\": %.2f, \"avx512_us\": %.2f,\n"
        "      \"gelu_512_vs_avx2\": %.3f},\n"
        "    \"attention\": {\"seq\": [76, 190], "
        "\"avx2_us\": [%.2f, %.2f], \"avx512_us\": [%.2f, %.2f],\n"
        "      \"attn_512_vs_avx2\": [%.3f, %.3f]},\n"
        "    \"expf\": {\"n\": 4096, \"avx2_us\": %.3f, "
        "\"avx512_us\": %.3f,\n"
        "      \"expf_512_vs_avx2\": %.3f},\n"
        "    \"layernorm\": {\"rows\": [76, 190], \"n\": 64,\n"
        "      \"avx2_us\": %.3f, \"avx512_us\": %.3f, "
        "\"layernorm_512_vs_avx2\": %.3f}},\n",
        static_cast<long long>(kFfnWidth), twin_gelu_us[0], twin_gelu_us[1],
        twin_gelu_us[0] / twin_gelu_us[1], twin_attn_us[0][0],
        twin_attn_us[1][0], twin_attn_us[0][1], twin_attn_us[1][1],
        twin_attn_us[0][0] / twin_attn_us[0][1],
        twin_attn_us[1][0] / twin_attn_us[1][1], twin_expf_us[0],
        twin_expf_us[1], twin_expf_us[0] / twin_expf_us[1], twin_norm_us[0],
        twin_norm_us[1], twin_norm_us[0] / twin_norm_us[1]);
  } else {
    std::fprintf(out,
                 "  \"avx512_twins\": {\"skipped\": "
                 "\"cpu has no avx512f\"},\n");
  }
  std::fprintf(out,
               "  \"ingest\": {\"csv_mb\": %.3f,\n"
               "    \"parse_csv_mb_per_s\": %.1f,"
               " \"from_rows_mb_per_s\": %.1f,"
               " \"sanitize_mb_per_s\": %.1f},\n",
               csv_mb, csv_mb / parse_s, csv_mb / from_rows_s,
               csv_mb / sanitize_s);
  std::fprintf(out,
               "  \"annotate\": {\"tables\": %d,\n"
               "    \"fp32_tables_per_sec\": %.2f,\n"
               "    \"int8_tables_per_sec\": %.2f},\n",
               static_cast<int>(tables), tables / fp32_batch_s,
               tables / int8_batch_s);
  std::fprintf(out,
               "  \"replica_pool\": {\"workers\": %d,\n"
               "    \"bytes_mapped\": %lld, \"rss_before_kb\": %lld,\n"
               "    \"rss_after_kb\": %lld, \"rss_per_worker_kb\": %.1f}\n",
               kWorkers, static_cast<long long>(bytes_mapped),
               static_cast<long long>(rss_before_kb),
               static_cast<long long>(rss_after_kb), rss_per_worker_kb);
  std::fprintf(out, "}\n");
  std::fclose(out);
  // The acceptance line tools/check.sh greps: int8 must beat dispatched
  // SIMD fp32 by >= 1.25x on this machine.
  std::fprintf(stderr, "quant_bench: int8/fp32-simd speedup = %.2f\n",
               speedup);
  std::fprintf(stderr, "quant_bench: int8/fp32-scalar ratio = %.2f\n",
               speedup_vs_scalar);
  // The second gated line: the SIMD GELU epilogue must beat the scalar
  // tanh port by >= 3x.
  std::fprintf(stderr, "quant_bench: gelu simd/scalar speedup = %.2f\n",
               gelu_speedup);
  // The third gated line: the attention core must beat the scalar head by
  // >= 2x at both sequence lengths (the smaller ratio is printed).
  std::fprintf(stderr, "quant_bench: attn simd/scalar speedup = %.2f\n",
               attn_speedup);
  // The fourth gated line: the AVX-512 tile must beat the AVX axpy by
  // >= 1.3x over the four Linear shapes; hosts without it print a skip.
  if (tile_us > 0.0) {
    std::fprintf(stderr, "quant_bench: gemm tile/avx speedup = %.2f\n",
                 tile_speedup);
  } else {
    std::fprintf(stderr,
                 "quant_bench: gemm tile/avx skipped: cpu has no avx512f\n");
  }
  // The seventh gated line: the int8 AMX kernel against the AVX2 one over
  // the four Linear shapes at 76 rows; hosts without AMX print a skip.
  if (int8_amx_us > 0.0) {
    std::fprintf(stderr, "quant_bench: int8 amx/avx2 speedup = %.2f\n",
                 int8_avx2_us / int8_amx_us);
  } else {
    std::fprintf(stderr,
                 "quant_bench: int8 amx/avx2 skipped: no amx int8 kernel\n");
  }
  // The fifth and sixth gated lines: the AVX-512 GELU and attention twins
  // against their AVX2 twins (the attention ratio is the smaller of seq 76
  // and 190); exp and LayerNorm are reported, not gated. Hosts without
  // AVX-512F print a skip.
  if (twins) {
    std::fprintf(stderr, "quant_bench: gelu 512/avx2 speedup = %.2f\n",
                 twin_gelu_us[0] / twin_gelu_us[1]);
    std::fprintf(stderr, "quant_bench: attn 512/avx2 speedup = %.2f\n",
                 twin_attn_speedup);
    std::fprintf(stderr, "quant_bench: expf 512/avx2 speedup = %.2f\n",
                 twin_expf_us[0] / twin_expf_us[1]);
    std::fprintf(stderr, "quant_bench: layernorm 512/avx2 speedup = %.2f\n",
                 twin_norm_us[0] / twin_norm_us[1]);
  } else {
    std::fprintf(stderr,
                 "quant_bench: 512/avx2 twins skipped: cpu has no avx512f\n");
  }
  std::fprintf(stderr, "quant_bench: wrote %s\n", path.c_str());
}

void BM_KMeans(benchmark::State& state) {
  doduo::util::Rng rng(6);
  Tensor points({200, 64});
  points.FillNormal(&rng, 1.0f);
  doduo::cluster::KMeans::Options options;
  options.k = 15;
  options.restarts = 1;
  doduo::cluster::KMeans kmeans(options);
  for (auto _ : state) {
    auto assignment = kmeans.Cluster(points);
    benchmark::DoNotOptimize(assignment.data());
  }
}
BENCHMARK(BM_KMeans);

}  // namespace

// BENCHMARK_MAIN plus an optional pipeline-metrics dump: run with
// DODUO_BENCH_METRICS=1 to get the per-stage latency histograms and
// counters (DESIGN §10) as JSON on stderr after the benchmark table.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (doduo::util::GetEnvInt("DODUO_BENCH_QUANT", 0) != 0) {
    EmitQuantBenchJson();
  }
  if (doduo::util::GetEnvInt("DODUO_BENCH_METRICS", 0) != 0) {
    std::fprintf(stderr, "%s\n", doduo::util::MetricsToJson().c_str());
  }
  return 0;
}
