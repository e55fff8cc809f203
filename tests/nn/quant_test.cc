#include "doduo/nn/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "doduo/nn/linear.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/rng.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

// Every test leaves the process-wide switch where it found it (off by
// default) so unrelated suites in this binary never see the int8 path.
class QuantTest : public ::testing::Test {
 protected:
  void TearDown() override { SetQuantEnabled(false); }
};

// Force the parallel dispatch gate open for every shape, so the thread
// sweep below shards even the smallest GEMMs. Runs at static-init time,
// before any kernel call caches the threshold.
const bool g_force_parallel = [] {
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  return true;
}();

// The documented Int8Linear contract, computed the slow way: per-row
// activation quantization (lrintf, clamp to ±127), an exact 64-bit integer
// dot per output element, then y = (sa · sw) · float(acc) (+ bias).
Tensor Int8Oracle(const Tensor& x, const QuantizedWeight& w,
                  const float* bias) {
  const int64_t m = x.rows();
  const int64_t k = w.in;
  Tensor y({m, w.out});
  std::vector<int64_t> qx(static_cast<size_t>(k));
  for (int64_t i = 0; i < m; ++i) {
    float max_abs = 0.0f;
    for (int64_t l = 0; l < k; ++l) {
      max_abs = std::max(max_abs, std::fabs(x.at(i, l)));
    }
    const float sa = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    const float inv = 1.0f / sa;
    for (int64_t l = 0; l < k; ++l) {
      qx[static_cast<size_t>(l)] =
          std::clamp<long>(std::lrintf(x.at(i, l) * inv), -127, 127);
    }
    for (int64_t j = 0; j < w.out; ++j) {
      int64_t acc = 0;
      for (int64_t l = 0; l < k; ++l) {
        acc += qx[static_cast<size_t>(l)] *
               w.q[static_cast<size_t>(j * k + l)];
      }
      EXPECT_LE(std::abs(acc), int64_t{INT32_MAX});
      const float sw = w.scale[static_cast<size_t>(j)];
      const float v = sa * sw * static_cast<float>(acc);
      y.at(i, j) = bias != nullptr ? v + bias[j] : v;
    }
  }
  return y;
}

// `qw` packed for `kernel` (each member reads only its own layout). The
// view points into the object, so it stays where it was built.
struct KernelWeight {
  KernelWeight(const Int8Kernel& kernel, const QuantizedWeight& qw)
      : view{&packed, qw.scale.data(), qw.out, qw.in} {
    kernel.pack(qw.q.data(), qw.out, qw.in, &packed);
  }
  KernelWeight(const KernelWeight&) = delete;
  KernelWeight& operator=(const KernelWeight&) = delete;

  PackedInt8 packed;
  Int8WeightView view;
};

const Int8Kernel* FindKernel(const std::vector<Int8Kernel>& kernels,
                             const char* name) {
  for (const Int8Kernel& kernel : kernels) {
    if (std::string(kernel.name) == name) return &kernel;
  }
  return nullptr;
}

// The AMX cases run only where the CPU has AMX and the process was granted
// the tile state; elsewhere they say so in the log.
bool HasAmxOrLogSkip(const std::vector<Int8Kernel>& kernels) {
  if (FindKernel(kernels, "amx") != nullptr) return true;
  std::printf("[  SKIPPED ] amx cases: no amx int8 kernel on this host\n");
  return false;
}

// Bitwise comparison (EXPECT_EQ on floats would let -0.0 == 0.0 through).
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    const uint32_t g = std::bit_cast<uint32_t>(got.data()[i]);
    const uint32_t w = std::bit_cast<uint32_t>(want.data()[i]);
    if (g != w) {
      ADD_FAILURE() << what << ": element " << i << " is " << got.data()[i]
                    << ", oracle " << want.data()[i];
      return;
    }
  }
}

// Every kernel, packed its own way, against the oracle at 1, 2 and 8
// threads, with and without bias.
void ExpectKernelsMatchOracle(const std::vector<Int8Kernel>& kernels,
                              int64_t m, int64_t n, int64_t k,
                              util::Rng* rng) {
  Tensor x({m, k}), w({k, n});
  x.FillNormal(rng, 1.0f);
  w.FillNormal(rng, 0.5f);
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& b : bias) b = rng->UniformFloat(-0.5f, 0.5f);
  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  std::vector<std::unique_ptr<KernelWeight>> packed;
  for (const Int8Kernel& kernel : kernels) {
    packed.push_back(std::make_unique<KernelWeight>(kernel, qw));
  }
  for (const float* b : {static_cast<const float*>(nullptr),
                         static_cast<const float*>(bias.data())}) {
    const Tensor want = Int8Oracle(x, qw, b);
    for (const int threads : {1, 2, 8}) {
      util::SetComputeThreads(threads);
      for (size_t i = 0; i < kernels.size(); ++i) {
        Tensor got;
        kernels[i].linear(x, packed[i]->view, b, &got);
        ExpectBitIdentical(
            got, want,
            std::string(kernels[i].name) + " m=" + std::to_string(m) +
                " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                " threads=" + std::to_string(threads) +
                (b != nullptr ? " bias" : " no bias"));
      }
    }
  }
  util::SetComputeThreads(1);
}

TEST_F(QuantTest, KernelsAreBitIdenticalAcrossIsas) {
  // The int32 sums are exact and the epilogue order is fixed, so every
  // kernel at every thread count must reproduce the oracle bit for bit —
  // which is what makes DODUO_SIMD a pure speed knob on the quant path.
  // Shapes straddle the 4-row tile, the 8-column panel, the 16-column tile
  // and odd k (a zero-padded k-pair).
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  ASSERT_GE(kernels.size(), 1u);
  EXPECT_STREQ(kernels[0].name, "scalar");
  util::Rng rng(7);
  for (const int64_t m : {1, 3, 4, 5, 77}) {
    for (const int64_t n : {1, 15, 16, 17, 24, 192}) {
      for (const int64_t k : {1, 2, 3, 63, 64, 256}) {
        ExpectKernelsMatchOracle(kernels, m, n, k, &rng);
      }
    }
  }
  // AMX tile edges: 16-row A tiles (one short, whole, one and two past),
  // 64-deep k steps (padded, whole, one past) and 16-channel weight blocks
  // taken two at a time (an odd block count, and a partial last block).
  if (!HasAmxOrLogSkip(kernels)) return;
  for (const int64_t m : {15, 16, 17, 33}) {
    for (const int64_t k : {65, 127, 128, 257}) {
      for (const int64_t n : {31, 33}) {
        ExpectKernelsMatchOracle(kernels, m, n, k, &rng);
      }
    }
  }
}

TEST_F(QuantTest, KernelsSaturateTheWorstCase) {
  // All-(-127) activations times all-127 weights at the largest k the int32
  // accumulator admits: k · 127² = 2³¹ − 1 − 4071, so one more step would
  // overflow. Every kernel must produce the exact sum; scales are 1.
  const int64_t k = kMaxInt8DotK;
  ASSERT_LE(k * 127 * 127, int64_t{INT32_MAX});
  ASSERT_GT((k + 1) * 127 * 127, int64_t{INT32_MAX});
  // 17 rows and 17 channels cross the AMX kernel's 16-row and 16-channel
  // tiles as well as the panel kernels' 4-row and 8-channel ones.
  const int64_t m = 17, n = 17;
  Tensor x({m, k}), w({k, n});
  x.Fill(-127.0f);
  w.Fill(127.0f);
  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  const float want = static_cast<float>(static_cast<int32_t>(k * -127 * 127));
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  HasAmxOrLogSkip(kernels);
  for (const Int8Kernel& kernel : kernels) {
    const KernelWeight packed(kernel, qw);
    Tensor y;
    kernel.linear(x, packed.view, nullptr, &y);
    for (int64_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(y.data()[i]),
                std::bit_cast<uint32_t>(want))
          << kernel.name << " element " << i << " = " << y.data()[i];
    }
  }
}

TEST(QuantDeathTest, Int8LinearRejectsKPastTheBound) {
  // One step past the exact bound, (2³¹ − 1) / 127² + 1, the int32 sum can
  // overflow; Int8Linear must refuse the shape.
  const int64_t k = 133145;
  const std::vector<int8_t> q(static_cast<size_t>(k));
  PackedInt8 packed;
  PackInt8Weight(q.data(), /*out=*/1, /*in=*/k, &packed);
  const std::vector<float> scale(1, 1.0f);
  const Int8WeightView w{&packed, scale.data(), /*out=*/1, /*in=*/k};
  const Tensor x({1, k});
  Tensor y;
  EXPECT_DEATH(Int8Linear(x, w, nullptr, &y), "overflow");
}

TEST(QuantDeathTest, KernelsRefuseAnotherKernelsLayout) {
  // Each member reads only the layout its own pack wrote; a weight packed
  // for another layout would run to wrong numbers, so it must not run.
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  const std::vector<int8_t> q(4 * 8, 1);
  const std::vector<float> scale(4, 1.0f);
  const Tensor x({2, 8});
  for (const Int8Kernel& packer : kernels) {
    PackedInt8 packed;
    packer.pack(q.data(), /*out=*/4, /*in=*/8, &packed);
    const Int8WeightView w{&packed, scale.data(), /*out=*/4, /*in=*/8};
    for (const Int8Kernel& runner : kernels) {
      if (runner.pack == packer.pack) continue;
      Tensor y;
      EXPECT_DEATH(runner.linear(x, w, nullptr, &y), "packed as")
          << packer.name << " -> " << runner.name;
    }
  }
}

TEST_F(QuantTest, QuantizeRowIsIdenticalAcrossKernels) {
  // The SIMD quantizer must reproduce lrintf + clamp and the NaN-skipping
  // running max exactly, including on the rows where vector instructions
  // differ from scalar ones by default (maxps and NaN, cvtps and inf).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  std::vector<std::vector<float>> rows = {
      std::vector<float>(19, 0.0f),
      {0.0f, -0.0f, 0.0f, -0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f},
      std::vector<float>(17, 37 * sub),
      {sub, -sub, 3 * sub, 0.0f, -5 * sub, 1e-39f, -1e-38f, 2e-38f, sub},
      {1.0f, -2.0f, inf, 0.5f, -0.25f, 3.0f, 0.0f, -1.0f, 2.0f, 7.0f},
      {1.0f, -2.0f, -inf, 0.5f, -0.25f, 3.0f, 0.0f, -1.0f, 2.0f, 7.0f},
      {nan, 1.0f, -2.0f, 0.5f, 3.0f, -4.0f, 0.25f, 8.0f, 1.5f},
      {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, nan, 9.0f, -nan, 11.0f},
      // The row max sits in lane 0 of the first vector and a NaN in lane 0
      // of the second: maxps with the operands swapped would drop the max.
      {-100.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f,
       nan, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f},
      std::vector<float>(8, nan),
      {nan, inf, -inf, 0.0f, -0.0f, sub, 1.0f, -1.0f, 100.0f, -nan},
  };
  util::Rng rng(31);
  for (const int64_t k : {1, 7, 8, 9, 15, 16, 17, 33, 64, 65, 256}) {
    std::vector<float> row(static_cast<size_t>(k));
    for (auto& v : row) v = rng.UniformFloat(-3.0f, 3.0f);
    rows.push_back(row);
  }
  // Each kernel's quantizer (int16 for the panel kernels, int8 for amx),
  // widened to int32 by Int8Kernel::quantize_row.
  const auto quantize = [](const Int8Kernel& kernel,
                           const std::vector<float>& row,
                           std::vector<int32_t>* q) {
    q->resize(row.size());
    return kernel.quantize_row(row.data(), static_cast<int64_t>(row.size()),
                               q->data());
  };
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  HasAmxOrLogSkip(kernels);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<int32_t> want;
    const float want_scale = quantize(kernels[0], rows[r], &want);
    for (const int32_t q : want) {
      EXPECT_GE(q, -127);
      EXPECT_LE(q, 127);
    }
    for (const Int8Kernel& kernel : kernels) {
      std::vector<int32_t> got;
      const float scale = quantize(kernel, rows[r], &got);
      EXPECT_EQ(std::bit_cast<uint32_t>(scale),
                std::bit_cast<uint32_t>(want_scale))
          << kernel.name << " row " << r;
      EXPECT_EQ(got, want) << kernel.name << " row " << r;
    }
  }
}

TEST_F(QuantTest, PanelsPadToWholePanelsWithZeros) {
  // 3 channels × 3 inputs: one panel of 8 channels, two k-pairs; every slot
  // that is not a real weight must be zero so padded products vanish.
  const std::vector<int8_t> q = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // [out=3, in=3]
  PackedInt8 packed;
  Int8Kernels()[0].pack(q.data(), /*out=*/3, /*in=*/3, &packed);
  ASSERT_EQ(packed.lines.size(), 1u);  // 1 · 2 · 8 · 2 int16s, one line
  std::vector<int16_t> panels(32);
  std::memcpy(panels.data(), packed.lines.data(), 64);
  // panel[(kk · 8 + c) · 2 + t] = q[c][2kk + t]
  EXPECT_EQ(panels[0], 1);
  EXPECT_EQ(panels[1], 2);
  EXPECT_EQ(panels[2], 4);
  EXPECT_EQ(panels[3], 5);
  EXPECT_EQ(panels[4], 7);
  EXPECT_EQ(panels[5], 8);
  EXPECT_EQ(panels[16], 3);
  EXPECT_EQ(panels[17], 0);
  EXPECT_EQ(panels[18], 6);
  EXPECT_EQ(panels[20], 9);
  int64_t nonzero = 0;
  for (const int16_t v : panels) nonzero += v != 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 9);
}

TEST_F(QuantTest, AmxBlocksPadToWholeTilesWithZeros) {
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  if (!HasAmxOrLogSkip(kernels)) GTEST_SKIP() << "no amx int8 kernel";
  // 17 channels × 5 inputs: two 16-channel blocks, k padded to 64 (16
  // quads, one 64-byte line each), so 2 · 16 lines, half the bytes of the
  // int16 panels for these 17 × 64.
  std::vector<int8_t> q(17 * 5);
  for (size_t i = 0; i < q.size(); ++i) q[i] = static_cast<int8_t>(i + 1);
  PackedInt8 packed;
  FindKernel(kernels, "amx")->pack(q.data(), /*out=*/17, /*in=*/5, &packed);
  ASSERT_EQ(packed.lines.size(), 32u);
  // line[16p + kq].bytes[c · 4 + t] = q[16p + c][4kq + t]
  const auto at = [&](int64_t p, int64_t kq, int64_t c, int64_t t) {
    return packed.lines[static_cast<size_t>(16 * p + kq)]
        .bytes[static_cast<size_t>(c * 4 + t)];
  };
  EXPECT_EQ(at(0, 0, 0, 0), 1);
  EXPECT_EQ(at(0, 0, 0, 3), 4);
  EXPECT_EQ(at(0, 1, 0, 0), 5);
  EXPECT_EQ(at(0, 1, 0, 1), 0);
  EXPECT_EQ(at(0, 0, 1, 0), 6);
  EXPECT_EQ(at(0, 1, 15, 0), 80);
  EXPECT_EQ(at(1, 0, 0, 0), 81);
  EXPECT_EQ(at(1, 1, 0, 0), 85);
  EXPECT_EQ(at(1, 0, 1, 0), 0);
  int64_t nonzero = 0;
  for (const Int8Line& line : packed.lines) {
    for (const int8_t v : line.bytes) nonzero += v != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 17 * 5);
}

TEST_F(QuantTest, DispatchFollowsTheSimdSwitch) {
  // Int8Linear runs the last member Int8Kernels() lists (the widest ISA
  // this process may use), or the scalar reference under DODUO_SIMD=0 —
  // ctest QuantDispatchScalar reruns this test with it set.
  const std::vector<Int8Kernel> kernels = Int8Kernels();
  if (util::GetEnvInt("DODUO_SIMD", 1) == 0) {
    EXPECT_STREQ(Int8KernelName(), "scalar");
  } else {
    EXPECT_STREQ(Int8KernelName(), kernels.back().name);
  }
  // STATS and doduo_cli --stats carry the same facts as info labels.
  SetQuantEnabled(true);
  const util::MetricsSnapshot snapshot = util::SnapshotMetrics();
  std::string kernel, enabled;
  for (const util::InfoSnapshot& info : snapshot.info) {
    if (info.name == "quant.int8_kernel") kernel = info.value;
    if (info.name == "quant.enabled") enabled = info.value;
  }
  EXPECT_EQ(kernel, Int8KernelName());
  EXPECT_EQ(enabled, "on");
  SetQuantEnabled(false);
  EXPECT_NE(util::MetricsToJson().find("\"quant.enabled\":\"off\""),
            std::string::npos);
}

TEST_F(QuantTest, QuantizeWeightRoundTripWithinHalfStep) {
  util::Rng rng(11);
  Tensor w({24, 10});
  w.FillNormal(&rng, 0.3f);
  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  ASSERT_EQ(qw.in, 24);
  ASSERT_EQ(qw.out, 10);
  for (int64_t j = 0; j < qw.out; ++j) {
    const float scale = qw.scale[static_cast<size_t>(j)];
    ASSERT_GT(scale, 0.0f);
    for (int64_t i = 0; i < qw.in; ++i) {
      const float back =
          scale * static_cast<float>(qw.q[static_cast<size_t>(j * qw.in + i)]);
      // Round-to-nearest: dequantized value within half a quantization step.
      EXPECT_NEAR(back, w.at(i, j), scale * 0.5f + 1e-6f)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST_F(QuantTest, ZeroChannelGetsUnitScale) {
  Tensor w({4, 2});
  w.Fill(0.0f);
  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  for (const float s : qw.scale) EXPECT_EQ(s, 1.0f);
  for (const int8_t q : qw.q) EXPECT_EQ(q, 0);
}

TEST_F(QuantTest, Int8LinearTracksFp32MatMul) {
  util::Rng rng(13);
  const int64_t m = 9, k = 64, n = 17;
  Tensor x({m, k}), w({k, n});
  x.FillNormal(&rng, 1.0f);
  w.FillNormal(&rng, 0.5f);
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& b : bias) b = rng.UniformFloat(-0.5f, 0.5f);

  Tensor want;
  MatMul(x, w, &want);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      want.at(i, j) += bias[static_cast<size_t>(j)];
    }
  }

  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  Tensor got;
  Int8Linear(x, View(qw), bias.data(), &got);
  ASSERT_EQ(got.rows(), m);
  ASSERT_EQ(got.cols(), n);

  // Error model (DESIGN §14): per product the quantization error is at most
  // half a step on each operand, so relative Frobenius error stays in the
  // low single digits of a percent for well-scaled inputs.
  double err2 = 0.0, ref2 = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double d = got.at(i, j) - want.at(i, j);
      const double r = want.at(i, j);
      err2 += d * d;
      ref2 += r * r;
    }
  }
  EXPECT_LT(std::sqrt(err2 / ref2), 0.02);
}

TEST_F(QuantTest, Int8LinearNullBias) {
  util::Rng rng(17);
  Tensor x({3, 16}), w({16, 5});
  x.FillNormal(&rng, 1.0f);
  w.FillNormal(&rng, 1.0f);
  QuantizedWeight qw;
  QuantizeWeight(w, &qw);
  Tensor with_zero_bias, without_bias;
  std::vector<float> zeros(5, 0.0f);
  Int8Linear(x, View(qw), zeros.data(), &with_zero_bias);
  Int8Linear(x, View(qw), nullptr, &without_bias);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(without_bias.at(i, j), with_zero_bias.at(i, j));
    }
  }
}

TEST_F(QuantTest, LinearForwardSwitchesPathsWithQuantFlag) {
  util::Rng rng(19);
  Linear layer("q.test", 32, 8, &rng);
  Tensor x({4, 32});
  x.FillNormal(&rng, 1.0f);

  SetQuantEnabled(false);
  const Tensor fp32 = layer.Forward(x);
  SetQuantEnabled(true);
  const Tensor& quant = layer.Forward(x);

  double max_ref = 0.0, max_diff = 0.0;
  for (int64_t i = 0; i < fp32.rows(); ++i) {
    for (int64_t j = 0; j < fp32.cols(); ++j) {
      max_ref = std::max(max_ref, std::fabs(double{fp32.at(i, j)}));
      max_diff =
          std::max(max_diff, std::fabs(double{fp32.at(i, j) - quant.at(i, j)}));
    }
  }
  EXPECT_GT(max_diff, 0.0) << "quant path did not engage";
  EXPECT_LT(max_diff, 0.05 * max_ref + 1e-3);
}

TEST_F(QuantTest, LinearQuantCacheFollowsWeightRevision) {
  util::Rng rng(23);
  Linear layer("q.cache", 8, 4, &rng);
  Tensor x({1, 8});
  x.Fill(1.0f);

  SetQuantEnabled(true);
  const Tensor before = layer.Forward(x);
  // Mutate the weight the way every writer does: new values + revision
  // bump. A stale int8 cache would keep producing the old output.
  layer.weight().value.Fill(0.25f);
  layer.weight().BumpRevision();
  const Tensor& after = layer.Forward(x);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(after.at(0, j), 8 * 0.25f, 0.05f);
    EXPECT_NE(after.at(0, j), before.at(0, j));
  }
}

TEST_F(QuantTest, PrequantizedViewWinsOverLazyCache) {
  util::Rng rng(29);
  Linear layer("q.pre", 8, 4, &rng);
  Tensor x({1, 8});
  x.Fill(1.0f);

  // Attach a prequantized table that encodes a DIFFERENT weight (all 0.5):
  // the layer must serve it while it is current, proving checkpoints can
  // bypass the lazy cache.
  auto pre = std::make_shared<PrequantizedWeight>();
  auto storage = std::make_shared<QuantizedWeight>();
  Tensor w_alt({8, 4});
  w_alt.Fill(0.5f);
  QuantizeWeight(w_alt, storage.get());
  pre->scale = storage->scale.data();
  pre->packed = storage->packed;
  pre->out = storage->out;
  pre->in = storage->in;
  pre->keepalive = storage;
  layer.weight().AttachPrequant(pre);

  SetQuantEnabled(true);
  const Tensor& got = layer.Forward(x);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(got.at(0, j), 8 * 0.5f, 0.05f);
  }

  // A revision bump invalidates the attached table; the layer must fall
  // back to quantizing its own (random) weight, not keep serving 0.5s.
  layer.weight().BumpRevision();
  const Tensor& after = layer.Forward(x);
  bool differs = false;
  for (int64_t j = 0; j < 4; ++j) {
    if (std::fabs(after.at(0, j) - 8 * 0.5f) > 0.05f) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace doduo::nn
