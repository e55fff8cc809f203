// nn::Tanh (the fdlibm tanhf port), every member of its row-kernel family
// (nn::TanhKernels: scalar, AVX2, AVX-512, whichever this CPU runs) and
// every layer that runs it through the dispatched rows: the SIMD twins must
// equal the scalar port bit for bit, and the port must equal glibc's
// fdlibm tanhf, pinned here as bit patterns so the check does not depend
// on the host's libm.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "doduo/nn/activations.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }
float FromBits(uint32_t b) { return std::bit_cast<float>(b); }

// Every y[i] equals Tanh(x[i]) bit for bit; returns the mismatch count and
// reports the first few.
int ExpectRowMatchesPort(const std::vector<float>& x,
                         const std::vector<float>& y,
                         const char* what = "TanhRow") {
  int mismatches = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t want = Bits(Tanh(x[i]));
    if (Bits(y[i]) != want && ++mismatches <= 5) {
      ADD_FAILURE() << std::hex << "x=0x" << Bits(x[i]) << " " << what
                    << "=0x" << Bits(y[i]) << " Tanh=0x" << want;
    }
  }
  return mismatches;
}

// Each twin on a row of 8 and of 16 copies of v, so every lane of an 8- or
// 16-lane kernel (not the whole-vector scalar fallback a special neighbour
// would trigger) sees v.
void ExpectBroadcastRowMatchesPort(float v) {
  for (const TanhKernel& kernel : TanhKernels()) {
    for (const size_t width : {size_t{8}, size_t{16}}) {
      std::vector<float> x(width, v);
      std::vector<float> y(width);
      kernel.tanh_row(x.data(), y.data(), static_cast<int64_t>(width));
      ExpectRowMatchesPort(x, y, kernel.name);
    }
  }
}

// Widths around the 8- and 16-lane vectors and their masked tails.
constexpr int64_t kWidths[] = {1, 7, 8, 9, 15, 16, 17, 255, 256, 257};

TEST(TanhTest, KernelListNamesTheReferenceFirst) {
  const std::vector<TanhKernel> kernels = TanhKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string(kernels[0].name), "scalar");
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool has_avx512 = __builtin_cpu_supports("avx512f") != 0;
  EXPECT_EQ(std::string(kernels.back().name) == "avx512", has_avx512);
#endif
}

// ~1M inputs spread over the whole 32-bit space (odd stride, so every
// exponent, both signs, subnormals, infs and NaNs all appear).
std::vector<float> StridedSweep() {
  constexpr uint64_t kStride = 4093;
  std::vector<float> x;
  x.reserve((uint64_t{1} << 32) / kStride + 1);
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += kStride) {
    x.push_back(FromBits(static_cast<uint32_t>(b)));
  }
  return x;
}

// FNV-1a over the little-endian bytes of every output's bit pattern.
uint64_t Digest(const std::vector<float>& y) {
  uint64_t h = 1469598103934665603ull;
  for (float v : y) {
    const uint32_t b = Bits(v);
    for (int i = 0; i < 4; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(TanhTest, StridedSweepOfAllBitPatternsMatchesPort) {
  const std::vector<float> x = StridedSweep();
  std::vector<float> y(x.size());
  for (const TanhKernel& kernel : TanhKernels()) {
    kernel.tanh_row(x.data(), y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(ExpectRowMatchesPort(x, y, kernel.name), 0);
    // In place, as BiasGeluForward-style callers use it.
    std::vector<float> inplace = x;
    kernel.tanh_row(inplace.data(), inplace.data(),
                    static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(Bits(inplace[i]), Bits(y[i])) << kernel.name << " " << i;
    }
  }
  TanhRow(x.data(), y.data(), static_cast<int64_t>(x.size()));
  EXPECT_EQ(ExpectRowMatchesPort(x, y), 0);
}

TEST(TanhTest, BranchEdgesMatchPort) {
  // |x| thresholds, as bit patterns, with how many ulps to sweep each way.
  // tanhf: 2^-55 (x*(1+x)), 1 (which expm1f call) and 22 (+-1). expm1f
  // sees u = 2|x| (|x| >= 1) or -2|x|, so its thresholds on |u| — 0.5*ln2,
  // 1.5*ln2 (k = +-1), 2^-25 (returns u), 27*ln2 — sit at half those
  // values. The k boundaries k = (int)(u/ln2 +- 0.5) changes at are only
  // known to a few ulps, so they get a wider sweep: k = -2/-3 at
  // u = -2.5*ln2, and the 2..22 / 23..56 / > 56 ranges at 22.5 and 56.5*ln2.
  struct Edge {
    uint32_t bits;
    int ulps;
  };
  const float ln2 = 0.693147180559945f;
  const Edge edges[] = {
      {0x24000000u, 2},               // 2^-55
      {0x3f800000u, 2},               // 1
      {0x41b00000u, 2},               // 22
      {0x3e317218u, 2},               // |u| = 0.5*ln2
      {0x3f051592u, 2},               // |u| = 1.5*ln2
      {0x32800000u, 2},               // |u| = 2^-25
      {0x4115b844u, 2},               // |u| = 27*ln2
      {Bits(1.25f * ln2), 64},        // k = -2 / -3
      {Bits(11.25f * ln2), 64},       // k = 22 / 23
      {Bits(28.25f * ln2), 64},       // k = 56 / 57
  };
  std::vector<float> x;
  for (const Edge& edge : edges) {
    for (int d = -edge.ulps; d <= edge.ulps; ++d) {
      const uint32_t b = edge.bits + static_cast<uint32_t>(d);
      x.push_back(FromBits(b));
      x.push_back(FromBits(b | 0x80000000u));
    }
  }
  std::vector<float> y(x.size());
  for (const TanhKernel& kernel : TanhKernels()) {
    kernel.tanh_row(x.data(), y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(ExpectRowMatchesPort(x, y, kernel.name), 0);
  }
  for (float v : x) ExpectBroadcastRowMatchesPort(v);
}

TEST(TanhTest, SpecialValuesMatchPortInEveryLane) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      0.0f,  -0.0f, FromBits(0x00000001u), FromBits(0x807fffffu),
      FromBits(0x00400000u), inf,  -inf,
      std::numeric_limits<float>::quiet_NaN(), FromBits(0xffc00000u),
      FromBits(0x7f800001u),  // signaling NaN
      FromBits(0x7fc12345u),  // NaN with a payload
  };
  // Each special in every position of every width: full vectors, scalar
  // and masked tails alike, for every twin.
  for (const TanhKernel& kernel : TanhKernels()) {
    for (const int64_t width : kWidths) {
      const size_t w = static_cast<size_t>(width);
      for (float s : specials) {
        int mismatches = 0;
        for (size_t lane = 0; lane < w; ++lane) {
          std::vector<float> x(w);
          for (size_t i = 0; i < w; ++i) {
            x[i] = 0.1f * static_cast<float>(i % 40 + 1);
          }
          x[lane] = s;
          std::vector<float> y(w);
          kernel.tanh_row(x.data(), y.data(), width);
          mismatches += ExpectRowMatchesPort(x, y, kernel.name);
        }
        ASSERT_EQ(mismatches, 0) << kernel.name << " width " << width;
      }
    }
  }
  EXPECT_EQ(Bits(Tanh(0.0f)), 0x00000000u);
  EXPECT_EQ(Bits(Tanh(-0.0f)), 0x80000000u);
  EXPECT_EQ(Bits(Tanh(FromBits(0x00000001u))), 0x00000001u);
  EXPECT_EQ(Bits(Tanh(FromBits(0x807fffffu))), 0x807fffffu);
  EXPECT_EQ(Tanh(inf), 1.0f);
  EXPECT_EQ(Tanh(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(Tanh(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(Tanh(FromBits(0x7f800001u))));
}

TEST(TanhTest, PinnedOutputsOfGlibcTanhf) {
  // Input -> output bit patterns of glibc 2.36 tanhf (fdlibm), one or more
  // per branch of tanhf and of the expm1f it calls.
  struct Pin {
    uint32_t x;
    uint32_t y;
  };
  const Pin pins[] = {
      {0x00000000u, 0x00000000u},  // tanh(0)
      {0x80000000u, 0x80000000u},  // tanh(-0)
      {0x00000001u, 0x00000001u},  // tanh(1.40129846e-45)
      {0x807fffffu, 0x807fffffu},  // tanh(-1.17549421e-38)
      {0x1e3ce508u, 0x1e3ce508u},  // tanh(9.99999968e-21)
      {0x23ffffffu, 0x23ffffffu},  // tanh(2.7755574e-17)
      {0x24000000u, 0x24000000u},  // tanh(2.77555756e-17)
      {0x3300d959u, 0x3300d95au},  // tanh(2.99999989e-08)
      {0x358637bdu, 0x358637bdu},  // tanh(9.99999997e-07)
      {0x3983126fu, 0x3983126fu},  // tanh(0.000250000012)
      {0x3c23d70au, 0x3c23d5a4u},  // tanh(0.00999999978)
      {0x3dcccccdu, 0x3dcc1ebcu},  // tanh(0.100000001)
      {0xbdcccccdu, 0xbdcc1ebcu},  // tanh(-0.100000001)
      {0x3e2e147bu, 0x3e2c6c15u},  // tanh(0.170000002)
      {0x3e800000u, 0x3e7acbf5u},  // tanh(0.25)
      {0xbe99999au, 0xbe9526edu},  // tanh(-0.300000012)
      {0x3ecccccdu, 0x3ec288acu},  // tanh(0.400000006)
      {0x3f000000u, 0x3eec9a9fu},  // tanh(0.5)
      {0xbf000000u, 0xbeec9a9fu},  // tanh(-0.5)
      {0x3f19999au, 0x3f097c15u},  // tanh(0.600000024)
      {0x3f400000u, 0x3f22991fu},  // tanh(0.75)
      {0x3f666666u, 0x3f375f4cu},  // tanh(0.899999976)
      {0x3f7fffffu, 0x3f42f7d5u},  // tanh(0.99999994)
      {0x3f800000u, 0x3f42f7d6u},  // tanh(1)
      {0xbf800000u, 0xbf42f7d6u},  // tanh(-1)
      {0x3fa00000u, 0x3f59291eu},  // tanh(1.25)
      {0x3fc00000u, 0x3f67b7ccu},  // tanh(1.5)
      {0xc0000000u, 0xbf76ca83u},  // tanh(-2)
      {0x40400000u, 0x3f7ebbe9u},  // tanh(3)
      {0x40900000u, 0x3f7fefd4u},  // tanh(4.5)
      {0x40c00000u, 0x3f7fff32u},  // tanh(6)
      {0x40f00000u, 0x3f7ffff6u},  // tanh(7.5)
      {0xc1000000u, 0xbf7ffffcu},  // tanh(-8)
      {0x41100000u, 0x3f7fffffu},  // tanh(9)
      {0x41180000u, 0x3f800000u},  // tanh(9.5)
      {0xc19e0000u, 0xbf800000u},  // tanh(-19.75)
      {0x41afffffu, 0x3f800000u},  // tanh(21.9999981)
      {0x41b00000u, 0x3f800000u},  // tanh(22)
      {0x7f7fffffu, 0x3f800000u},  // tanh(3.40282347e+38)
      {0x7f800000u, 0x3f800000u},  // tanh(inf)
      {0xff800000u, 0xbf800000u},  // tanh(-inf)
  };
  std::vector<float> x;
  for (const Pin& pin : pins) {
    EXPECT_EQ(Bits(Tanh(FromBits(pin.x))), pin.y) << std::hex << pin.x;
    x.push_back(FromBits(pin.x));
  }
  std::vector<float> y(x.size());
  for (const TanhKernel& kernel : TanhKernels()) {
    kernel.tanh_row(x.data(), y.data(), static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(Bits(y[i]), pins[i].y)
          << kernel.name << " " << std::hex << pins[i].x;
    }
    for (const Pin& pin : pins) {
      std::vector<float> row(16, FromBits(pin.x));
      kernel.tanh_row(row.data(), row.data(), 16);
      for (const float v : row) {
        EXPECT_EQ(Bits(v), pin.y) << kernel.name << " " << std::hex << pin.x;
      }
    }
  }
}

TEST(TanhTest, StridedSweepDigestMatchesGlibcTanhf) {
  // The digest of glibc 2.36 tanhf over the 1,049,345 sweep inputs: one
  // number that pins every output, where the table above pins 40.
  constexpr uint64_t kGlibcDigest = 0x3f61e43e576bd82full;
  const std::vector<float> x = StridedSweep();
  std::vector<float> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = Tanh(x[i]);
  EXPECT_EQ(Digest(y), kGlibcDigest);
  for (const TanhKernel& kernel : TanhKernels()) {
    kernel.tanh_row(x.data(), y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(Digest(y), kGlibcDigest) << kernel.name;
  }
  TanhRow(x.data(), y.data(), static_cast<int64_t>(x.size()));
  EXPECT_EQ(Digest(y), kGlibcDigest);
}

// Normal values wide enough to reach both sides of every tanh branch
// (GELU's inner term passes 22 near x = 7.6), with inf/NaN/zero lanes
// mixed in so the whole-vector scalar fallback runs too.
Tensor MixedInput(std::initializer_list<int64_t> shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t{std::vector<int64_t>(shape)};
  t.FillNormal(&rng, 3.0f);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -9.0f, 12.0f};
  for (int64_t i = 5, s = 0; i < t.size(); i += 37, ++s) {
    t.data()[i] = specials[s % 6];
  }
  return t;
}

void ExpectBitsEqual(const Tensor& got, const std::vector<float>& want,
                     const char* what, int64_t width) {
  ASSERT_EQ(got.size(), static_cast<int64_t>(want.size()));
  int mismatches = 0;
  for (int64_t i = 0; i < got.size(); ++i) {
    if (Bits(got.data()[i]) != Bits(want[static_cast<size_t>(i)]) &&
        ++mismatches <= 3) {
      ADD_FAILURE() << what << " width " << width << " element " << i
                    << ": got " << got.data()[i] << " want "
                    << want[static_cast<size_t>(i)];
    }
  }
}

TEST(TanhLayerParityTest, BiasGeluForwardMatchesScalarPort) {
  for (int64_t w : kWidths) {
    Tensor pre = MixedInput({3, w}, 100 + static_cast<uint64_t>(w));
    Tensor bias = MixedInput({w}, 200 + static_cast<uint64_t>(w));
    std::vector<float> want_pre(static_cast<size_t>(pre.size()));
    std::vector<float> want_act(want_pre.size());
    for (int64_t i = 0; i < pre.size(); ++i) {
      const float u = pre.data()[i] + bias.data()[i % w];
      want_pre[static_cast<size_t>(i)] = u;
      want_act[static_cast<size_t>(i)] = GeluScalar(u);
    }
    Tensor act;
    BiasGeluForward(&pre, bias, &act);
    ExpectBitsEqual(pre, want_pre, "BiasGeluForward pre_act", w);
    ExpectBitsEqual(act, want_act, "BiasGeluForward act", w);
  }
}

TEST(TanhLayerParityTest, GeluForwardAndBackwardMatchScalarPort) {
  for (int64_t w : kWidths) {
    const Tensor x = MixedInput({3, w}, 300 + static_cast<uint64_t>(w));
    const Tensor dy = MixedInput({3, w}, 400 + static_cast<uint64_t>(w));
    std::vector<float> want_y(static_cast<size_t>(x.size()));
    std::vector<float> want_dx(want_y.size());
    for (int64_t i = 0; i < x.size(); ++i) {
      want_y[static_cast<size_t>(i)] = GeluScalar(x.data()[i]);
      want_dx[static_cast<size_t>(i)] =
          dy.data()[i] * GeluGradScalar(x.data()[i]);
    }
    Gelu gelu;
    ExpectBitsEqual(gelu.Forward(x), want_y, "Gelu::Forward", w);
    ExpectBitsEqual(gelu.Backward(dy), want_dx, "Gelu::Backward", w);
    Tensor dx;
    GeluBackward(x, dy, &dx);
    ExpectBitsEqual(dx, want_dx, "GeluBackward", w);
  }
}

TEST(TanhLayerParityTest, EveryGeluTwinMatchesScalarPort) {
  for (const TanhKernel& kernel : TanhKernels()) {
    for (int64_t w : kWidths) {
      const Tensor x = MixedInput({3, w}, 600 + static_cast<uint64_t>(w));
      std::vector<float> want(static_cast<size_t>(x.size()));
      for (int64_t i = 0; i < x.size(); ++i) {
        want[static_cast<size_t>(i)] = GeluScalar(x.data()[i]);
      }
      Tensor y(x.shape());
      kernel.gelu_row(x.data(), y.data(), x.size());
      ExpectBitsEqual(y, want, kernel.name, w);
      Tensor inplace = x;
      kernel.gelu_row(inplace.data(), inplace.data(), x.size());
      ExpectBitsEqual(inplace, want, kernel.name, w);
    }
  }
}

TEST(TanhLayerParityTest, TanhLayerMatchesScalarPort) {
  for (int64_t w : kWidths) {
    const Tensor x = MixedInput({3, w}, 500 + static_cast<uint64_t>(w));
    std::vector<float> want(static_cast<size_t>(x.size()));
    for (int64_t i = 0; i < x.size(); ++i) {
      want[static_cast<size_t>(i)] = Tanh(x.data()[i]);
    }
    TanhLayer layer;
    ExpectBitsEqual(layer.Forward(x), want, "TanhLayer", w);
    for (const TanhKernel& kernel : TanhKernels()) {
      Tensor y(x.shape());
      kernel.tanh_row(x.data(), y.data(), x.size());
      ExpectBitsEqual(y, want, kernel.name, w);
    }
  }
}

// All 2^32 inputs: every twin against the port, and the port against the
// host's tanhf when that is glibc's fdlibm one (glibc <= 2.40). About a
// minute; run with --gtest_also_run_disabled_tests.
TEST(TanhTest, DISABLED_ExhaustiveMatchesPortAndGlibc) {
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ <= 40
  const bool check_libm = true;
#else
  const bool check_libm = false;
#endif
  const std::vector<TanhKernel> kernels = TanhKernels();
  std::printf("[ twins    ] tanh:");
  for (const TanhKernel& kernel : kernels) std::printf(" %s", kernel.name);
  std::printf("\n");
  std::fflush(stdout);
  constexpr int kChunk = 1 << 16;
  std::vector<float> x(kChunk);
  std::vector<uint32_t> port(kChunk);
  std::vector<float> y(kChunk);
  std::vector<uint64_t> row_mismatches(kernels.size(), 0);
  uint64_t libm_mismatches = 0;
  for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kChunk) {
    for (int i = 0; i < kChunk; ++i) {
      const float v = FromBits(static_cast<uint32_t>(base + i));
      x[static_cast<size_t>(i)] = v;
      port[static_cast<size_t>(i)] = Bits(Tanh(v));
      if (check_libm) {
        libm_mismatches += Bits(std::tanh(v)) != port[static_cast<size_t>(i)];
      }
    }
    for (size_t k = 0; k < kernels.size(); ++k) {
      kernels[k].tanh_row(x.data(), y.data(), kChunk);
      for (int i = 0; i < kChunk; ++i) {
        row_mismatches[k] += Bits(y[static_cast<size_t>(i)]) !=
                             port[static_cast<size_t>(i)];
      }
    }
  }
  for (size_t k = 0; k < kernels.size(); ++k) {
    EXPECT_EQ(row_mismatches[k], 0u) << kernels[k].name;
  }
  EXPECT_EQ(libm_mismatches, 0u);
}

}  // namespace
}  // namespace doduo::nn
