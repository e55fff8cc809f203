// nn::Expf (the glibc 2.36 __expf_fma port) and every member of its row
// family (nn::ExpfKernels: scalar, AVX2+FMA, AVX-512, whichever this CPU
// runs) and the dispatched ExpfRow: the twins must equal the port bit for
// bit, and the port must equal glibc's expf, pinned here as bit patterns
// so the check does not depend on the host's libm.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "doduo/nn/expf.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }
float FromBits(uint32_t b) { return std::bit_cast<float>(b); }

// Every y[i] equals Expf(x[i] - shift) bit for bit; returns the mismatch
// count and reports the first few.
int ExpectRowMatchesPort(const std::vector<float>& x, float shift,
                         const std::vector<float>& y,
                         const char* what = "ExpfRow") {
  int mismatches = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t want = Bits(Expf(x[i] - shift));
    if (Bits(y[i]) != want && ++mismatches <= 5) {
      ADD_FAILURE() << std::hex << "x=0x" << Bits(x[i]) << " shift=0x"
                    << Bits(shift) << " " << what << "=0x" << Bits(y[i])
                    << " Expf=0x" << want;
    }
  }
  return mismatches;
}

// Each twin on a row of 8 and of 16 copies of v, so every lane of an 8- or
// 16-lane kernel (not only a tail) sees v.
void ExpectBroadcastRowMatchesPort(float v) {
  for (const ExpfKernel& kernel : ExpfKernels()) {
    for (const size_t width : {size_t{8}, size_t{16}}) {
      std::vector<float> x(width, v);
      std::vector<float> y(width);
      kernel.row(x.data(), 0.0f, y.data(), static_cast<int64_t>(width));
      ExpectRowMatchesPort(x, 0.0f, y, kernel.name);
    }
  }
}

// Widths around the 8- and 16-lane vectors and their tails.
constexpr int64_t kWidths[] = {1, 7, 8, 9, 15, 16, 17, 255, 256, 257};

TEST(ExpfTest, KernelListNamesTheReferenceFirst) {
  const std::vector<ExpfKernel> kernels = ExpfKernels();
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

TEST(ExpfTest, PinnedOutputsOfGlibcExpf) {
  // Input -> output bit patterns of glibc 2.36 expf (__expf_fma), across
  // the main path, the |x| >= 88 filter and every special return.
  struct Pin {
    uint32_t x;
    uint32_t y;
  };
  const Pin pins[] = {
      {0x00000000u, 0x3f800000u},  // expf(0)
      {0x80000000u, 0x3f800000u},  // expf(-0)
      {0x00000001u, 0x3f800000u},  // expf(1.40129846e-45)
      {0x80000001u, 0x3f800000u},  // expf(-1.40129846e-45)
      {0x00800000u, 0x3f800000u},  // expf(1.17549435e-38)
      {0x322bcc77u, 0x3f800000u},  // expf(9.99999994e-09)
      {0xb22bcc77u, 0x3f800000u},  // expf(-9.99999994e-09)
      {0x3dcccccdu, 0x3f8d763eu},  // expf(0.100000001)
      {0xbdcccccdu, 0x3f67a36du},  // expf(-0.100000001)
      {0x3f000000u, 0x3fd3094cu},  // expf(0.5)
      {0xbf000000u, 0x3f1b4598u},  // expf(-0.5)
      {0x3f800000u, 0x402df854u},  // expf(1)
      {0xbf800000u, 0x3ebc5ab2u},  // expf(-1)
      {0x3f317218u, 0x40000000u},  // expf(0.693147182)
      {0x40000000u, 0x40ec7326u},  // expf(2)
      {0xc0000000u, 0x3e0a9555u},  // expf(-2)
      {0x40600000u, 0x42047639u},  // expf(3.5)
      {0xc0e80000u, 0x3a3a2affu},  // expf(-7.25)
      {0x41200000u, 0x46ac14eeu},  // expf(10)
      {0xc1200000u, 0x383e6bceu},  // expf(-10)
      {0x41a00000u, 0x4de75844u},  // expf(20)
      {0xc1a00000u, 0x310da433u},  // expf(-20)
      {0x422a0000u, 0x5e1f2ec2u},  // expf(42.5)
      {0xc2480000u, 0x1b692bebu},  // expf(-50)
      {0x42a00000u, 0x792abbceu},  // expf(80)
      {0xc2a00000u, 0x05bfecbau},  // expf(-80)
      {0x42afcccdu, 0x7ee0dcaeu},  // expf(87.9000015)
      {0x42b00000u, 0x7ef882b7u},  // expf(88)
      {0x42b10000u, 0x7f4cdcc4u},  // expf(88.5)
      {0x42b17217u, 0x7f7fff84u},  // expf(88.7228317), largest finite
      {0x42b17218u, 0x7f800000u},  // expf(88.7228394), overflow
      {0xc2af0000u, 0x006cb2bcu},  // expf(-87.5)
      {0xc2b00000u, 0x0041edc4u},  // expf(-88), subnormal
      {0xc2c80000u, 0x0000001bu},  // expf(-100)
      {0xc2ce8ecfu, 0x00000001u},  // expf(-103.278923)
      {0xc2cf0000u, 0x00000001u},  // expf(-103.5)
      {0xc2cff1b4u, 0x00000001u},  // expf(-103.972076)
      {0xc2d00000u, 0x00000000u},  // expf(-104)
      {0xce6e6b28u, 0x00000000u},  // expf(-1e+09), a masked logit
      {0x7f7fffffu, 0x7f800000u},  // expf(3.40282347e+38)
      {0xff7fffffu, 0x00000000u},  // expf(-3.40282347e+38)
      {0x7f800000u, 0x7f800000u},  // expf(inf)
      {0xff800000u, 0x00000000u},  // expf(-inf)
      {0x7fc00000u, 0x7fc00000u},  // expf(nan)
      {0x7fc12345u, 0x7fc12345u},  // expf(nan with a payload)
  };
  std::vector<float> x;
  for (const Pin& pin : pins) {
    EXPECT_EQ(Bits(Expf(FromBits(pin.x))), pin.y) << std::hex << pin.x;
    x.push_back(FromBits(pin.x));
  }
  std::vector<float> y(x.size());
  for (const ExpfKernel& kernel : ExpfKernels()) {
    kernel.row(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(Bits(y[i]), pins[i].y)
          << kernel.name << " " << std::hex << pins[i].x;
    }
    for (const Pin& pin : pins) {
      std::vector<float> row(16, FromBits(pin.x));
      kernel.row(row.data(), 0.0f, row.data(), 16);
      for (const float v : row) {
        EXPECT_EQ(Bits(v), pin.y) << kernel.name << " " << std::hex << pin.x;
      }
    }
  }
  ExpfRow(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(Bits(y[i]), pins[i].y) << std::hex << pins[i].x;
  }
}

TEST(ExpfTest, BranchEdgesMatchPort) {
  // Thresholds of the port's filter, as bit patterns, swept ±2 ulps: the
  // |x| >= 88 gate, the overflow bound 0x1.62e42ep6, the 2^-149 bound
  // -0x1.9d1d9ep6 and the underflow-to-0 bound -0x1.9fe368p6; then ±0,
  // the subnormal and normal boundaries, and the infinities.
  const uint32_t edges[] = {
      0x42b00000u,                    // 88
      0xc2b00000u,                    // -88
      Bits(0x1.62e42ep6f),            // overflow
      Bits(-0x1.9d1d9ep6f),           // 2^-149
      Bits(-0x1.9fe368p6f),           // 0
      0x00000002u, 0x80000002u,       // ±0 and the smallest subnormals
      0x00800000u, 0x80800000u,       // smallest normals
      0x7f7ffffeu, 0xff7ffffeu,       // largest finites and ±inf
  };
  std::vector<float> x;
  for (const uint32_t edge : edges) {
    for (int d = -2; d <= 2; ++d) {
      x.push_back(FromBits(edge + static_cast<uint32_t>(d)));
    }
  }
  std::vector<float> y(x.size());
  for (const ExpfKernel& kernel : ExpfKernels()) {
    kernel.row(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(ExpectRowMatchesPort(x, 0.0f, y, kernel.name), 0);
  }
  for (float v : x) ExpectBroadcastRowMatchesPort(v);

  EXPECT_EQ(Bits(Expf(0.0f)), 0x3f800000u);
  EXPECT_EQ(Bits(Expf(-0.0f)), 0x3f800000u);
  EXPECT_EQ(Expf(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(Bits(Expf(-std::numeric_limits<float>::infinity())), 0u);
  EXPECT_EQ(Bits(Expf(FromBits(Bits(-0x1.9d1d9ep6f) + 1))), 1u);  // 2^-149
  EXPECT_EQ(Bits(Expf(FromBits(Bits(-0x1.9fe368p6f) + 1))), 0u);
  EXPECT_TRUE(std::isnan(Expf(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(Expf(FromBits(0x7f800001u))));  // signaling NaN
}

TEST(ExpfTest, SpecialLanesAndShiftMatchPort) {
  // A special value in every position of every width — full vectors and
  // tails alike — next to ordinary lanes, with the softmax-style shift
  // subtracted first, for every twin.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                            FromBits(0x7fc12345u), 100.0f, -95.0f, -1e9f,
                            0.0f};
  for (const ExpfKernel& kernel : ExpfKernels()) {
    for (const float shift : {0.0f, 3.25f, -2.0f}) {
      for (const int64_t width : kWidths) {
        const size_t w = static_cast<size_t>(width);
        for (const float special : specials) {
          int mismatches = 0;
          for (size_t lane = 0; lane < w; ++lane) {
            std::vector<float> x(w);
            for (size_t i = 0; i < w; ++i) {
              x[i] = 0.37f * static_cast<float>(static_cast<int>(i % 9) - 4);
            }
            x[lane] = special;
            std::vector<float> y(w);
            kernel.row(x.data(), shift, y.data(), width);
            mismatches += ExpectRowMatchesPort(x, shift, y, kernel.name);
            // In place, as the softmax kernels call it.
            kernel.row(x.data(), shift, x.data(), width);
            for (size_t i = 0; i < w; ++i) {
              mismatches += Bits(x[i]) != Bits(y[i]);
            }
          }
          ASSERT_EQ(mismatches, 0) << kernel.name << " width " << width;
        }
      }
    }
  }
}

TEST(ExpfTest, StridedSweepMatchesPortAndGlibcDigest) {
  // The digest of glibc 2.36 expf over the 1,049,345 sweep inputs: one
  // number that pins every output, where the table above pins 45.
  constexpr uint64_t kGlibcDigest = 0xa105b3bf6ff31147ull;
  const std::vector<float> x = StridedSweep();
  std::vector<float> port(x.size());
  for (size_t i = 0; i < x.size(); ++i) port[i] = Expf(x[i]);
  EXPECT_EQ(Digest(port), kGlibcDigest);
  std::vector<float> y(x.size());
  for (const ExpfKernel& kernel : ExpfKernels()) {
    kernel.row(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
    EXPECT_EQ(ExpectRowMatchesPort(x, 0.0f, y, kernel.name), 0);
    EXPECT_EQ(Digest(y), kGlibcDigest) << kernel.name;
  }
  ExpfRow(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
  EXPECT_EQ(Digest(y), kGlibcDigest);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
TEST(ExpfTest, SeveralRowFormsMatchPort) {
  // internal::ExpfRows* as the softmax blocks call them, in place, but with
  // any row count, row lengths around every vector and tail width, a
  // different shift per row, and specials planted in each lane of one row.
  struct Rows {
    const char* name;
    void (*rows)(float* const*, const float*, int, int64_t);
  };
  std::vector<Rows> members;
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    members.push_back({"avx2", &internal::ExpfRowsAvx2Fma});
  }
  if (__builtin_cpu_supports("avx512f") != 0) {
    members.push_back({"avx512", &internal::ExpfRowsAvx512});
  }
  if (members.empty()) GTEST_SKIP() << "no SIMD exp on this CPU";
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                            88.0f, -88.5f, 100.0f, -104.0f};
  std::vector<int64_t> lengths;
  for (int64_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (const int64_t n : {255, 256, 257}) lengths.push_back(n);
  constexpr int kMaxRows = 8;
  for (const Rows& member : members) {
    for (int count = 0; count <= kMaxRows; ++count) {
      for (const int64_t n : lengths) {
        const size_t w = static_cast<size_t>(n);
        std::vector<std::vector<float>> x(kMaxRows, std::vector<float>(w));
        float shift[kMaxRows];
        for (int r = 0; r < kMaxRows; ++r) {
          shift[r] = 0.75f * static_cast<float>(r) - 2.0f;
          for (size_t i = 0; i < w; ++i) {
            x[r][i] = 0.37f * static_cast<float>(static_cast<int>(i % 11) - 5) +
                      static_cast<float>(r);
          }
        }
        // The last row of the call holds a special in every lane, cycling
        // through them from a phase that moves with count.
        if (count > 0) {
          for (size_t i = 0; i < w; ++i) {
            x[count - 1][i] =
                specials[(i + static_cast<size_t>(count)) % std::size(specials)];
          }
        }
        std::vector<std::vector<float>> y = x;
        float* rows[kMaxRows];
        for (int r = 0; r < kMaxRows; ++r) rows[r] = y[r].data();
        member.rows(rows, shift, count, n);
        int mismatches = 0;
        for (int r = 0; r < kMaxRows; ++r) {
          if (r < count) {
            mismatches += ExpectRowMatchesPort(x[r], shift[r], y[r],
                                               member.name);
          } else {
            // Rows past `count` are not touched.
            for (size_t i = 0; i < w; ++i) {
              mismatches += Bits(y[r][i]) != Bits(x[r][i]);
            }
          }
        }
        ASSERT_EQ(mismatches, 0)
            << member.name << " count " << count << " n " << n;
      }
    }
  }
}
#endif

// All 2^32 inputs: every twin against the port, and the port against the
// host's expf when that is glibc 2.36's (other versions may pick another
// variant or round differently). About a minute; run with
// --gtest_also_run_disabled_tests.
TEST(ExpfTest, DISABLED_ExhaustiveMatchesPortAndGlibc) {
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36
  const bool check_libm = true;
#else
  const bool check_libm = false;
#endif
  const std::vector<ExpfKernel> kernels = ExpfKernels();
  std::printf("[ twins    ] expf:");
  for (const ExpfKernel& kernel : kernels) std::printf(" %s", kernel.name);
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
      port[static_cast<size_t>(i)] = Bits(Expf(v));
      if (check_libm) {
        libm_mismatches += Bits(std::exp(v)) != port[static_cast<size_t>(i)];
      }
    }
    for (size_t k = 0; k < kernels.size(); ++k) {
      kernels[k].row(x.data(), 0.0f, y.data(), kChunk);
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
