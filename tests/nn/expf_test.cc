// nn::Expf (the glibc 2.36 __expf_fma port) and its AVX2+FMA row twin
// ExpfRow: the twin must equal the port bit for bit, and the port must
// equal glibc's expf, pinned here as bit patterns so the check does not
// depend on the host's libm.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
                         const std::vector<float>& y) {
  int mismatches = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t want = Bits(Expf(x[i] - shift));
    if (Bits(y[i]) != want && ++mismatches <= 5) {
      ADD_FAILURE() << std::hex << "x=0x" << Bits(x[i]) << " shift=0x"
                    << Bits(shift) << " ExpfRow=0x" << Bits(y[i])
                    << " Expf=0x" << want;
    }
  }
  return mismatches;
}

// ExpfRow on a row of 8 copies of v, so every lane of the vector kernel
// (not only the scalar tail) sees v.
void ExpectBroadcastRowMatchesPort(float v) {
  std::vector<float> x(8, v);
  std::vector<float> y(8);
  ExpfRow(x.data(), 0.0f, y.data(), 8);
  ExpectRowMatchesPort(x, 0.0f, y);
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
  ExpfRow(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(Bits(y[i]), pins[i].y) << std::hex << pins[i].x;
  }
  for (const Pin& pin : pins) {
    std::vector<float> row(8, FromBits(pin.x));
    ExpfRow(row.data(), 0.0f, row.data(), 8);
    EXPECT_EQ(Bits(row[0]), pin.y) << std::hex << pin.x;
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
  ExpfRow(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
  EXPECT_EQ(ExpectRowMatchesPort(x, 0.0f, y), 0);
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
  // A special value in each lane of a full vector and in the scalar tail,
  // next to ordinary lanes, with the softmax-style shift subtracted first.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(),
                            FromBits(0x7fc12345u), 100.0f, -95.0f, -1e9f,
                            0.0f};
  for (const float shift : {0.0f, 3.25f, -2.0f}) {
    for (const float special : specials) {
      for (int lane = 0; lane < 9; ++lane) {
        std::vector<float> x(9);
        for (int i = 0; i < 9; ++i) {
          x[static_cast<size_t>(i)] = 0.37f * static_cast<float>(i - 4);
        }
        x[static_cast<size_t>(lane)] = special;
        std::vector<float> y(9);
        ExpfRow(x.data(), shift, y.data(), 9);
        EXPECT_EQ(ExpectRowMatchesPort(x, shift, y), 0);
        // In place, as the softmax kernels call it.
        ExpfRow(x.data(), shift, x.data(), 9);
        for (size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(Bits(x[i]), Bits(y[i])) << i;
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
  ExpfRow(x.data(), 0.0f, y.data(), static_cast<int64_t>(x.size()));
  EXPECT_EQ(ExpectRowMatchesPort(x, 0.0f, y), 0);
  EXPECT_EQ(Digest(y), kGlibcDigest);
}

// All 2^32 inputs: ExpfRow against the port, and the port against the
// host's expf when that is glibc 2.36's (other versions may pick another
// variant or round differently). About a minute; run with
// --gtest_also_run_disabled_tests.
TEST(ExpfTest, DISABLED_ExhaustiveMatchesPortAndGlibc) {
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36
  const bool check_libm = true;
#else
  const bool check_libm = false;
#endif
  constexpr int kChunk = 1 << 16;
  std::vector<float> x(kChunk);
  std::vector<float> y(kChunk);
  uint64_t row_mismatches = 0;
  uint64_t libm_mismatches = 0;
  for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kChunk) {
    for (int i = 0; i < kChunk; ++i) {
      x[static_cast<size_t>(i)] = FromBits(static_cast<uint32_t>(base + i));
    }
    ExpfRow(x.data(), 0.0f, y.data(), kChunk);
    for (int i = 0; i < kChunk; ++i) {
      const float v = x[static_cast<size_t>(i)];
      const uint32_t port = Bits(Expf(v));
      row_mismatches += Bits(y[static_cast<size_t>(i)]) != port;
      if (check_libm) libm_mismatches += Bits(std::exp(v)) != port;
    }
  }
  EXPECT_EQ(row_mismatches, 0u);
  EXPECT_EQ(libm_mismatches, 0u);
}

}  // namespace
}  // namespace doduo::nn
