// Bit-for-bit parity of the fp32 GEMM family (nn::Fp32GemmKernels and the
// dispatched nn::MatMul) with a test-local scalar oracle: every shape of a
// grid around the AVX-512 tile's 12-row and 16/32-column edges, A with ±0,
// subnormals and inf/NaN, B with inf/NaN planted where A is 0 (the tile's
// fallback), 1/2/8 threads, and an output that held NaN before the call.
// A pinned digest of MatMul outputs ties the family to the axpy kernels the
// tile replaced.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "doduo/nn/ops.h"
#include "doduo/util/rng.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

// Open the parallel-dispatch gate for every shape, so the multi-thread
// cases shard even the small ones (see ops_parallel_test.cc).
const bool g_force_parallel = [] {
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  return true;
}();

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kSubnormal = 1.5e-39f;

constexpr int64_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                             12, 13, 24, 25, 76, 77, 190};
constexpr int64_t kDepths[] = {1, 3, 8, 16, 64, 77, 256};
constexpr int64_t kCols[] = {1, 8, 15, 16, 17, 24, 31, 32, 33, 64, 192, 256};

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// The reference order: per element c = +0, then c += a[i,l]·b[l,j] for l
// ascending, skipping a = ±0.
Tensor OracleMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) {
        const float av = a.at(i, l);
        if (av == 0.0f) continue;
        acc += av * b.at(l, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

// Uniform values with about a quarter ±0, one in twenty subnormal and, when
// `non_finite`, one in fifty inf, -inf or NaN.
void FillSpecials(Tensor* t, util::Rng* rng, bool non_finite) {
  float* p = t->data();
  for (int64_t i = 0; i < t->size(); ++i) {
    const int64_t draw = rng->UniformInt(0, 99);
    if (draw < 12) {
      p[i] = 0.0f;
    } else if (draw < 25) {
      p[i] = -0.0f;
    } else if (draw < 30) {
      p[i] = draw % 2 == 0 ? kSubnormal : -kSubnormal;
    } else if (non_finite && draw < 32) {
      p[i] = draw == 30 ? kInf : (rng->Bernoulli(0.5) ? -kInf : kNaN);
    } else {
      p[i] = rng->UniformFloat(-2.0f, 2.0f);
    }
  }
}

// Equal bit patterns, except that any NaN matches any NaN: x86 returns the
// first operand's NaN and compilers commute float adds, so NaN sign and
// payload differ even between the scalar axpy and this oracle.
bool SameBits(float want, float got) {
  if (std::isnan(want)) return std::isnan(got);
  return Bits(want) == Bits(got);
}

int CountMismatches(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  EXPECT_EQ(want.shape(), got.shape()) << what;
  if (want.shape() != got.shape()) return 1;
  int mismatches = 0;
  for (int64_t i = 0; i < want.size(); ++i) {
    if (!SameBits(want.data()[i], got.data()[i]) && ++mismatches <= 3) {
      ADD_FAILURE() << what << " element " << i << ": want "
                    << want.data()[i] << " (0x" << std::hex
                    << Bits(want.data()[i]) << ") got " << got.data()[i]
                    << " (0x" << Bits(got.data()[i]) << std::dec << ")";
    }
  }
  return mismatches;
}

std::string ShapeName(int64_t m, int64_t k, int64_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" +
         std::to_string(n);
}

// Runs every kernel and the dispatched MatMul on (a, b) into an output
// that first holds NaN, and counts elements that differ from the oracle.
int CheckAllKernels(const Tensor& a, const Tensor& b,
                    const std::string& what) {
  const Tensor want = OracleMatMul(a, b);
  int bad = 0;
  Tensor out({a.rows(), b.cols()});
  for (const Fp32GemmKernel& kernel : Fp32GemmKernels()) {
    out.Fill(kNaN);
    kernel.matmul(a, b, &out);
    bad += CountMismatches(want, out, what + " " + kernel.name);
  }
  out.Fill(kNaN);
  MatMul(a, b, &out);
  bad += CountMismatches(want, out, what + " MatMul");
  return bad;
}

class GemmKernelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::SetComputeThreads(GetParam()); }
  ~GemmKernelTest() override { util::SetComputeThreads(1); }
};

TEST(GemmKernelListTest, NamesTheReferenceFirstAndTheTileWhereAvailable) {
  const std::vector<Fp32GemmKernel> kernels = Fp32GemmKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels[0].name, "scalar");
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool has_tile = __builtin_cpu_supports("avx512f") != 0;
  EXPECT_EQ(std::string(kernels.back().name) == "avx512", has_tile);
#endif
}

TEST_P(GemmKernelTest, EveryShapeMatchesOracleWithSignedZerosAndSubnormals) {
  util::Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  int bad = 0;
  for (const int64_t m : kRows) {
    for (const int64_t k : kDepths) {
      for (const int64_t n : kCols) {
        Tensor a({m, k});
        Tensor b({k, n});
        FillSpecials(&a, &rng, /*non_finite=*/false);
        FillSpecials(&b, &rng, /*non_finite=*/false);
        bad += CheckAllKernels(a, b, ShapeName(m, k, n));
        ASSERT_EQ(bad, 0) << ShapeName(m, k, n);
      }
    }
  }
}

TEST_P(GemmKernelTest, NonFiniteAMatchesOracle) {
  // inf/NaN in A reach the products in every kernel alike (0·inf only
  // arises from a zero in B, which no kernel skips).
  util::Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  int bad = 0;
  for (const int64_t m : kRows) {
    for (const int64_t k : {int64_t{1}, int64_t{16}, int64_t{77}}) {
      for (const int64_t n : {int64_t{1}, int64_t{17}, int64_t{33},
                              int64_t{64}}) {
        Tensor a({m, k});
        Tensor b({k, n});
        FillSpecials(&a, &rng, /*non_finite=*/true);
        FillSpecials(&b, &rng, /*non_finite=*/false);
        bad += CheckAllKernels(a, b, ShapeName(m, k, n) + " inf/NaN a");
        ASSERT_EQ(bad, 0) << ShapeName(m, k, n);
      }
    }
  }
}

TEST_P(GemmKernelTest, NonFiniteBTakesTheFallbackAndMatchesOracle) {
  // The reference skips a = 0, so 0·inf never reaches an output; the tile
  // would add it, which is why MatMul checks B and falls back.
  util::Rng rng(4000 + static_cast<uint64_t>(GetParam()));
  int bad = 0;
  for (const int64_t m : kRows) {
    for (const int64_t k : {int64_t{1}, int64_t{16}, int64_t{77}}) {
      for (const int64_t n : {int64_t{1}, int64_t{17}, int64_t{33},
                              int64_t{64}}) {
        Tensor a({m, k});
        Tensor b({k, n});
        FillSpecials(&a, &rng, /*non_finite=*/true);
        FillSpecials(&b, &rng, /*non_finite=*/true);
        // One guaranteed inf and NaN in B, each in a k-row A has zeroed.
        const int64_t l = rng.UniformInt(0, k - 1);
        b.at(l, rng.UniformInt(0, n - 1)) = kInf;
        b.at(l, rng.UniformInt(0, n - 1)) = kNaN;
        for (int64_t i = 0; i < m; ++i) a.at(i, l) = i % 2 == 0 ? 0.0f : -0.0f;
        bad += CheckAllKernels(a, b, ShapeName(m, k, n) + " inf/NaN b");
        ASSERT_EQ(bad, 0) << ShapeName(m, k, n);
      }
    }
  }
}

TEST_P(GemmKernelTest, OutputIsOverwrittenNotAccumulated) {
  // The same output tensor, reused across calls of different shapes after
  // holding NaN: every element must be the new product.
  util::Rng rng(5000 + static_cast<uint64_t>(GetParam()));
  for (const Fp32GemmKernel& kernel : Fp32GemmKernels()) {
    Tensor out({190, 256});
    out.Fill(kNaN);
    for (const int64_t m : {int64_t{77}, int64_t{13}, int64_t{190}}) {
      Tensor a({m, 64});
      Tensor b({64, 33});
      FillSpecials(&a, &rng, /*non_finite=*/false);
      FillSpecials(&b, &rng, /*non_finite=*/false);
      kernel.matmul(a, b, &out);
      EXPECT_EQ(CountMismatches(OracleMatMul(a, b), out,
                                std::string(kernel.name) + " reused " +
                                    ShapeName(m, 64, 33)),
                0);
      out.Fill(kNaN);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmKernelTest, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

// FNV-1a over the little-endian bytes of every element's bit pattern.
void MixDigest(uint64_t* h, const Tensor& t) {
  for (int64_t i = 0; i < t.size(); ++i) {
    const uint32_t b = Bits(t.data()[i]);
    for (int k = 0; k < 4; ++k) {
      *h ^= (b >> (8 * k)) & 0xffu;
      *h *= 1099511628211ull;
    }
  }
}

TEST(GemmDigestTest, MatMulOutputsMatchPinnedDigest) {
  // Dispatched MatMul over the grid, A and B with ±0 and subnormals, plus
  // a B with inf in a row A zeroes: the digest of every output. Recorded
  // on the AVX axpy this tile replaced, so it holds with DODUO_SIMD=1 and
  // 0 (ctest nn_kernels_scalar runs both) at any thread count.
  constexpr uint64_t kPinnedDigest = 0x7400729653ec4ceaull;
  util::Rng rng(6000);
  uint64_t h = 1469598103934665603ull;
  Tensor out;
  for (const int64_t m : kRows) {
    for (const int64_t k : kDepths) {
      for (const int64_t n : kCols) {
        Tensor a({m, k});
        Tensor b({k, n});
        FillSpecials(&a, &rng, /*non_finite=*/false);
        FillSpecials(&b, &rng, /*non_finite=*/false);
        MatMul(a, b, &out);
        MixDigest(&h, out);
        b.at(k - 1, n - 1) = kInf;
        for (int64_t i = 0; i < m; ++i) a.at(i, k - 1) = 0.0f;
        MatMul(a, b, &out);
        MixDigest(&h, out);
      }
    }
  }
  EXPECT_EQ(h, kPinnedDigest) << std::hex << "got 0x" << h;
}

}  // namespace
}  // namespace doduo::nn
