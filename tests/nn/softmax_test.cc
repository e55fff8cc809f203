// The softmax kernels against the scalar oracle, and their non-finite
// contract: a row's output depends only on its values, never on where a
// NaN or infinity sits, so permuting a row's logits permutes its outputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "doduo/nn/ops.h"
#include "doduo/util/rng.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"
#include "nn/softmax_oracle.h"

namespace doduo::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

Tensor Row(const std::vector<float>& values) {
  Tensor t({1, static_cast<int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

int ExpectBitsEqual(const Tensor& want, const Tensor& got, const char* what) {
  EXPECT_EQ(want.shape(), got.shape()) << what;
  int mismatches = 0;
  for (int64_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (Bits(want.data()[i]) != Bits(got.data()[i]) && ++mismatches <= 3) {
      ADD_FAILURE() << what << " element " << i << ": want "
                    << want.data()[i] << " got " << got.data()[i];
    }
  }
  return mismatches;
}

TEST(SoftmaxTest, NanAnywhereGivesAllNanRow) {
  for (size_t pos = 0; pos < 5; ++pos) {
    std::vector<float> logits = {0.5f, -1.0f, 2.0f, kInf, -kInf};
    logits[pos] = kNaN;
    Tensor probs;
    SoftmaxRows(Row(logits), &probs);
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_TRUE(std::isnan(probs.data()[j])) << "NaN at " << pos;
    }
  }
}

TEST(SoftmaxTest, PositiveInfinitiesShareTheMass) {
  Tensor probs;
  SoftmaxRows(Row({1.0f, kInf, -kInf, 3.0f, kInf}), &probs);
  const float want[] = {0.0f, 0.5f, 0.0f, 0.0f, 0.5f};
  for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(probs.data()[j], want[j]) << j;
  SoftmaxRows(Row({kInf, 2.0f, 0.0f}), &probs);
  EXPECT_EQ(probs.data()[0], 1.0f);
  EXPECT_EQ(Bits(probs.data()[1]), 0u);
  EXPECT_EQ(Bits(probs.data()[2]), 0u);
}

TEST(SoftmaxTest, AllNegativeInfinityRowIsUniform) {
  Tensor probs;
  SoftmaxRows(Row({-kInf, -kInf, -kInf, -kInf}), &probs);
  for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(probs.data()[j], 0.25f);
  // Some -inf next to a finite logit is an ordinary row: exp(-inf) = 0.
  SoftmaxRows(Row({-kInf, 0.0f, -kInf}), &probs);
  EXPECT_EQ(probs.data()[1], 1.0f);
  EXPECT_EQ(Bits(probs.data()[0]), 0u);
}

// Random logits, with NaN, +inf and -inf planted at random in some rows.
Tensor RandomLogits(util::Rng* rng, int64_t m, int64_t n) {
  Tensor logits({m, n});
  logits.FillUniform(rng, 8.0f);
  for (int64_t i = 0; i < m; ++i) {
    const int kind = static_cast<int>(rng->UniformInt(0, 5));
    const int planted = static_cast<int>(rng->UniformInt(1, 3));
    for (int p = 0; p < planted && kind < 4; ++p) {
      const float specials[] = {kNaN, kInf, -kInf, -1e9f};
      logits.at(i, rng->UniformInt(0, n - 1)) = specials[kind];
    }
    if (kind == 4 && i % 2 == 0) {  // a fully masked row
      for (int64_t j = 0; j < n; ++j) logits.at(i, j) = -kInf;
    }
  }
  return logits;
}

class SoftmaxThreadsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::SetComputeThreads(GetParam()); }
  ~SoftmaxThreadsTest() override { util::SetComputeThreads(1); }
};

TEST_P(SoftmaxThreadsTest, PermutingLogitsPermutesProbabilities) {
  // Rows with a non-finite logit must permute exactly. Finite rows may
  // differ in the last place: the double normalizer sums in a different
  // order.
  util::Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t m = rng.UniformInt(1, 9);
    const int64_t n = rng.UniformInt(1, 40);
    const Tensor logits = RandomLogits(&rng, m, n);
    std::vector<int64_t> perm(static_cast<size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    for (int64_t j = n - 1; j > 0; --j) {
      std::swap(perm[static_cast<size_t>(j)],
                perm[static_cast<size_t>(rng.UniformInt(0, j))]);
    }
    Tensor permuted({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        permuted.at(i, j) = logits.at(i, perm[static_cast<size_t>(j)]);
      }
    }
    Tensor probs, permuted_probs;
    SoftmaxRows(logits, &probs);
    SoftmaxRows(permuted, &permuted_probs);
    for (int64_t i = 0; i < m; ++i) {
      bool finite = true;
      for (int64_t j = 0; j < n; ++j) finite &= std::isfinite(logits.at(i, j));
      for (int64_t j = 0; j < n; ++j) {
        const float want = probs.at(i, perm[static_cast<size_t>(j)]);
        const float got = permuted_probs.at(i, j);
        if (finite) {
          EXPECT_NEAR(got, want, 2e-7f * std::max(1.0f, want))
              << "trial " << trial << " row " << i;
        } else {
          EXPECT_EQ(Bits(got), Bits(want)) << "trial " << trial << " row "
                                           << i << " col " << j;
        }
      }
    }
  }
}

TEST_P(SoftmaxThreadsTest, KernelsMatchScalarOracleBitForBit) {
  // ScaleMaskSoftmaxRows (scale and mask fused) and SoftmaxRows against
  // the scalar oracle on materialized logits, at row widths around the
  // 8-lane and 4-row blocks, with non-finite rows planted.
  util::Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t m = rng.UniformInt(1, 13);
    const int64_t n = rng.UniformInt(1, 70);
    const float scale = trial % 3 == 0 ? 1.0f : rng.UniformFloat(0.05f, 2.0f);
    const Tensor logits = RandomLogits(&rng, m, n);
    Tensor mask({m, n});
    // -1e9 and 0 entries, plus moderate ones: only those expose a
    // scale·t + mask contracted into one FMA rounding.
    for (int64_t i = 0; i < mask.size(); ++i) {
      const int kind = static_cast<int>(rng.UniformInt(0, 2));
      mask.data()[i] = kind == 0   ? -1e9f
                       : kind == 1 ? 0.0f
                                   : rng.UniformFloat(-3.0f, 3.0f);
    }
    if (trial % 5 == 0) mask.at(0, 0) = -kInf;
    const bool with_mask = trial % 2 == 0;

    Tensor t = logits;
    Scale(&t, scale);
    if (with_mask) AddInPlace(&t, mask);
    Tensor want;
    OracleSoftmaxRows(t, &want);

    Tensor got;
    ScaleMaskSoftmaxRows(logits, scale, with_mask ? &mask : nullptr, &got);
    EXPECT_EQ(ExpectBitsEqual(want, got, "ScaleMaskSoftmaxRows"), 0);
    Tensor in_place = logits;
    ScaleMaskSoftmaxRows(in_place, scale, with_mask ? &mask : nullptr,
                         &in_place);
    EXPECT_EQ(ExpectBitsEqual(want, in_place, "ScaleMaskSoftmaxRows aliased"),
              0);
    Tensor plain;
    SoftmaxRows(t, &plain);
    EXPECT_EQ(ExpectBitsEqual(want, plain, "SoftmaxRows"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SoftmaxThreadsTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

}  // namespace
}  // namespace doduo::nn
