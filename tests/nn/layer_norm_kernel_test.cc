// Bit-for-bit parity of the LayerNorm forward family (nn::LayerNormKernels:
// the scalar reference and, where the CPU has them, the AVX2 and AVX-512
// members that keep four or eight rows' sums side by side) and of the
// dispatched LayerNorm::Forward with an oracle written out here: row
// counts around the 4- and 8-row blocks, widths around the 4×4 and 8×8
// transposes and the 8- and 16-lane masked tails, inputs with a large
// common offset (so the variance pass must use the double mean), and
// inf/NaN planted in every position.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "doduo/nn/layer_norm.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

constexpr float kEpsilon = 1e-5f;
constexpr int64_t kWidths[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257};

// The reference loop: ascending double sums, rstd in double, float
// normalize and affine.
struct Expected {
  std::vector<float> normalized, rstd, out;
};

Expected Oracle(const std::vector<float>& x, const std::vector<float>& gamma,
                const std::vector<float>& beta, int64_t m, int64_t n) {
  Expected e{std::vector<float>(x.size()), std::vector<float>(m),
             std::vector<float>(x.size())};
  for (int64_t i = 0; i < m; ++i) {
    const float* in = x.data() + i * n;
    double mean = 0.0;
    for (int64_t j = 0; j < n; ++j) mean += static_cast<double>(in[j]);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(in[j]) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float rstd = static_cast<float>(
        1.0 / std::sqrt(var + static_cast<double>(kEpsilon)));
    e.rstd[static_cast<size_t>(i)] = rstd;
    for (int64_t j = 0; j < n; ++j) {
      const size_t k = static_cast<size_t>(i * n + j);
      e.normalized[k] = (in[j] - static_cast<float>(mean)) * rstd;
      e.out[k] = gamma[static_cast<size_t>(j)] * e.normalized[k] +
                 beta[static_cast<size_t>(j)];
    }
  }
  return e;
}

// Equal bits, or both NaN (NaN sign and payload are not part of the
// contract).
int CountMismatches(const std::vector<float>& want, const float* got,
                    const std::string& what) {
  int mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const bool same =
        std::bit_cast<uint32_t>(want[i]) == std::bit_cast<uint32_t>(got[i]) ||
        (std::isnan(want[i]) && std::isnan(got[i]));
    if (!same && ++mismatches <= 3) {
      ADD_FAILURE() << what << " element " << i << ": want " << want[i]
                    << " got " << got[i];
    }
  }
  return mismatches;
}

int CheckKernels(const std::vector<float>& x, const std::vector<float>& gamma,
                 const std::vector<float>& beta, int64_t m, int64_t n,
                 const std::string& what) {
  const Expected want = Oracle(x, gamma, beta, m, n);
  int bad = 0;
  for (const LayerNormKernel& kernel : LayerNormKernels()) {
    std::vector<float> normalized(x.size()), rstd(static_cast<size_t>(m)),
        out(x.size());
    kernel.forward(x.data(), gamma.data(), beta.data(), kEpsilon, m, n,
                   normalized.data(), rstd.data(), out.data());
    const std::string name = what + " [" + kernel.name + "]";
    bad += CountMismatches(want.normalized, normalized.data(),
                           name + " normalized");
    bad += CountMismatches(want.rstd, rstd.data(), name + " rstd");
    bad += CountMismatches(want.out, out.data(), name + " out");
  }
  return bad;
}

std::vector<float> Uniform(util::Rng* rng, size_t count, float offset,
                           float limit) {
  std::vector<float> v(count);
  for (float& f : v) f = offset + rng->UniformFloat(-limit, limit);
  return v;
}

TEST(LayerNormParityTest, KernelListNamesTheReferenceFirst) {
  const std::vector<LayerNormKernel> kernels = LayerNormKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string(kernels[0].name), "scalar");
}

TEST(LayerNormParityTest, EveryKernelMatchesOracleAtEveryShape) {
  util::Rng rng(31);
  for (const int64_t n : kWidths) {
    for (const int64_t m : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 76}) {
      const std::vector<float> gamma =
          Uniform(&rng, static_cast<size_t>(n), 1.0f, 0.5f);
      const std::vector<float> beta =
          Uniform(&rng, static_cast<size_t>(n), 0.0f, 0.5f);
      for (const float offset : {0.0f, 300.0f}) {
        const std::vector<float> x =
            Uniform(&rng, static_cast<size_t>(m * n), offset, 2.0f);
        ASSERT_EQ(CheckKernels(x, gamma, beta, m, n,
                               "m " + std::to_string(m) + " n " +
                                   std::to_string(n) + " offset " +
                                   std::to_string(offset)),
                  0);
      }
    }
  }
}

TEST(LayerNormParityTest, NonFiniteInEveryPositionMatchesOracle) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  util::Rng rng(37);
  for (const int64_t n : kWidths) {
    const std::vector<float> gamma =
        Uniform(&rng, static_cast<size_t>(n), 1.0f, 0.5f);
    const std::vector<float> beta =
        Uniform(&rng, static_cast<size_t>(n), 0.0f, 0.5f);
    const int64_t m = 9;
    for (const float special : specials) {
      for (int64_t pos = 0; pos < n; ++pos) {
        std::vector<float> x =
            Uniform(&rng, static_cast<size_t>(m * n), 0.0f, 2.0f);
        x[static_cast<size_t>(3 * n + pos)] = special;
        ASSERT_EQ(CheckKernels(x, gamma, beta, m, n,
                               "n " + std::to_string(n) + " pos " +
                                   std::to_string(pos)),
                  0);
      }
    }
  }
}

TEST(LayerNormParityTest, LayerForwardMatchesOracle) {
  util::Rng rng(41);
  for (const int64_t m : {1, 8, 13, 76}) {
    const int64_t n = 64;
    LayerNorm ln("ln", n);
    const std::vector<float> gamma =
        Uniform(&rng, static_cast<size_t>(n), 1.0f, 0.5f);
    const std::vector<float> beta =
        Uniform(&rng, static_cast<size_t>(n), 0.0f, 0.5f);
    ParameterList params = ln.Parameters();
    std::copy(gamma.begin(), gamma.end(), params[0]->value.data());
    std::copy(beta.begin(), beta.end(), params[1]->value.data());
    const std::vector<float> x =
        Uniform(&rng, static_cast<size_t>(m * n), 0.5f, 3.0f);
    Tensor input({m, n});
    std::copy(x.begin(), x.end(), input.data());
    const Expected want = Oracle(x, gamma, beta, m, n);
    EXPECT_EQ(CountMismatches(want.out, ln.Forward(input).data(),
                              "LayerNorm::Forward m " + std::to_string(m)),
              0);
  }
}

}  // namespace
}  // namespace doduo::nn
