// Parity harness for the fused attention kernels: ScaleMaskSoftmaxRows must
// be bitwise-identical to the unfused Scale → AddInPlace → SoftmaxRows
// sequence over randomized shapes and masks at 1, 2, and 8 threads, and the
// strided view GEMMs must reproduce the copy-out-then-contiguous-kernel
// results bit for bit (the fused attention path depends on both).

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "doduo/nn/ops.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

// Open the parallel-dispatch gate for every shape (see ops_parallel_test.cc).
const bool g_force_parallel = [] {
  setenv("DODUO_PARALLEL_THRESHOLD", "1", 1);
  return true;
}();

void ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                        const char* what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  ASSERT_EQ(0,
            std::memcmp(expected.data(), actual.data(),
                        static_cast<size_t>(expected.size()) * sizeof(float)))
      << what;
}

// Copies the columns [col_begin, col_begin + ncols) into a fresh tensor —
// the pre-fusion reference for head extraction.
Tensor CopyColumns(const Tensor& src, int64_t col_begin, int64_t ncols) {
  Tensor dst({src.rows(), ncols});
  for (int64_t i = 0; i < src.rows(); ++i) {
    const float* in = src.row(i) + col_begin;
    for (int64_t j = 0; j < ncols; ++j) dst.at(i, j) = in[j];
  }
  return dst;
}

// out = aᵀ · b through the accumulating entry point, from zero.
Tensor TransposedAProduct(const Tensor& a, const Tensor& b) {
  Tensor out({a.cols(), b.cols()});
  MatMulTransposedAAccum(a, b, &out);
  return out;
}

class OpsFusedTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::SetComputeThreads(GetParam()); }
  ~OpsFusedTest() override { util::SetComputeThreads(1); }
};

TEST_P(OpsFusedTest, ScaleMaskSoftmaxMatchesUnfusedBitForBit) {
  util::Rng rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t m = static_cast<int64_t>(1 + rng.NextUint64(33));
    const int64_t n = static_cast<int64_t>(1 + rng.NextUint64(33));
    const float scale =
        trial % 3 == 0 ? 1.0f : rng.UniformFloat(0.05f, 2.0f);
    Tensor logits({m, n});
    logits.FillNormal(&rng, 3.0f);

    const bool with_mask = trial % 2 == 0;
    Tensor mask;
    if (with_mask) {
      mask = Tensor({m, n});
      for (int64_t i = 0; i < m * n; ++i) {
        mask.data()[i] = rng.Bernoulli(0.3) ? -1e9f : 0.0f;
      }
      // Keep one position open per row so no row is fully masked here (the
      // fully-masked contract is covered separately below).
      for (int64_t i = 0; i < m; ++i) {
        mask.at(i, static_cast<int64_t>(rng.NextUint64(
                       static_cast<uint64_t>(n)))) = 0.0f;
      }
    }

    // Unfused reference: materialize t = logits·scale + mask, then softmax.
    Tensor t = logits;
    Scale(&t, scale);
    if (with_mask) AddInPlace(&t, mask);
    Tensor expected;
    SoftmaxRows(t, &expected);

    Tensor actual;
    ScaleMaskSoftmaxRows(logits, scale, with_mask ? &mask : nullptr, &actual);
    ExpectBitIdentical(expected, actual, "ScaleMaskSoftmaxRows");

    // Alias form: probs may be the logits tensor itself.
    Tensor in_place = logits;
    ScaleMaskSoftmaxRows(in_place, scale, with_mask ? &mask : nullptr,
                         &in_place);
    ExpectBitIdentical(expected, in_place, "ScaleMaskSoftmaxRows aliased");
    if (HasFatalFailure()) return;
  }
}

TEST_P(OpsFusedTest, FullyMaskedRowIsUniformNotNaN) {
  Tensor logits({3, 4});
  util::Rng rng(7);
  logits.FillNormal(&rng, 1.0f);
  Tensor mask({3, 4});
  for (int64_t j = 0; j < 4; ++j) mask.at(1, j) = -1e9f;  // row 1 open nowhere

  // -1e9 additive masks do not underflow a max-subtracted softmax on their
  // own; the guard targets rows whose logits reach -inf (e.g. a mask applied
  // twice, or padded rows filled with -inf).
  for (int64_t j = 0; j < 4; ++j) {
    logits.at(1, j) = -std::numeric_limits<float>::infinity();
  }
  Tensor probs;
  ScaleMaskSoftmaxRows(logits, 0.5f, &mask, &probs);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(probs.at(1, j), 0.25f);  // uniform, not NaN
    EXPECT_FALSE(std::isnan(probs.at(0, j)));
    EXPECT_FALSE(std::isnan(probs.at(2, j)));
  }

  // The unfused entry point shares the guard.
  Tensor probs2;
  SoftmaxRows(logits, &probs2);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(probs2.at(1, j), 0.25f);
  }
}

TEST_P(OpsFusedTest, ViewKernelsMatchCopyBasedReferenceBitForBit) {
  util::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    // A packed [s, 3d]-style buffer with band width hd.
    const int64_t s = static_cast<int64_t>(1 + rng.NextUint64(48));
    const int64_t hd = static_cast<int64_t>(1 + rng.NextUint64(24));
    const int64_t bands = 3;
    Tensor packed({s, bands * hd});
    packed.FillNormal(&rng, 1.0f);
    packed.data()[0] = 0.0f;  // exercise the zero-skip branch
    Tensor probs({s, s});
    probs.FillNormal(&rng, 1.0f);

    const int64_t band = static_cast<int64_t>(rng.NextUint64(bands));
    const int64_t off = band * hd;
    const Tensor a = CopyColumns(packed, off, hd);          // [s, hd]
    const Tensor b = CopyColumns(packed, (band == 0 ? 1 : 0) * hd, hd);
    const int64_t b_off = (band == 0 ? 1 : 0) * hd;

    // scores = A · Bᵀ from views vs from copies.
    Tensor scores_ref;
    MatMulTransposedB(a, b, &scores_ref);
    Tensor scores_view;
    MatMulTransposedBView(ColumnsView(packed, off, hd),
                          ColumnsView(packed, b_off, hd), &scores_view);
    ExpectBitIdentical(scores_ref, scores_view, "MatMulTransposedBView");

    // ctx = P · B written into a column band vs contiguous.
    Tensor ctx_ref;
    MatMul(probs, b, &ctx_ref);
    Tensor ctx_out({s, bands * hd});
    ctx_out.FillNormal(&rng, 1.0f);  // stale values must be overwritten
    MatMulView(FullView(probs), ColumnsView(packed, b_off, hd),
               MutColumnsView(&ctx_out, off, hd));
    ExpectBitIdentical(ctx_ref, CopyColumns(ctx_out, off, hd), "MatMulView");

    // grad = Pᵀ · A into a column band vs contiguous.
    const Tensor grad_ref = TransposedAProduct(probs, a);
    Tensor grad_out({s, bands * hd});
    grad_out.FillNormal(&rng, 1.0f);
    MatMulTransposedAView(FullView(probs), ColumnsView(packed, off, hd),
                          MutColumnsView(&grad_out, off, hd));
    ExpectBitIdentical(grad_ref, CopyColumns(grad_out, off, hd),
                       "MatMulTransposedAView");
    if (HasFatalFailure()) return;
  }
}

// Pins the kernels' FP contract to the documented scalar operation order
// (DESIGN.md §9), independent of which dispatch path (scalar, SSE, AVX)
// actually runs: a plain triple loop with kBlockK panels, ascending-k
// accumulation, zero-skip, and the 4-accumulator dot must reproduce the
// kernel output bit for bit. Shapes include non-multiples of the vector
// widths and inputs salted with exact zeros to hit the skip branches.
TEST_P(OpsFusedTest, KernelsMatchScalarOpOrderBitForBit) {
  constexpr int64_t kBlockK = 64;  // must match ops.cc
  util::Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const int64_t m = static_cast<int64_t>(1 + rng.NextUint64(40));
    const int64_t k = static_cast<int64_t>(1 + rng.NextUint64(90));
    const int64_t n = static_cast<int64_t>(1 + rng.NextUint64(40));
    Tensor a({m, k}), b({k, n}), bt({n, k});
    a.FillNormal(&rng, 1.0f);
    b.FillNormal(&rng, 1.0f);
    bt.FillNormal(&rng, 1.0f);
    for (int64_t i = 0; i < a.size(); i += 3) a.data()[i] = 0.0f;

    // MatMul: kBlockK panels, ascending-k per element, zero-skip.
    Tensor mm_ref({m, n});
    mm_ref.Zero();
    for (int64_t kb = 0; kb < k; kb += kBlockK) {
      const int64_t k_end = std::min<int64_t>(k, kb + kBlockK);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t l = kb; l < k_end; ++l) {
          const float av = a.at(i, l);
          if (av == 0.0f) continue;
          for (int64_t j = 0; j < n; ++j) {
            mm_ref.at(i, j) += av * b.at(l, j);
          }
        }
      }
    }
    Tensor mm;
    MatMul(a, b, &mm);
    ExpectBitIdentical(mm_ref, mm, "MatMul vs scalar op order");

    // MatMulTransposedB: the 4-accumulator dot with left-assoc reduction.
    Tensor mtb_ref({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        int64_t l = 0;
        for (; l + 4 <= k; l += 4) {
          acc0 += a.at(i, l) * bt.at(j, l);
          acc1 += a.at(i, l + 1) * bt.at(j, l + 1);
          acc2 += a.at(i, l + 2) * bt.at(j, l + 2);
          acc3 += a.at(i, l + 3) * bt.at(j, l + 3);
        }
        for (; l < k; ++l) acc0 += a.at(i, l) * bt.at(j, l);
        mtb_ref.at(i, j) = acc0 + acc1 + acc2 + acc3;
      }
    }
    Tensor mtb;
    MatMulTransposedB(a, bt, &mtb);
    ExpectBitIdentical(mtb_ref, mtb, "MatMulTransposedB vs scalar op order");

    // MatMulTransposedAAccum: same panel structure over aᵀ.
    Tensor b2({m, n});
    b2.FillNormal(&rng, 1.0f);
    Tensor mta_ref2({k, n});
    mta_ref2.Zero();
    for (int64_t kb = 0; kb < m; kb += kBlockK) {
      const int64_t k_end = std::min<int64_t>(m, kb + kBlockK);
      for (int64_t i = 0; i < k; ++i) {
        for (int64_t l = kb; l < k_end; ++l) {
          const float av = a.at(l, i);
          if (av == 0.0f) continue;
          for (int64_t j = 0; j < n; ++j) {
            mta_ref2.at(i, j) += av * b2.at(l, j);
          }
        }
      }
    }
    const Tensor mta = TransposedAProduct(a, b2);
    ExpectBitIdentical(mta_ref2, mta,
                       "MatMulTransposedAAccum vs scalar op order");
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OpsFusedTest, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param) +
                                  "threads";
                         });

}  // namespace
}  // namespace doduo::nn
