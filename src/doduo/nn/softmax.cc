// Row softmax and the per-head attention kernel built on it. Both have a
// scalar reference and AVX2 and AVX-512 members, one body built per width
// (nn/softmax_simd.inc), that are bit-identical to it; exp is nn::Expf (or
// its rows of the same width), so no result here depends on the host's
// libm (DESIGN.md §9).

#include <algorithm>
#include <cmath>
#include <limits>

#include "doduo/nn/dispatch.h"
#include "doduo/nn/expf.h"
#include "doduo/nn/ops.h"
#include "doduo/nn/simd.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

namespace {

// One softmax row, the scalar reference: t_j = in_j * scale + mask_j, then
// max-subtract, exp, normalize, with t recomputed per pass instead of
// stored. The float ops match an unfused Scale → AddInPlace → softmax
// sequence exactly, and the normalizer is an ascending-j double sum.
// Non-finite rows depend only on their values, never on positions:
//  * any NaN logit gives an all-NaN row;
//  * otherwise, +inf logits share the mass evenly and every other
//    position gets 0;
//  * a row of all -inf logits (fully masked) is uniform.
// `out` may alias `in`.
void ScaleMaskSoftmaxRow(const float* in, const float* mask_row, float scale,
                         int64_t n, float* out) {
  const auto logit = [&](int64_t j) {
    float t = in[j] * scale;
    if (mask_row != nullptr) t += mask_row[j];
    return t;
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float max_logit = -kInf;
  bool has_nan = false;
  for (int64_t j = 0; j < n; ++j) {
    const float t = logit(j);
    has_nan |= std::isnan(t);
    max_logit = std::max(max_logit, t);
  }
  if (has_nan) {
    std::fill(out, out + n, std::numeric_limits<float>::quiet_NaN());
    return;
  }
  if (max_logit == kInf) {
    int64_t num_inf = 0;
    for (int64_t j = 0; j < n; ++j) num_inf += logit(j) == kInf;
    const float share = 1.0f / static_cast<float>(num_inf);
    for (int64_t j = 0; j < n; ++j) out[j] = logit(j) == kInf ? share : 0.0f;
    return;
  }
  if (max_logit == -kInf) {
    std::fill(out, out + n, 1.0f / static_cast<float>(n));
    return;
  }
  double total = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    out[j] = Expf(logit(j) - max_logit);
    total += static_cast<double>(out[j]);
  }
  const float inv = static_cast<float>(1.0 / total);
  for (int64_t j = 0; j < n; ++j) out[j] *= inv;
}

#if defined(DODUO_X86_SIMD)

// Up to R rows of one block. Missing rows of a short block repeat row 0,
// so every kernel can run all R lanes: a repeated row computes and stores
// the same bits as row 0 itself.
template <int R>
struct RowBlock {
  const float* in[R];
  const float* mask[R];  // nullptr entries when there is no mask
  float* out[R];
  int count;
};

template <int R>
RowBlock<R> MakeRowBlock(const float* in, const float* mask, float* out,
                         int64_t stride, int64_t row, int count) {
  RowBlock<R> block{};
  block.count = count;
  for (int r = 0; r < R; ++r) {
    const int64_t i = row + (r < count ? r : 0);
    block.in[r] = in + i * stride;
    block.mask[r] = mask != nullptr ? mask + i * stride : nullptr;
    block.out[r] = out + i * stride;
  }
  return block;
}

// One row's logit statistics: max_j t_j, and whether every t_j is finite.
struct RowStats {
  float max_logit;
  bool finite;
};

#endif  // DODUO_X86_SIMD

}  // namespace

// --- SIMD members -------------------------------------------------------------
//
// The kernels of the softmax/attention members are one body over the SIMD
// trait (nn/softmax_simd.inc), built per width: simd::avx2::Kernels (blocks
// of four rows, eight lanes) and simd::avx512::Kernels (eight rows, sixteen
// lanes). Each calls the exp rows of its own width, so a member runs one
// ISA end to end.

#if defined(DODUO_X86_SIMD)
DODUO_SIMD_BEGIN("avx2")
namespace simd::avx2 {
namespace {
constexpr auto& ExpRows = internal::ExpfRowsAvx2Fma;
#include "doduo/nn/softmax_simd.inc"
}  // namespace
}  // namespace simd::avx2
DODUO_SIMD_END

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {
namespace {
constexpr auto& ExpRows = internal::ExpfRowsAvx512;
#include "doduo/nn/softmax_simd.inc"
}  // namespace
}  // namespace simd::avx512
DODUO_SIMD_END
#endif  // DODUO_X86_SIMD

namespace {

// --- The family -------------------------------------------------------------
//
// Each member runs one ISA end to end: the scalar reference, or the
// drivers below over one width's Kernels (the parameter W).

// The signature of a member's softmax over rows [row_begin, row_end).
using RowRange = void (*)(const float* pin, const float* pmask, float* pout,
                          int64_t n, float scale, int64_t row_begin,
                          int64_t row_end);

void SoftmaxRowRangeScalar(const float* pin, const float* pmask, float* pout,
                           int64_t n, float scale, int64_t row_begin,
                           int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    ScaleMaskSoftmaxRow(pin + i * n, pmask != nullptr ? pmask + i * n : nullptr,
                        scale, n, pout + i * n);
  }
}

template <RowRange kRowRange>
void ScaleMaskSoftmaxWith(const Tensor& logits, float scale,
                          const Tensor* mask, Tensor* probs) {
  DODUO_CHECK_EQ(logits.ndim(), 2) << "logits must be 2-D, got "
                                   << logits.ShapeString();
  if (mask != nullptr) {
    DODUO_CHECK(SameShape(logits, *mask))
        << "mask must match logits: " << logits.ShapeString() << " vs "
        << mask->ShapeString();
  }
  const int64_t m = logits.rows();
  const int64_t n = logits.cols();
  if (probs != &logits) probs->ResizeUninitialized(logits.shape());
  const float* pin = logits.data();
  const float* pmask = mask != nullptr ? mask->data() : nullptr;
  float* pout = probs->data();
  auto rows = [&](int64_t row_begin, int64_t row_end) {
    kRowRange(pin, pmask, pout, n, scale, row_begin, row_end);
  };
  // Rows are independent and each row's FP order is fixed, so sharding
  // preserves the bit-determinism contract.
  if (ShouldParallelize(m, 1, n)) {
    util::ComputePool()->ParallelFor(0, m, /*grain=*/1, rows);
  } else {
    rows(0, m);
  }
}

void CheckHeadShapes(ConstMatView q, ConstMatView k, ConstMatView v,
                     MutMatView ctx) {
  const int64_t hd = q.cols;
  DODUO_CHECK(v.rows == k.rows && k.cols == hd && v.cols == hd &&
              ctx.rows == q.rows && ctx.cols == hd)
      << "attention head shapes differ";
}

// The head in three passes: q·kᵀ, the member's softmax rows, P·V. The
// scalar member, and every member when hd is not a multiple of 8.
template <RowRange kRowRange>
void AttentionHeadUnblocked(ConstMatView q, ConstMatView k, ConstMatView v,
                            float scale, const Tensor* mask, Tensor* /*kt*/,
                            Tensor* probs, MutMatView ctx) {
  CheckHeadShapes(q, k, v, ctx);
  MatMulTransposedBView(q, k, probs);
  ScaleMaskSoftmaxWith<kRowRange>(*probs, scale, mask, probs);
  MatMulView(FullView(*probs), v, ctx);
}

#if defined(DODUO_X86_SIMD)

// Softmax of rows [row_begin, row_end), a block of W::kRows rows at a time.
template <typename W>
void SoftmaxRowRange(const float* pin, const float* pmask, float* pout,
                     int64_t n, float scale, int64_t row_begin,
                     int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += W::kRows) {
    const int count =
        static_cast<int>(std::min<int64_t>(W::kRows, row_end - i));
    const RowBlock<W::kRows> block =
        MakeRowBlock<W::kRows>(pin, pmask, pout, n, i, count);
    RowStats stats[W::kRows];
    for (int r = 0; r < count; ++r) {
      stats[r] = W::ScaleMaskMax(block.in[r], block.mask[r], scale, n,
                                 block.out[r]);
    }
    W::SoftmaxBlock(block, stats, n);
  }
}

// The blocked head: kᵀ packed and v checked for non-finite values once,
// then per block of query rows q·kᵀ with the logit epilogue on its
// registers, one exp call, the sums and normalizers, and P·V, all in the
// registers of one ISA. Each query row's bits depend on that row and on k
// and v alone, so m query rows over s keys give the rows of the m = s
// pass. hd is a multiple of 8.
template <typename W>
void AttentionHeadBlocked(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx) {
  CheckHeadShapes(q, k, v, ctx);
  constexpr int kRows = W::kRows;
  const int64_t m = q.rows;
  const int64_t s = k.rows;
  const int64_t hd = q.cols;
  if (mask != nullptr) {
    DODUO_CHECK(mask->ndim() == 2 && mask->rows() == m && mask->cols() == s)
        << "attention mask must be [queries, keys]";
  }
  const int64_t ld = (s + W::kLanes - 1) / W::kLanes * W::kLanes;
  kt->ResizeUninitialized({hd, ld});
  float* pkt = kt->data();
  for (int64_t c = 0; c < hd; ++c) {
    float* kt_row = pkt + c * ld;
    for (int64_t j = 0; j < s; ++j) kt_row[j] = k.data[j * k.stride + c];
    std::fill(kt_row + s, kt_row + ld, 0.0f);
  }
  probs->ResizeUninitialized({m, s});
  float* pp = probs->data();
  const float* pmask = mask != nullptr ? mask->data() : nullptr;
  const bool v_finite = W::AllFinite(v);
  auto rows = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; i += kRows) {
      const int count =
          static_cast<int>(std::min<int64_t>(kRows, row_end - i));
      const RowBlock<kRows> block =
          MakeRowBlock<kRows>(pp, pmask, pp, s, i, count);
      float* ctx_rows[kRows];
      for (int r = 0; r < kRows; ++r) {
        ctx_rows[r] = ctx.data + (i + (r < count ? r : 0)) * ctx.stride;
      }
      RowStats stats[kRows];
      for (int r = 0; r < count; ++r) {
        stats[r] = W::ScoreRow(q.data + (i + r) * q.stride, pkt, hd, s, ld,
                               scale, block.mask[r], block.out[r]);
      }
      W::SoftmaxBlock(block, stats, s);
      if (v_finite) W::ContextBlock(block.out, v, ctx_rows);
    }
  };
  if (ShouldParallelize(m, hd, s)) {
    util::ComputePool()->ParallelFor(0, m, /*grain=*/1, rows);
  } else {
    rows(0, m);
  }
  if (!v_finite) MatMulView(FullView(*probs), v, ctx);
}

// A SIMD member's head: blocked when hd is a multiple of 8.
template <typename W>
void AttentionHeadWith(ConstMatView q, ConstMatView k, ConstMatView v,
                       float scale, const Tensor* mask, Tensor* kt,
                       Tensor* probs, MutMatView ctx) {
  if (q.cols % 8 == 0) {
    AttentionHeadBlocked<W>(q, k, v, scale, mask, kt, probs, ctx);
  } else {
    AttentionHeadUnblocked<&SoftmaxRowRange<W>>(q, k, v, scale, mask, kt,
                                                probs, ctx);
  }
}

template <typename W>
constexpr AttentionKernel SimdMember(const char* name) {
  return {name, &ScaleMaskSoftmaxWith<&SoftmaxRowRange<W>>,
          &AttentionHeadWith<W>};
}

#endif  // DODUO_X86_SIMD

constexpr AttentionKernel kScalar{
    "scalar", &ScaleMaskSoftmaxWith<&SoftmaxRowRangeScalar>,
    &AttentionHeadUnblocked<&SoftmaxRowRangeScalar>};
#if defined(DODUO_X86_SIMD)
constexpr AttentionKernel kAvx2 = SimdMember<simd::avx2::Kernels>("avx2");
constexpr AttentionKernel kAvx512 =
    SimdMember<simd::avx512::Kernels>("avx512");
#endif

// The member ScaleMaskSoftmaxRows and AttentionHeadForward run.
const AttentionKernel& Dispatched() {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) return kAvx512;
  if (UseAvx2Fma()) return kAvx2;
#endif
  return kScalar;
}

}  // namespace

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  ScaleMaskSoftmaxRows(logits, 1.0f, nullptr, probs);
}

void ScaleMaskSoftmaxRows(const Tensor& logits, float scale,
                          const Tensor* mask, Tensor* probs) {
  Dispatched().softmax(logits, scale, mask, probs);
}

void AttentionHeadForward(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx) {
  Dispatched().head(q, k, v, scale, mask, kt, probs, ctx);
}

std::vector<AttentionKernel> AttentionKernels() {
  std::vector<AttentionKernel> kernels{kScalar};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    kernels.push_back(kAvx2);
  }
  if (__builtin_cpu_supports("avx512f") != 0) kernels.push_back(kAvx512);
#endif
  return kernels;
}

}  // namespace doduo::nn
