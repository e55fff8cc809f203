// Row softmax and the per-head attention kernel built on it. Both have a
// scalar reference and an AVX2 twin that is bit-identical to it; exp is
// nn::Expf (or its AVX2+FMA row twin), so no result here depends on the
// host's libm (DESIGN.md §9).

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

#include "doduo/nn/dispatch.h"
#include "doduo/nn/expf.h"
#include "doduo/nn/ops.h"
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

// --- AVX2 twins -------------------------------------------------------------
//
// The twins below work on blocks of up to four rows. Per row they compute
// exactly what ScaleMaskSoftmaxRow computes:
//  * scale and mask run as separate mul and add intrinsics; the max is
//    order-free once every logit is finite (only the sign of a zero max
//    could differ, and t - (±0) feeds Expf the same value either way);
//    a row with any non-finite logit runs the scalar row instead;
//  * exp is ExpfRow, whose AVX2+FMA twin equals Expf;
//  * the four rows' double sums run side by side, one per lane, each
//    still ascending in j;
//  * the normalizing multiply is per element.
// Only target("avx2") is enabled here, not FMA, so no mul+add is
// contracted (the FMA twin of Expf is a separate noinline function).

#if defined(DODUO_X86_SIMD)

// Up to four rows of one block. Missing rows of a short block repeat row
// 0, so every kernel below can run four lanes: a repeated row computes and
// stores the same bits as row 0 itself.
struct RowBlock {
  const float* in[4];
  const float* mask[4];  // nullptr entries when there is no mask
  float* out[4];
  int count;
};

RowBlock MakeRowBlock(const float* in, const float* mask, float* out,
                      int64_t stride, int64_t row, int count) {
  RowBlock block{};
  block.count = count;
  for (int r = 0; r < 4; ++r) {
    const int64_t i = row + (r < count ? r : 0);
    block.in[r] = in + i * stride;
    block.mask[r] = mask != nullptr ? mask + i * stride : nullptr;
    block.out[r] = out + i * stride;
  }
  return block;
}

// out_j = in_j * scale (+ mask_j); returns max_j out_j and sets *finite
// when every out_j is finite.
__attribute__((target("avx2"))) float ScaleMaskMaxAvx2(
    const float* in, const float* mask_row, float scale, int64_t n,
    float* out, bool* finite) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 largest = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::max());
  __m256 all_finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 t = _mm256_mul_ps(_mm256_loadu_ps(in + j), vscale);
    if (mask_row != nullptr) {
      t = _mm256_add_ps(t, _mm256_loadu_ps(mask_row + j));
    }
    _mm256_storeu_ps(out + j, t);
    all_finite = _mm256_and_ps(
        all_finite,
        _mm256_cmp_ps(_mm256_and_ps(t, abs_mask), largest, _CMP_LE_OQ));
    vmax = _mm256_max_ps(vmax, t);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float max_logit = lanes[0];
  for (int l = 1; l < 8; ++l) max_logit = std::max(max_logit, lanes[l]);
  bool ok = _mm256_movemask_ps(all_finite) == 0xff;
  for (; j < n; ++j) {
    float t = in[j] * scale;
    if (mask_row != nullptr) t += mask_row[j];
    out[j] = t;
    ok = ok && std::isfinite(t);
    max_logit = std::max(max_logit, t);
  }
  *finite = ok;
  return max_logit;
}

// totals[r] = sum over ascending j of double(rows[r][j]), four rows side
// by side: a 4×4 transpose puts column j of the four rows in one register.
__attribute__((target("avx2"))) void SumRows4Avx2(float* const rows[4],
                                                  int64_t n,
                                                  double totals[4]) {
  __m256d acc = _mm256_setzero_pd();
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m128 c0 = _mm_loadu_ps(rows[0] + j);
    __m128 c1 = _mm_loadu_ps(rows[1] + j);
    __m128 c2 = _mm_loadu_ps(rows[2] + j);
    __m128 c3 = _mm_loadu_ps(rows[3] + j);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c0));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c1));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c2));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c3));
  }
  _mm256_storeu_pd(totals, acc);
  for (; j < n; ++j) {
    for (int r = 0; r < 4; ++r) totals[r] += static_cast<double>(rows[r][j]);
  }
}

__attribute__((target("avx2"))) void ScaleRowAvx2(float* row, float factor,
                                                  int64_t n) {
  const __m256 f = _mm256_set1_ps(factor);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(row + j, _mm256_mul_ps(_mm256_loadu_ps(row + j), f));
  }
  for (; j < n; ++j) row[j] *= factor;
}

// Softmax of one block of rows (see RowBlock); in and out may alias.
__attribute__((target("avx2"))) void SoftmaxBlockAvx2(const RowBlock& block,
                                                      float scale, int64_t n) {
  float max_logit[4];
  bool finite[4];
  for (int r = 0; r < block.count; ++r) {
    max_logit[r] = ScaleMaskMaxAvx2(block.in[r], block.mask[r], scale, n,
                                    block.out[r], &finite[r]);
    if (finite[r]) {
      ExpfRow(block.out[r], max_logit[r], block.out[r], n);
    } else {
      // The logits are stored, so the scalar row reruns on them unscaled
      // (t·1 = t for every t, NaN and inf included).
      ScaleMaskSoftmaxRow(block.out[r], nullptr, 1.0f, n, block.out[r]);
    }
  }
  double totals[4];
  SumRows4Avx2(block.out, n, totals);
  for (int r = 0; r < block.count; ++r) {
    if (finite[r]) {
      ScaleRowAvx2(block.out[r], static_cast<float>(1.0 / totals[r]), n);
    }
  }
}

// Attention logits of one query row against every key: out[j] =
// Dot(q, k_j) for j in [0, s), with kᵀ packed as kt [hd, ld], ld = s
// rounded up to 8 and zero-padded. Lanes are 8 keys; accumulator m sums
// q[4i+m]·k_j[4i+m] over ascending i and the four reduce as
// ((a0+a1)+a2)+a3, which is Dot's order. The last partial vector computes
// the padding lanes too and stores only the real ones. hd is a multiple
// of 8.
__attribute__((target("avx2"))) void ScoreRowAvx2(const float* q,
                                                  const float* kt, int64_t hd,
                                                  int64_t s, int64_t ld,
                                                  float* out) {
  int64_t j = 0;
  for (; j + 16 <= s; j += 16) {
    __m256 a[4][2];
    for (auto& am : a) am[0] = am[1] = _mm256_setzero_ps();
    for (int64_t i = 0; i < hd; i += 4) {
      for (int m = 0; m < 4; ++m) {
        const __m256 qv = _mm256_set1_ps(q[i + m]);
        const float* krow = kt + (i + m) * ld + j;
        a[m][0] = _mm256_add_ps(a[m][0],
                                _mm256_mul_ps(qv, _mm256_loadu_ps(krow)));
        a[m][1] = _mm256_add_ps(a[m][1],
                                _mm256_mul_ps(qv, _mm256_loadu_ps(krow + 8)));
      }
    }
    for (int h = 0; h < 2; ++h) {
      const __m256 dot = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(a[0][h], a[1][h]), a[2][h]), a[3][h]);
      _mm256_storeu_ps(out + j + 8 * h, dot);
    }
  }
  for (; j < s; j += 8) {
    __m256 a[4];
    for (__m256& am : a) am = _mm256_setzero_ps();
    for (int64_t i = 0; i < hd; i += 4) {
      for (int m = 0; m < 4; ++m) {
        a[m] = _mm256_add_ps(
            a[m], _mm256_mul_ps(_mm256_set1_ps(q[i + m]),
                                _mm256_loadu_ps(kt + (i + m) * ld + j)));
      }
    }
    const __m256 dot =
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(a[0], a[1]), a[2]), a[3]);
    const __m256i real = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(s - j)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(out + j, real, dot);
  }
}

// ctx rows of one block += P · V over ascending j, four query rows × 8
// columns per register. The reference (MatMulView) skips p = 0; adding
// 0·v instead gives the same bits when every v is finite, which the caller
// checks: the accumulator starts at +0 and can never become -0 (x + (-x)
// rounds to +0), so adding ±0 never changes it.
__attribute__((target("avx2"))) void ContextBlockAvx2(float* const p[4],
                                                      ConstMatView v,
                                                      float* const ctx[4]) {
  const int64_t s = v.rows;
  int64_t c = 0;
  for (; c + 16 <= v.cols; c += 16) {
    __m256 acc[4][2];
    for (auto& a : acc) a[0] = a[1] = _mm256_setzero_ps();
    for (int64_t j = 0; j < s; ++j) {
      const float* vrow = v.data + j * v.stride + c;
      const __m256 v0 = _mm256_loadu_ps(vrow);
      const __m256 v1 = _mm256_loadu_ps(vrow + 8);
      for (int r = 0; r < 4; ++r) {
        const __m256 pr = _mm256_set1_ps(p[r][j]);
        acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(pr, v0));
        acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(pr, v1));
      }
    }
    for (int r = 0; r < 4; ++r) {
      _mm256_storeu_ps(ctx[r] + c, acc[r][0]);
      _mm256_storeu_ps(ctx[r] + c + 8, acc[r][1]);
    }
  }
  for (; c < v.cols; c += 8) {
    __m256 acc[4];
    for (__m256& a : acc) a = _mm256_setzero_ps();
    for (int64_t j = 0; j < s; ++j) {
      const __m256 vv = _mm256_loadu_ps(v.data + j * v.stride + c);
      for (int r = 0; r < 4; ++r) {
        acc[r] = _mm256_add_ps(acc[r],
                               _mm256_mul_ps(_mm256_set1_ps(p[r][j]), vv));
      }
    }
    for (int r = 0; r < 4; ++r) _mm256_storeu_ps(ctx[r] + c, acc[r]);
  }
}

bool AllFinite(ConstMatView v) {
  for (int64_t i = 0; i < v.rows; ++i) {
    const float* row = v.data + i * v.stride;
    for (int64_t j = 0; j < v.cols; ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

#endif  // DODUO_X86_SIMD

}  // namespace

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  ScaleMaskSoftmaxRows(logits, 1.0f, nullptr, probs);
}

void ScaleMaskSoftmaxRows(const Tensor& logits, float scale,
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
#if defined(DODUO_X86_SIMD)
    if (UseAvx2()) {
      for (int64_t i = row_begin; i < row_end; i += 4) {
        const int count = static_cast<int>(std::min<int64_t>(4, row_end - i));
        SoftmaxBlockAvx2(MakeRowBlock(pin, pmask, pout, n, i, count), scale,
                         n);
      }
      return;
    }
#endif
    for (int64_t i = row_begin; i < row_end; ++i) {
      ScaleMaskSoftmaxRow(pin + i * n,
                          pmask != nullptr ? pmask + i * n : nullptr, scale, n,
                          pout + i * n);
    }
  };
  // Rows are independent and each row's FP order is fixed, so sharding
  // preserves the bit-determinism contract.
  if (ShouldParallelize(m, 1, n)) {
    util::ComputePool()->ParallelFor(0, m, /*grain=*/1, rows);
  } else {
    rows(0, m);
  }
}

void AttentionHeadForward(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx) {
  const int64_t s = q.rows;
  const int64_t hd = q.cols;
  DODUO_CHECK(k.rows == s && v.rows == s && k.cols == hd && v.cols == hd &&
              ctx.rows == s && ctx.cols == hd)
      << "attention head shapes differ";
#if defined(DODUO_X86_SIMD)
  if (UseAvx2() && hd % 8 == 0) {
    if (mask != nullptr) {
      DODUO_CHECK(mask->ndim() == 2 && mask->rows() == s && mask->cols() == s)
          << "attention mask must be [seq, seq]";
    }
    const int64_t ld = (s + 7) / 8 * 8;
    kt->ResizeUninitialized({hd, ld});
    float* pkt = kt->data();
    for (int64_t c = 0; c < hd; ++c) {
      float* kt_row = pkt + c * ld;
      for (int64_t j = 0; j < s; ++j) kt_row[j] = k.data[j * k.stride + c];
      std::fill(kt_row + s, kt_row + ld, 0.0f);
    }
    probs->ResizeUninitialized({s, s});
    float* pp = probs->data();
    const float* pmask = mask != nullptr ? mask->data() : nullptr;
    const bool v_finite = AllFinite(v);
    auto rows = [&](int64_t row_begin, int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; i += 4) {
        const int count = static_cast<int>(std::min<int64_t>(4, row_end - i));
        const RowBlock block = MakeRowBlock(pp, pmask, pp, s, i, count);
        float* ctx_rows[4];
        for (int r = 0; r < 4; ++r) {
          ctx_rows[r] = ctx.data + (i + (r < count ? r : 0)) * ctx.stride;
        }
        for (int r = 0; r < count; ++r) {
          ScoreRowAvx2(q.data + (i + r) * q.stride, pkt, hd, s, ld,
                       block.out[r]);
        }
        SoftmaxBlockAvx2(block, scale, s);
        if (v_finite) ContextBlockAvx2(block.out, v, ctx_rows);
      }
    };
    if (ShouldParallelize(s, hd, s)) {
      util::ComputePool()->ParallelFor(0, s, /*grain=*/1, rows);
    } else {
      rows(0, s);
    }
    if (!v_finite) MatMulView(FullView(*probs), v, ctx);
    return;
  }
#endif
  MatMulTransposedBView(q, k, probs);
  ScaleMaskSoftmaxRows(*probs, scale, mask, probs);
  MatMulView(FullView(*probs), v, ctx);
}

}  // namespace doduo::nn
