// Row softmax and the per-head attention kernel built on it. Both have a
// scalar reference and AVX2 and AVX-512 twins that are bit-identical to
// it; exp is nn::Expf (or its row twin of the same ISA), so no result here
// depends on the host's libm (DESIGN.md §9).

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

// --- SIMD twins -------------------------------------------------------------
//
// The twins below work on blocks of rows: four rows for AVX2, eight for
// AVX-512. Per row they compute exactly what ScaleMaskSoftmaxRow computes:
//  * scale and mask run as separate mul and add intrinsics; the max is
//    order-free once every logit is finite (only the sign of a zero max
//    could differ, and t - (±0) feeds Expf the same value either way);
//    a row with any non-finite logit runs the scalar row instead;
//  * exp is the ExpfRow twin of the same ISA, which equals Expf;
//  * the block's double sums run side by side, one row per lane, each
//    still ascending in j;
//  * the normalizing multiply is per element.
// Only target("avx2") or target("avx512f") is enabled here and nn builds
// with -ffp-contract=off, so no mul+add is contracted (the FMA twins of
// Expf are separate noinline functions). The AVX-512 twin is the AVX2 twin
// op for op: twice the rows per block, twice the lanes per register, and
// masked loads and stores for row tails.

#if defined(DODUO_X86_SIMD)

// Up to R rows of one block. Missing rows of a short block repeat row 0,
// so every kernel below can run all R lanes: a repeated row computes and
// stores the same bits as row 0 itself.
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
__attribute__((target("avx2"))) void SoftmaxBlockAvx2(
    const RowBlock<4>& block, float scale, int64_t n) {
  float max_logit[4];
  bool finite[4];
  for (int r = 0; r < block.count; ++r) {
    max_logit[r] = ScaleMaskMaxAvx2(block.in[r], block.mask[r], scale, n,
                                    block.out[r], &finite[r]);
    if (finite[r]) {
      internal::ExpfRowAvx2Fma(block.out[r], max_logit[r], block.out[r], n);
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

// --- AVX-512 ---

// ScaleMaskMaxAvx2 on 16 lanes; the row tail is one masked vector.
__attribute__((target("avx512f"))) float ScaleMaskMaxAvx512(
    const float* in, const float* mask_row, float scale, int64_t n,
    float* out, bool* finite) {
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 largest = _mm512_set1_ps(std::numeric_limits<float>::max());
  __m512 vmax = _mm512_set1_ps(-std::numeric_limits<float>::max());
  __mmask16 non_finite = 0;
  for (int64_t j = 0; j < n; j += 16) {
    const __mmask16 lanes = LaneMask16(n - j);
    __m512 t = _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, in + j), vscale);
    if (mask_row != nullptr) {
      t = _mm512_add_ps(t, _mm512_maskz_loadu_ps(lanes, mask_row + j));
    }
    _mm512_mask_storeu_ps(out + j, lanes, t);
    non_finite |= _mm512_kandn(
        _mm512_cmp_ps_mask(_mm512_abs_ps(t), largest, _CMP_LE_OQ), lanes);
    vmax = _mm512_mask_max_ps(vmax, lanes, vmax, t);
  }
  *finite = non_finite == 0;
  return _mm512_reduce_max_ps(vmax);
}

// SumRows4Avx2 on eight rows: an 8×8 transpose puts column j of the eight
// rows in one register, and lane r of the double accumulator is row r's
// sum, ascending in j.
__attribute__((target("avx512f"))) void SumRows8Avx512(float* const rows[8],
                                                      int64_t n,
                                                      double totals[8]) {
  __m512d acc = _mm512_setzero_pd();
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 c[8];
    for (int r = 0; r < 8; ++r) c[r] = _mm256_loadu_ps(rows[r] + j);
    Transpose8x8(c);
    for (const __m256& column : c) {
      acc = _mm512_add_pd(acc, _mm512_cvtps_pd(column));
    }
  }
  _mm512_storeu_pd(totals, acc);
  for (; j < n; ++j) {
    for (int r = 0; r < 8; ++r) totals[r] += static_cast<double>(rows[r][j]);
  }
}

__attribute__((target("avx512f"))) void ScaleRowAvx512(float* row,
                                                      float factor,
                                                      int64_t n) {
  const __m512 f = _mm512_set1_ps(factor);
  for (int64_t j = 0; j < n; j += 16) {
    const __mmask16 lanes = LaneMask16(n - j);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, row + j);
    _mm512_mask_storeu_ps(row + j, lanes, _mm512_mul_ps(x, f));
  }
}

// SoftmaxBlockAvx2 on a block of eight rows.
__attribute__((target("avx512f"))) void SoftmaxBlockAvx512(
    const RowBlock<8>& block, float scale, int64_t n) {
  float max_logit[8];
  bool finite[8];
  for (int r = 0; r < block.count; ++r) {
    max_logit[r] = ScaleMaskMaxAvx512(block.in[r], block.mask[r], scale, n,
                                      block.out[r], &finite[r]);
    if (finite[r]) {
      internal::ExpfRowAvx512(block.out[r], max_logit[r], block.out[r], n);
    } else {
      ScaleMaskSoftmaxRow(block.out[r], nullptr, 1.0f, n, block.out[r]);
    }
  }
  double totals[8];
  SumRows8Avx512(block.out, n, totals);
  for (int r = 0; r < block.count; ++r) {
    if (finite[r]) {
      ScaleRowAvx512(block.out[r], static_cast<float>(1.0 / totals[r]), n);
    }
  }
}

// ScoreRowAvx2 with 16 keys per register: kt's ld is s rounded up to 16.
__attribute__((target("avx512f"))) void ScoreRowAvx512(const float* q,
                                                      const float* kt,
                                                      int64_t hd, int64_t s,
                                                      int64_t ld, float* out) {
  int64_t j = 0;
  for (; j + 32 <= s; j += 32) {
    __m512 a[4][2];
    for (auto& am : a) am[0] = am[1] = _mm512_setzero_ps();
    for (int64_t i = 0; i < hd; i += 4) {
      for (int m = 0; m < 4; ++m) {
        const __m512 qv = _mm512_set1_ps(q[i + m]);
        const float* krow = kt + (i + m) * ld + j;
        a[m][0] = _mm512_add_ps(a[m][0],
                                _mm512_mul_ps(qv, _mm512_loadu_ps(krow)));
        a[m][1] = _mm512_add_ps(
            a[m][1], _mm512_mul_ps(qv, _mm512_loadu_ps(krow + 16)));
      }
    }
    for (int h = 0; h < 2; ++h) {
      const __m512 dot = _mm512_add_ps(
          _mm512_add_ps(_mm512_add_ps(a[0][h], a[1][h]), a[2][h]), a[3][h]);
      _mm512_storeu_ps(out + j + 16 * h, dot);
    }
  }
  for (; j < s; j += 16) {
    __m512 a[4];
    for (__m512& am : a) am = _mm512_setzero_ps();
    for (int64_t i = 0; i < hd; i += 4) {
      for (int m = 0; m < 4; ++m) {
        a[m] = _mm512_add_ps(
            a[m], _mm512_mul_ps(_mm512_set1_ps(q[i + m]),
                                _mm512_loadu_ps(kt + (i + m) * ld + j)));
      }
    }
    const __m512 dot =
        _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(a[0], a[1]), a[2]), a[3]);
    _mm512_mask_storeu_ps(out + j, LaneMask16(s - j), dot);
  }
}

// ContextBlockAvx2 on eight query rows, with a 16-wide band of the head
// row in one register (masked when hd is not a multiple of 16).
__attribute__((target("avx512f"))) void ContextBlockAvx512(
    float* const p[8], ConstMatView v, float* const ctx[8]) {
  const int64_t s = v.rows;
  for (int64_t c = 0; c < v.cols; c += 16) {
    const __mmask16 lanes = LaneMask16(v.cols - c);
    __m512 acc[8];
    for (__m512& a : acc) a = _mm512_setzero_ps();
    for (int64_t j = 0; j < s; ++j) {
      const __m512 vv =
          _mm512_maskz_loadu_ps(lanes, v.data + j * v.stride + c);
      for (int r = 0; r < 8; ++r) {
        acc[r] = _mm512_add_ps(acc[r],
                               _mm512_mul_ps(_mm512_set1_ps(p[r][j]), vv));
      }
    }
    for (int r = 0; r < 8; ++r) {
      _mm512_mask_storeu_ps(ctx[r] + c, lanes, acc[r]);
    }
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

// --- The family -------------------------------------------------------------
//
// Each member runs one ISA end to end; the public entry points pick one
// per process.

enum class Isa { kScalar, kAvx2, kAvx512 };

// Softmax of rows [row_begin, row_end), a block of rows at a time.
template <Isa I>
void SoftmaxRowRange(const float* pin, const float* pmask, float* pout,
                     int64_t n, float scale, int64_t row_begin,
                     int64_t row_end) {
#if defined(DODUO_X86_SIMD)
  if constexpr (I != Isa::kScalar) {
    constexpr int kRows = I == Isa::kAvx512 ? 8 : 4;
    for (int64_t i = row_begin; i < row_end; i += kRows) {
      const int count =
          static_cast<int>(std::min<int64_t>(kRows, row_end - i));
      const RowBlock<kRows> block =
          MakeRowBlock<kRows>(pin, pmask, pout, n, i, count);
      if constexpr (I == Isa::kAvx512) {
        SoftmaxBlockAvx512(block, scale, n);
      } else {
        SoftmaxBlockAvx2(block, scale, n);
      }
    }
    return;
  }
#endif
  for (int64_t i = row_begin; i < row_end; ++i) {
    ScaleMaskSoftmaxRow(pin + i * n, pmask != nullptr ? pmask + i * n : nullptr,
                        scale, n, pout + i * n);
  }
}

template <Isa I>
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
    SoftmaxRowRange<I>(pin, pmask, pout, n, scale, row_begin, row_end);
  };
  // Rows are independent and each row's FP order is fixed, so sharding
  // preserves the bit-determinism contract.
  if (ShouldParallelize(m, 1, n)) {
    util::ComputePool()->ParallelFor(0, m, /*grain=*/1, rows);
  } else {
    rows(0, m);
  }
}

#if defined(DODUO_X86_SIMD)

// The blocked head: kᵀ packed once, then per block of query rows q·kᵀ, the
// softmax twin and P·V, all in the registers of one ISA. hd is a multiple
// of 8.
template <Isa I>
void AttentionHeadBlocked(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx) {
  constexpr int kRows = I == Isa::kAvx512 ? 8 : 4;
  constexpr int64_t kLanes = I == Isa::kAvx512 ? 16 : 8;
  const int64_t s = q.rows;
  const int64_t hd = q.cols;
  if (mask != nullptr) {
    DODUO_CHECK(mask->ndim() == 2 && mask->rows() == s && mask->cols() == s)
        << "attention mask must be [seq, seq]";
  }
  const int64_t ld = (s + kLanes - 1) / kLanes * kLanes;
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
    for (int64_t i = row_begin; i < row_end; i += kRows) {
      const int count =
          static_cast<int>(std::min<int64_t>(kRows, row_end - i));
      const RowBlock<kRows> block =
          MakeRowBlock<kRows>(pp, pmask, pp, s, i, count);
      float* ctx_rows[kRows];
      for (int r = 0; r < kRows; ++r) {
        ctx_rows[r] = ctx.data + (i + (r < count ? r : 0)) * ctx.stride;
      }
      for (int r = 0; r < count; ++r) {
        const float* q_row = q.data + (i + r) * q.stride;
        if constexpr (I == Isa::kAvx512) {
          ScoreRowAvx512(q_row, pkt, hd, s, ld, block.out[r]);
        } else {
          ScoreRowAvx2(q_row, pkt, hd, s, ld, block.out[r]);
        }
      }
      if constexpr (I == Isa::kAvx512) {
        SoftmaxBlockAvx512(block, scale, s);
        if (v_finite) ContextBlockAvx512(block.out, v, ctx_rows);
      } else {
        SoftmaxBlockAvx2(block, scale, s);
        if (v_finite) ContextBlockAvx2(block.out, v, ctx_rows);
      }
    }
  };
  if (ShouldParallelize(s, hd, s)) {
    util::ComputePool()->ParallelFor(0, s, /*grain=*/1, rows);
  } else {
    rows(0, s);
  }
  if (!v_finite) MatMulView(FullView(*probs), v, ctx);
}

#endif  // DODUO_X86_SIMD

template <Isa I>
void AttentionHeadWith(ConstMatView q, ConstMatView k, ConstMatView v,
                       float scale, const Tensor* mask, Tensor* kt,
                       Tensor* probs, MutMatView ctx) {
  const int64_t s = q.rows;
  const int64_t hd = q.cols;
  DODUO_CHECK(k.rows == s && v.rows == s && k.cols == hd && v.cols == hd &&
              ctx.rows == s && ctx.cols == hd)
      << "attention head shapes differ";
#if defined(DODUO_X86_SIMD)
  if constexpr (I != Isa::kScalar) {
    if (hd % 8 == 0) {
      AttentionHeadBlocked<I>(q, k, v, scale, mask, kt, probs, ctx);
      return;
    }
  }
#endif
  MatMulTransposedBView(q, k, probs);
  ScaleMaskSoftmaxWith<I>(*probs, scale, mask, probs);
  MatMulView(FullView(*probs), v, ctx);
}

}  // namespace

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  ScaleMaskSoftmaxRows(logits, 1.0f, nullptr, probs);
}

void ScaleMaskSoftmaxRows(const Tensor& logits, float scale,
                          const Tensor* mask, Tensor* probs) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    ScaleMaskSoftmaxWith<Isa::kAvx512>(logits, scale, mask, probs);
    return;
  }
  if (UseAvx2Fma()) {
    ScaleMaskSoftmaxWith<Isa::kAvx2>(logits, scale, mask, probs);
    return;
  }
#endif
  ScaleMaskSoftmaxWith<Isa::kScalar>(logits, scale, mask, probs);
}

void AttentionHeadForward(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    AttentionHeadWith<Isa::kAvx512>(q, k, v, scale, mask, kt, probs, ctx);
    return;
  }
  if (UseAvx2Fma()) {
    AttentionHeadWith<Isa::kAvx2>(q, k, v, scale, mask, kt, probs, ctx);
    return;
  }
#endif
  AttentionHeadWith<Isa::kScalar>(q, k, v, scale, mask, kt, probs, ctx);
}

std::vector<AttentionKernel> AttentionKernels() {
  std::vector<AttentionKernel> kernels{
      {"scalar", &ScaleMaskSoftmaxWith<Isa::kScalar>,
       &AttentionHeadWith<Isa::kScalar>}};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    kernels.push_back({"avx2", &ScaleMaskSoftmaxWith<Isa::kAvx2>,
                       &AttentionHeadWith<Isa::kAvx2>});
  }
  if (__builtin_cpu_supports("avx512f") != 0) {
    kernels.push_back({"avx512", &ScaleMaskSoftmaxWith<Isa::kAvx512>,
                       &AttentionHeadWith<Isa::kAvx512>});
  }
#endif
  return kernels;
}

}  // namespace doduo::nn
