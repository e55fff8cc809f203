#include "doduo/nn/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "doduo/nn/dispatch.h"
#include "doduo/nn/simd.h"
#include "doduo/util/thread_pool.h"

namespace doduo::nn {

namespace {

void CheckMatrix(const Tensor& t, const char* name) {
  DODUO_CHECK_EQ(t.ndim(), 2) << name << " must be 2-D, got "
                              << t.ShapeString();
}

// The GEMM family shards *output rows* across the compute pool. Each output
// element is written by exactly one chunk, and every kernel accumulates its
// k-dimension in ascending order for each element regardless of chunk
// boundaries, so results are bit-identical at any thread count (the
// determinism contract the training/annotation stack relies on).

// k-tile height for the blocked kernels: a kBlockK × n panel of B stays hot
// in cache while a shard of output rows streams over it.
constexpr int64_t kBlockK = 64;

// --- SIMD fast paths ------------------------------------------------------
//
// The vector kernels below are drop-in replacements for the scalar loops
// with the SAME per-element FP operation order, so they are bit-identical to
// the scalar code (and therefore to pre-SIMD checkpoints and goldens):
//  * axpy-style updates (c[j] += a·b[j]) are independent per j, so any
//    vector width is exact; we only unroll the k-loop by 4, which keeps the
//    per-element accumulation in ascending-k order.
//  * Dot's four scalar accumulators map one-to-one onto the four lanes of an
//    SSE register (acc_m sums a[4i+m]·b[4i+m] sequentially), and the final
//    reduction extracts lanes and adds them left-associatively exactly like
//    the scalar `acc0 + acc1 + acc2 + acc3`.
// No FMA: mulps/addps round each op separately, like the scalar code. The
// SIMD paths are compiled per-function via target attributes, nn is built
// with -ffp-contract=off so the compiler never fuses a mul+add into an FMA
// (AVX-512F includes FMA), and they are selected at runtime with
// __builtin_cpu_supports; DODUO_SIMD=0 forces the scalar paths.

#if defined(DODUO_X86_SIMD)

bool UseAvx() {
  static const bool avx = __builtin_cpu_supports("avx") != 0 && SimdEnabled();
  return avx;
}

// c[j] += av * b[j] for j in [0, n); exact per-j scalar semantics.
__attribute__((target("avx"))) inline void Axpy8(float* c, const float* b,
                                                 float av, int64_t n) {
  const __m256 va = _mm256_set1_ps(av);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 vc = _mm256_loadu_ps(c + j);
    vc = _mm256_add_ps(vc, _mm256_mul_ps(va, _mm256_loadu_ps(b + j)));
    _mm256_storeu_ps(c + j, vc);
  }
  for (; j < n; ++j) c[j] += av * b[j];
}

// Shared body of the two panel kernels: accumulates four consecutive k-rows
// b0..b3 of B (weighted a0..a3) into crow. The all-nonzero fast path chains
// the four updates per element in ascending-k order — the same order the
// scalar kernel produces — and amortizes the load/store of crow 4×; any
// zero weight falls back to per-row updates to preserve the zero-skip
// semantics exactly (0·inf/NaN would otherwise change bits).
__attribute__((target("avx"))) inline void AccumPanel4Avx(
    float* crow, const float* b0, const float* b1, const float* b2,
    const float* b3, float a0, float a1, float a2, float a3, int64_t n) {
  if (a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f) {
    const __m256 va0 = _mm256_set1_ps(a0);
    const __m256 va1 = _mm256_set1_ps(a1);
    const __m256 va2 = _mm256_set1_ps(a2);
    const __m256 va3 = _mm256_set1_ps(a3);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 vc = _mm256_loadu_ps(crow + j);
      vc = _mm256_add_ps(vc, _mm256_mul_ps(va0, _mm256_loadu_ps(b0 + j)));
      vc = _mm256_add_ps(vc, _mm256_mul_ps(va1, _mm256_loadu_ps(b1 + j)));
      vc = _mm256_add_ps(vc, _mm256_mul_ps(va2, _mm256_loadu_ps(b2 + j)));
      vc = _mm256_add_ps(vc, _mm256_mul_ps(va3, _mm256_loadu_ps(b3 + j)));
      _mm256_storeu_ps(crow + j, vc);
    }
    for (; j < n; ++j) {
      float c = crow[j];
      c += a0 * b0[j];
      c += a1 * b1[j];
      c += a2 * b2[j];
      c += a3 * b3[j];
      crow[j] = c;
    }
  } else {
    if (a0 != 0.0f) Axpy8(crow, b0, a0, n);
    if (a1 != 0.0f) Axpy8(crow, b1, a1, n);
    if (a2 != 0.0f) Axpy8(crow, b2, a2, n);
    if (a3 != 0.0f) Axpy8(crow, b3, a3, n);
  }
}

// Computes four dot products sharing the same left operand. Lane m of each
// accumulator sums a[4i+m]·b[4i+m] in ascending-i order and the reduction
// is left-associative, replicating Dot() bit-for-bit while giving the CPU
// four independent dependency chains (Dot's single chain is latency-bound).
inline void Dot4Sse(const float* a, const float* b0, const float* b1,
                    const float* b2, const float* b3, int64_t n, float* out) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(va, _mm_loadu_ps(b0 + i)));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(va, _mm_loadu_ps(b1 + i)));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(va, _mm_loadu_ps(b2 + i)));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(va, _mm_loadu_ps(b3 + i)));
  }
  alignas(16) float l0[4], l1[4], l2[4], l3[4];
  _mm_store_ps(l0, acc0);
  _mm_store_ps(l1, acc1);
  _mm_store_ps(l2, acc2);
  _mm_store_ps(l3, acc3);
  for (; i < n; ++i) {
    const float av = a[i];
    l0[0] += av * b0[i];
    l1[0] += av * b1[i];
    l2[0] += av * b2[i];
    l3[0] += av * b3[i];
  }
  out[0] = l0[0] + l0[1] + l0[2] + l0[3];
  out[1] = l1[0] + l1[1] + l1[2] + l1[3];
  out[2] = l2[0] + l2[1] + l2[2] + l2[3];
  out[3] = l3[0] + l3[1] + l3[2] + l3[3];
}

#endif  // DODUO_X86_SIMD

// C[i,:] += A[i,:] · B for i in [row_begin, row_end). Processes B in
// kBlockK-row panels shared by all rows of the shard; for each element the
// k-loop still runs 0..k-1 ascending. Every row kernel takes explicit row
// strides, so contiguous tensors and strided column-band views share it.
void MatMulRowsScalar(const float* pa, const float* pb, float* pc, int64_t k,
                      int64_t n, int64_t row_begin, int64_t row_end,
                      int64_t a_stride, int64_t b_stride, int64_t c_stride) {
  for (int64_t kb = 0; kb < k; kb += kBlockK) {
    const int64_t k_end = std::min<int64_t>(k, kb + kBlockK);
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = pa + i * a_stride;
      float* crow = pc + i * c_stride;
      for (int64_t l = kb; l < k_end; ++l) {
        const float av = arow[l];
        if (av == 0.0f) continue;
        const float* brow = pb + l * b_stride;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

#if defined(DODUO_X86_SIMD)

// AVX variant of MatMulRowsScalar: k-loop unrolled by 4 with the panel
// helper; per-element accumulation order is unchanged.
__attribute__((target("avx"))) void MatMulRowsAvx(
    const float* pa, const float* pb, float* pc, int64_t k, int64_t n,
    int64_t row_begin, int64_t row_end, int64_t a_stride, int64_t b_stride,
    int64_t c_stride) {
  for (int64_t kb = 0; kb < k; kb += kBlockK) {
    const int64_t k_end = std::min<int64_t>(k, kb + kBlockK);
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = pa + i * a_stride;
      float* crow = pc + i * c_stride;
      int64_t l = kb;
      for (; l + 4 <= k_end; l += 4) {
        const float* b0 = pb + l * b_stride;
        AccumPanel4Avx(crow, b0, b0 + b_stride, b0 + 2 * b_stride,
                       b0 + 3 * b_stride, arow[l], arow[l + 1], arow[l + 2],
                       arow[l + 3], n);
      }
      for (; l < k_end; ++l) {
        const float av = arow[l];
        if (av == 0.0f) continue;
        Axpy8(crow, pb + l * b_stride, av, n);
      }
    }
  }
}

// --- AVX-512 tile ---------------------------------------------------------
//
// MatMulView's kernel where the CPU has AVX-512F: a register-blocked tile
// keeps kTileRows x kTileCols elements of C in 24 zmm accumulators while l
// runs over the whole k, so each element of C is stored once instead of
// being loaded and stored every four k-steps as in the axpy. Per element
// the arithmetic is the reference's: c = +0, then c = c + a[i,l]·b[l,j] for
// l ascending, a rounded mul and a rounded add per step. The one
// difference is that the tile also adds the products of a = ±0, which the
// axpy skips. With b finite such a product is ±0 and c + (±0) = c, because
// c starts at +0 and never becomes −0 (x + (−x) rounds to +0), so the bits
// match; the AVX-512 member checks B first and runs the axpy when any entry
// is inf or NaN (DESIGN.md §9). 512-bit registers are what make the tile
// pay: without FMA, mul and add each take an FP-port slot, and an AVX2
// tile measured no faster than the axpy.

constexpr int64_t kTileRows = 12;
constexpr int64_t kTileCols = 32;

// True when no element of the view is inf or NaN, i.e. no exponent field
// is all ones. Walks the view row by row.
__attribute__((target("avx512f"))) bool AllFiniteAvx512(ConstMatView b) {
  const __m512i exponent = _mm512_set1_epi32(0x7f800000);
  __m512i high = _mm512_setzero_si512();
  for (int64_t l = 0; l < b.rows; ++l) {
    const float* row = b.data + l * b.stride;
    int64_t i = 0;
    for (; i + 16 <= b.cols; i += 16) {
      high = _mm512_max_epu32(
          high, _mm512_and_si512(_mm512_loadu_si512(row + i), exponent));
    }
    if (i < b.cols) {
      high = _mm512_max_epu32(
          high, _mm512_and_si512(
                    _mm512_maskz_loadu_epi32(LaneMask16(b.cols - i), row + i),
                    exponent));
    }
  }
  return _mm512_cmpeq_epi32_mask(high, exponent) == 0;
}

// C[0, R) x [0, 32) = A[0, R) x [0, k) · B[0, k) x [0, 32), with row
// strides sa, sb and sc; lanes outside m0 | m1 << 16 are neither read nor
// written.
template <int R>
__attribute__((target("avx512f"))) inline void GemmTileAvx512(
    const float* pa, const float* pb, float* pc, int64_t k, int64_t sa,
    int64_t sb, int64_t sc, __mmask16 m0, __mmask16 m1) {
  __m512 c0[R];
  __m512 c1[R];
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
    c0[r] = _mm512_setzero_ps();
    c1[r] = _mm512_setzero_ps();
  }
  for (int64_t l = 0; l < k; ++l) {
    const __m512 b0 = _mm512_maskz_loadu_ps(m0, pb + l * sb);
    const __m512 b1 = _mm512_maskz_loadu_ps(m1, pb + l * sb + 16);
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) {
      const __m512 a = _mm512_set1_ps(pa[r * sa + l]);
      c0[r] = _mm512_add_ps(c0[r], _mm512_mul_ps(a, b0));
      c1[r] = _mm512_add_ps(c1[r], _mm512_mul_ps(a, b1));
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_ps(pc + r * sc, m0, c0[r]);
    _mm512_mask_storeu_ps(pc + r * sc + 16, m1, c1[r]);
  }
}

// C rows [row_begin, row_end) = A · B, overwriting C; B must be finite
// (see above).
__attribute__((target("avx512f"))) void MatMulRowsAvx512(
    const float* pa, const float* pb, float* pc, int64_t k, int64_t n,
    int64_t row_begin, int64_t row_end, int64_t sa, int64_t sb, int64_t sc) {
  for (int64_t i = row_begin; i < row_end; i += kTileRows) {
    const float* a = pa + i * sa;
    for (int64_t j = 0; j < n; j += kTileCols) {
      const __mmask16 m0 = LaneMask16(n - j);
      const __mmask16 m1 = LaneMask16(n - j - 16);
      const float* b = pb + j;
      float* c = pc + i * sc + j;
      switch (std::min(kTileRows, row_end - i)) {
        case 12: GemmTileAvx512<12>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 11: GemmTileAvx512<11>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 10: GemmTileAvx512<10>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 9: GemmTileAvx512<9>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 8: GemmTileAvx512<8>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 7: GemmTileAvx512<7>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 6: GemmTileAvx512<6>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 5: GemmTileAvx512<5>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 4: GemmTileAvx512<4>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 3: GemmTileAvx512<3>(a, b, c, k, sa, sb, sc, m0, m1); break;
        case 2: GemmTileAvx512<2>(a, b, c, k, sa, sb, sc, m0, m1); break;
        default: GemmTileAvx512<1>(a, b, c, k, sa, sb, sc, m0, m1); break;
      }
    }
  }
}

#endif  // DODUO_X86_SIMD

struct GemmDims {
  int64_t m, k, n;
};

GemmDims CheckGemm(const Tensor& a, const Tensor& b) {
  CheckMatrix(a, "a");
  CheckMatrix(b, "b");
  DODUO_CHECK_EQ(a.cols(), b.rows())
      << "inner dimensions differ: " << a.ShapeString() << " vs "
      << b.ShapeString();
  return {a.rows(), a.cols(), b.cols()};
}

// Runs rows(row_begin, row_end) over [0, m), sharded across the compute
// pool above the volume threshold.
template <typename Rows>
void ForRowShards(const GemmDims& d, const Rows& rows) {
  if (ShouldParallelize(d.m, d.k, d.n)) {
    util::ComputePool()->ParallelFor(0, d.m, /*grain=*/1, rows);
  } else {
    rows(0, d.m);
  }
}

void CheckView(const ConstMatView& v, const char* name) {
  DODUO_CHECK(v.data != nullptr && v.rows > 0 && v.cols > 0 &&
              v.stride >= v.cols)
      << "invalid view " << name;
}

ConstMatView AsConst(const MutMatView& v) {
  return {v.data, v.rows, v.cols, v.stride};
}

// Overwrites the [rows, cols] region addressed by the view with zeros (rows
// may be interleaved with live data of the enclosing buffer).
void ZeroView(const MutMatView& v) {
  for (int64_t i = 0; i < v.rows; ++i) {
    std::fill(v.data + i * v.stride, v.data + i * v.stride + v.cols, 0.0f);
  }
}

// Output rows of out (+)= a · b through the row kernel `Rows`.
template <auto Rows>
void ShardMatMulRows(ConstMatView a, ConstMatView b, MutMatView out) {
  ForRowShards({a.rows, a.cols, b.cols}, [&](int64_t row_begin,
                                             int64_t row_end) {
    Rows(a.data, b.data, out.data, a.cols, b.cols, row_begin, row_end,
         a.stride, b.stride, out.stride);
  });
}

enum class GemmIsa { kScalar, kAvx, kAvx512 };

// The NN body: out = a · b, overwritten, through the member `isa` — the
// AVX-512 tile when B is finite, else the axpy (AVX or scalar) over a
// zeroed out.
template <GemmIsa isa>
void MatMulViewOn(ConstMatView a, ConstMatView b, MutMatView out) {
  CheckView(a, "a");
  CheckView(b, "b");
  CheckView(AsConst(out), "out");
  DODUO_CHECK_EQ(a.cols, b.rows) << "inner dimensions differ";
  DODUO_CHECK(out.rows == a.rows && out.cols == b.cols);
#if defined(DODUO_X86_SIMD)
  if constexpr (isa == GemmIsa::kAvx512) {
    if (AllFiniteAvx512(b)) {
      ShardMatMulRows<&MatMulRowsAvx512>(a, b, out);
      return;
    }
  }
#endif
  ZeroView(out);
#if defined(DODUO_X86_SIMD)
  if constexpr (isa != GemmIsa::kScalar) {
    ShardMatMulRows<&MatMulRowsAvx>(a, b, out);
    return;
  }
#endif
  ShardMatMulRows<&MatMulRowsScalar>(a, b, out);
}

}  // namespace

ConstMatView FullView(const Tensor& t) {
  DODUO_CHECK_EQ(t.ndim(), 2);
  return {t.data(), t.rows(), t.cols(), t.cols()};
}

MutMatView MutFullView(Tensor* t) {
  DODUO_CHECK_EQ(t->ndim(), 2);
  return {t->data(), t->rows(), t->cols(), t->cols()};
}

ConstMatView ColumnsView(const Tensor& t, int64_t col_begin, int64_t cols) {
  DODUO_CHECK_EQ(t.ndim(), 2);
  DODUO_CHECK(col_begin >= 0 && cols > 0 && col_begin + cols <= t.cols());
  return {t.data() + col_begin, t.rows(), cols, t.cols()};
}

MutMatView MutColumnsView(Tensor* t, int64_t col_begin, int64_t cols) {
  DODUO_CHECK_EQ(t->ndim(), 2);
  DODUO_CHECK(col_begin >= 0 && cols > 0 && col_begin + cols <= t->cols());
  return {t->data() + col_begin, t->rows(), cols, t->cols()};
}

void MatMulView(ConstMatView a, ConstMatView b, MutMatView out) {
#if defined(DODUO_X86_SIMD)
  if (UseAvx512()) {
    MatMulViewOn<GemmIsa::kAvx512>(a, b, out);
    return;
  }
  if (UseAvx()) {
    MatMulViewOn<GemmIsa::kAvx>(a, b, out);
    return;
  }
#endif
  MatMulViewOn<GemmIsa::kScalar>(a, b, out);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  const GemmDims d = CheckGemm(a, b);
  out->ResizeUninitialized({d.m, d.n});
  MatMulView(FullView(a), FullView(b), MutFullView(out));
}

std::vector<Fp32GemmKernel> Fp32GemmKernels() {
  std::vector<Fp32GemmKernel> kernels{
      {"scalar", &MatMulViewOn<GemmIsa::kScalar>}};
#if defined(DODUO_X86_SIMD)
  if (__builtin_cpu_supports("avx") != 0) {
    kernels.push_back({"avx", &MatMulViewOn<GemmIsa::kAvx>});
  }
  if (__builtin_cpu_supports("avx512f") != 0) {
    kernels.push_back({"avx512", &MatMulViewOn<GemmIsa::kAvx512>});
  }
#endif
  return kernels;
}

void MatMulTransposedBView(ConstMatView a, ConstMatView b, Tensor* out) {
  CheckView(a, "a");
  CheckView(b, "b");
  const int64_t m = a.rows;
  const int64_t k = a.cols;
  const int64_t n = b.rows;
  DODUO_CHECK_EQ(k, b.cols) << "inner dimensions differ";
  out->ResizeUninitialized({m, n});
  float* pc = out->data();
  [[maybe_unused]] const bool simd = SimdEnabled();
  ForRowShards({m, k, n}, [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a.data + i * a.stride;
      int64_t j = 0;
#if defined(DODUO_X86_SIMD)
      // Four dots per step share arow and run four independent accumulator
      // chains; each dot's bit pattern matches Dot() exactly.
      for (; simd && j + 4 <= n; j += 4) {
        const float* brow = b.data + j * b.stride;
        Dot4Sse(arow, brow, brow + b.stride, brow + 2 * b.stride,
                brow + 3 * b.stride, k, pc + i * n + j);
      }
#endif
      for (; j < n; ++j) {
        pc[i * n + j] = Dot(arow, b.data + j * b.stride, k);
      }
    }
  });
}

void MatMulTransposedB(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckMatrix(a, "a");
  CheckMatrix(b, "b");
  DODUO_CHECK_EQ(a.cols(), b.cols())
      << "inner dimensions differ: " << a.ShapeString() << " vs "
      << b.ShapeString();
  MatMulTransposedBView(FullView(a), FullView(b), out);
}

namespace {

// C[:, i..] shard for i in [col_begin, col_end), where C[i,j] accumulates
// sum_l a[l,i]·b[l,j] with l ascending at any shard boundary. B is walked
// in kBlockK-row panels for reuse across the shard's output rows.
void MatMulTransposedARowsScalar(const float* pa, const float* pb, float* pc,
                                 int64_t k, int64_t n, int64_t col_begin,
                                 int64_t col_end, int64_t a_stride,
                                 int64_t b_stride, int64_t c_stride) {
  for (int64_t kb = 0; kb < k; kb += kBlockK) {
    const int64_t k_end = std::min<int64_t>(k, kb + kBlockK);
    for (int64_t i = col_begin; i < col_end; ++i) {
      float* crow = pc + i * c_stride;
      for (int64_t l = kb; l < k_end; ++l) {
        const float av = pa[l * a_stride + i];
        if (av == 0.0f) continue;
        const float* brow = pb + l * b_stride;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

#if defined(DODUO_X86_SIMD)

// AVX variant: identical structure, k-loop unrolled by 4 via the panel
// helper (A's weights come from a strided column walk instead of a row).
__attribute__((target("avx"))) void MatMulTransposedARowsAvx(
    const float* pa, const float* pb, float* pc, int64_t k, int64_t n,
    int64_t col_begin, int64_t col_end, int64_t a_stride, int64_t b_stride,
    int64_t c_stride) {
  for (int64_t kb = 0; kb < k; kb += kBlockK) {
    const int64_t k_end = std::min<int64_t>(k, kb + kBlockK);
    for (int64_t i = col_begin; i < col_end; ++i) {
      float* crow = pc + i * c_stride;
      int64_t l = kb;
      for (; l + 4 <= k_end; l += 4) {
        const float* acol = pa + l * a_stride + i;
        const float* b0 = pb + l * b_stride;
        AccumPanel4Avx(crow, b0, b0 + b_stride, b0 + 2 * b_stride,
                       b0 + 3 * b_stride, acol[0], acol[a_stride],
                       acol[2 * a_stride], acol[3 * a_stride], n);
      }
      for (; l < k_end; ++l) {
        const float av = pa[l * a_stride + i];
        if (av == 0.0f) continue;
        Axpy8(crow, pb + l * b_stride, av, n);
      }
    }
  }
}

#endif  // DODUO_X86_SIMD

// The TN body: out += aᵀ · b for a[k,m], b[k,n], the panel kernel over
// sharded output rows.
void MatMulTransposedAAccumView(ConstMatView a, ConstMatView b,
                                MutMatView out) {
  CheckView(a, "a");
  CheckView(b, "b");
  CheckView(AsConst(out), "out");
  const int64_t k = a.rows;
  const int64_t m = a.cols;
  const int64_t n = b.cols;
  DODUO_CHECK_EQ(k, b.rows) << "leading dimensions differ";
  DODUO_CHECK(out.rows == m && out.cols == n);
  ForRowShards({m, k, n}, [&](int64_t col_begin, int64_t col_end) {
#if defined(DODUO_X86_SIMD)
    if (UseAvx()) {
      MatMulTransposedARowsAvx(a.data, b.data, out.data, k, n, col_begin,
                               col_end, a.stride, b.stride, out.stride);
      return;
    }
#endif
    MatMulTransposedARowsScalar(a.data, b.data, out.data, k, n, col_begin,
                                col_end, a.stride, b.stride, out.stride);
  });
}

}  // namespace

void MatMulTransposedAView(ConstMatView a, ConstMatView b, MutMatView out) {
  CheckView(AsConst(out), "out");
  ZeroView(out);
  MatMulTransposedAAccumView(a, b, out);
}

void MatMulTransposedAAccum(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckMatrix(a, "a");
  CheckMatrix(b, "b");
  DODUO_CHECK_EQ(a.rows(), b.rows())
      << "leading dimensions differ: " << a.ShapeString() << " vs "
      << b.ShapeString();
  DODUO_CHECK(out->ndim() == 2 && out->rows() == a.cols() &&
              out->cols() == b.cols())
      << "accumulator must be preallocated to [" << a.cols() << ", "
      << b.cols() << "]";
  MatMulTransposedAAccumView(FullView(a), FullView(b), MutFullView(out));
}

void GatherRows(ConstMatView src, std::span<const int64_t> rows,
                Tensor* out) {
  CheckView(src, "src");
  const int64_t n = static_cast<int64_t>(rows.size());
  out->ResizeUninitialized({n, src.cols});
  for (int64_t r = 0; r < n; ++r) {
    const int64_t i = rows[static_cast<size_t>(r)];
    DODUO_CHECK(i >= 0 && i < src.rows) << "gathered row out of range";
    const float* from = src.data + i * src.stride;
    std::copy(from, from + src.cols, out->row(r));
  }
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  DODUO_CHECK(SameShape(a, b));
  out->ResizeUninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  // The size lives in a local: re-read through `a` in the condition, it
  // may alias the stores, and the loop would not vectorize.
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

void AddInPlace(Tensor* a, const Tensor& b) {
  DODUO_CHECK(SameShape(*a, b));
  float* pa = a->data();
  const float* pb = b.data();
  const int64_t n = a->size();  // hoisted, as in Add
  for (int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void Scale(Tensor* a, float scale) {
  float* pa = a->data();
  const int64_t n = a->size();  // hoisted, as in Add
  for (int64_t i = 0; i < n; ++i) pa[i] *= scale;
}

void AddRowBroadcast(Tensor* a, const Tensor& bias) {
  CheckMatrix(*a, "a");
  DODUO_CHECK_EQ(bias.ndim(), 1);
  DODUO_CHECK_EQ(a->cols(), bias.dim(0));
  const int64_t n = a->cols();
  const float* pb = bias.data();
  for (int64_t i = 0; i < a->rows(); ++i) {
    float* row = a->row(i);
    for (int64_t j = 0; j < n; ++j) row[j] += pb[j];
  }
}

void ColumnSumAccum(const Tensor& a, Tensor* out) {
  CheckMatrix(a, "a");
  DODUO_CHECK_EQ(out->ndim(), 1);
  DODUO_CHECK_EQ(out->dim(0), a.cols());
  const int64_t n = a.cols();
  float* po = out->data();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* row = a.row(i);
    for (int64_t j = 0; j < n; ++j) po[j] += row[j];
  }
}

void SoftmaxRowsBackward(const Tensor& probs, const Tensor& grad_out,
                         Tensor* grad_in) {
  DODUO_CHECK(SameShape(probs, grad_out));
  grad_in->ResizeUninitialized(probs.shape());
  const int64_t n = probs.cols();
  for (int64_t i = 0; i < probs.rows(); ++i) {
    const float* p = probs.row(i);
    const float* dy = grad_out.row(i);
    float* dx = grad_in->row(i);
    double inner = 0.0;
    for (int64_t j = 0; j < n; ++j)
      inner += static_cast<double>(dy[j]) * static_cast<double>(p[j]);
    const float inner_f = static_cast<float>(inner);
    for (int64_t j = 0; j < n; ++j) dx[j] = p[j] * (dy[j] - inner_f);
  }
}

void LogSoftmaxRows(const Tensor& logits, Tensor* log_probs) {
  CheckMatrix(logits, "logits");
  log_probs->ResizeUninitialized(logits.shape());
  const int64_t n = logits.cols();
  for (int64_t i = 0; i < logits.rows(); ++i) {
    const float* in = logits.row(i);
    float* out = log_probs->row(i);
    float max_logit = in[0];
    for (int64_t j = 1; j < n; ++j) max_logit = std::max(max_logit, in[j]);
    double total = 0.0;
    for (int64_t j = 0; j < n; ++j)
      total += static_cast<double>(std::exp(in[j] - max_logit));
    const float log_z = max_logit + static_cast<float>(std::log(total));
    for (int64_t j = 0; j < n; ++j) out[j] = in[j] - log_z;
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return acc0 + acc1 + acc2 + acc3;
}

}  // namespace doduo::nn
