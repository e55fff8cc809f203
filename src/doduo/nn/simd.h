#ifndef DODUO_NN_SIMD_H_
#define DODUO_NN_SIMD_H_

// The SIMD vocabulary of the nn kernels (not part of the public nn API):
// one trait per register width, simd::avx2::V (256 bits) and
// simd::avx512::V (512 bits), with the same name for the same operation,
// so a kernel family's body is written once over V and compiled once per
// width (DESIGN.md §9).
//
// A body lives in a file of its own that a source includes twice, each
// time between DODUO_SIMD_BEGIN(isa) and DODUO_SIMD_END inside that
// width's namespace, where V names the width's trait:
//
//   DODUO_SIMD_BEGIN("avx2")
//   namespace simd::avx2 {
//   namespace {
//   #include "doduo/nn/tanh_simd.inc"
//   }  // namespace
//   }  // namespace simd::avx2
//   DODUO_SIMD_END
//
// The region compiles every function in it for that ISA alone. A template
// over V outside such a region cannot call the traits (GCC refuses to
// inline a target-specific function into an untargeted one), and an
// untargeted caller of a vector-valued function draws -Wpsabi.
//
// Every operation is one IEEE op per lane (nn builds with
// -ffp-contract=off), so a body's bits do not depend on the width. V has
// no fused multiply-add. The one body that needs it, exp (nn/expf_simd.inc,
// a port of glibc's __expf_fma), is built in the one region that enables
// FMA and calls the width's Fma at the port's five std::fma points; the
// AVX2 Fma is defined under "avx2,fma", so a plain AVX2 body cannot call
// it. Where the widths differ in a way that could change bits, the
// difference is a trait operation with one meaning (a tail mask, a
// select), never a weaker shared form. Differences that change only the
// code are trait members too: rows per block, the P·V register blocking
// and exp's table read.
//
// GCC 12 draws a false "-Wuninitialized" ("'__Y' is used uninitialized",
// in avx512fintrin.h) from AVX-512 intrinsics whose builtin takes an
// undefined passthrough, depending on where they are inlined:
// _mm512_andnot_si512, _mm512_max_ps, _mm512_reduce_max_ps,
// _mm512_extractf64x4_pd and _mm512_castps512_ps256 (built from that
// extract). The trait spells those operations with a defined passthrough
// (a full-mask merge or a zero-masked form); kernels use the trait's
// spelling instead of the plain intrinsic, which
// tools/check_simd_spellings.sh checks (DESIGN.md §11).

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DODUO_X86_SIMD 1
#endif

namespace doduo::nn {

/// The instruction set one member of a kernel family runs end to end.
enum class Isa { kScalar, kAvx2, kAvx512 };

#if defined(DODUO_X86_SIMD)

/// Lanes [0, count) of one 16-lane AVX-512 register, for count of any
/// sign: the masked loads and stores of row tails.
inline __mmask16 LaneMask16(int64_t count) {
  if (count >= 16) return 0xffff;
  return count <= 0 ? 0 : static_cast<__mmask16>((1u << count) - 1);
}

#define DODUO_SIMD_PRAGMA(text) _Pragma(#text)
#if defined(__clang__)
#define DODUO_SIMD_BEGIN(isa)                                       \
  DODUO_SIMD_PRAGMA(clang attribute push(__attribute__((target(isa))), \
                                         apply_to = function))
#define DODUO_SIMD_END DODUO_SIMD_PRAGMA(clang attribute pop)
#else
#define DODUO_SIMD_BEGIN(isa) \
  DODUO_SIMD_PRAGMA(GCC push_options) DODUO_SIMD_PRAGMA(GCC target(isa))
#define DODUO_SIMD_END DODUO_SIMD_PRAGMA(GCC pop_options)
#endif

#define DODUO_SIMD_INLINE static inline __attribute__((always_inline))

// ---------------------------------------------------------------------------
// 256 bits: eight float lanes, four double lanes. A mask is a vector whose
// lanes are all ones or all zeros.

DODUO_SIMD_BEGIN("avx2")
namespace simd::avx2 {

struct V {
  static constexpr int kLanes = 8;
  /// Rows per column block: one row per double lane (LoadColumns), and the
  /// rows of one softmax/attention block.
  static constexpr int kRows = 4;
  /// Registers per column band of P·V: kRows × kPvBands accumulators.
  static constexpr int kPvBands = 2;
  using F = __m256;
  using I = __m256i;
  using M = __m256i;
  using D = __m256d;

  DODUO_SIMD_INLINE F Load(const float* p) { return _mm256_loadu_ps(p); }
  DODUO_SIMD_INLINE void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  /// Lanes [0, count), all of them from count 8 on; count >= 1.
  DODUO_SIMD_INLINE M TailMask(int64_t count) {
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(count < 8 ? count : 8)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  /// The lanes in m; the others read 0.
  DODUO_SIMD_INLINE F LoadTail(const float* p, M m) {
    return _mm256_maskload_ps(p, m);
  }
  DODUO_SIMD_INLINE void StoreTail(float* p, M m, F v) {
    _mm256_maskstore_ps(p, m, v);
  }
  DODUO_SIMD_INLINE M AllLanes() { return _mm256_set1_epi32(-1); }

  DODUO_SIMD_INLINE F Set1(float v) { return _mm256_set1_ps(v); }
  DODUO_SIMD_INLINE I Set1I(int32_t v) { return _mm256_set1_epi32(v); }
  DODUO_SIMD_INLINE I AsInts(F v) { return _mm256_castps_si256(v); }
  DODUO_SIMD_INLINE F AsFloats(I v) { return _mm256_castsi256_ps(v); }

  DODUO_SIMD_INLINE F Add(F a, F b) { return _mm256_add_ps(a, b); }
  DODUO_SIMD_INLINE F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  DODUO_SIMD_INLINE F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  DODUO_SIMD_INLINE F Div(F a, F b) { return _mm256_div_ps(a, b); }
  DODUO_SIMD_INLINE F And(F a, F b) { return _mm256_and_ps(a, b); }
  DODUO_SIMD_INLINE F Xor(F a, F b) { return _mm256_xor_ps(a, b); }
  /// maxps: b when either lane is NaN.
  DODUO_SIMD_INLINE F Max(F a, F b) { return _mm256_max_ps(a, b); }
  /// The horizontal max as a halving tree (high half against low half).
  DODUO_SIMD_INLINE float ReduceMax(F v) {
    __m128 m4 =
        _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    return _mm_cvtss_f32(m4);
  }

  // 32-bit integer lanes.
  DODUO_SIMD_INLINE I And(I a, I b) { return _mm256_and_si256(a, b); }
  DODUO_SIMD_INLINE I Add(I a, I b) { return _mm256_add_epi32(a, b); }
  DODUO_SIMD_INLINE I Sub(I a, I b) { return _mm256_sub_epi32(a, b); }
  template <int kBits>
  DODUO_SIMD_INLINE I Slli(I v) {
    return _mm256_slli_epi32(v, kBits);
  }
  DODUO_SIMD_INLINE I Srlv(I v, I bits) { return _mm256_srlv_epi32(v, bits); }
  /// float → int32, truncating; int32 → float, rounding to nearest.
  DODUO_SIMD_INLINE I Cvtt(F v) { return _mm256_cvttps_epi32(v); }
  DODUO_SIMD_INLINE F Cvt(I v) { return _mm256_cvtepi32_ps(v); }

  // Signed 32-bit compares, ordered float compares (false where either
  // lane is NaN), and lane selection by mask.
  DODUO_SIMD_INLINE M CmpGt(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  DODUO_SIMD_INLINE M CmpEq(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  DODUO_SIMD_INLINE M CmpLt(F a, F b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LT_OQ));
  }
  DODUO_SIMD_INLINE M CmpLe(F a, F b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LE_OQ));
  }
  /// b in the lanes of m, a elsewhere.
  DODUO_SIMD_INLINE F Select(M m, F a, F b) {
    return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(m));
  }
  /// v in the lanes of m, 0 elsewhere.
  DODUO_SIMD_INLINE F KeepIf(M m, F v) {
    return _mm256_and_ps(_mm256_castsi256_ps(m), v);
  }
  /// 0 in the lanes of m, v elsewhere.
  DODUO_SIMD_INLINE I ZeroIf(M m, I v) { return _mm256_andnot_si256(m, v); }
  DODUO_SIMD_INLINE F ZeroIf(M m, F v) {
    return _mm256_andnot_ps(_mm256_castsi256_ps(m), v);
  }
  DODUO_SIMD_INLINE M MaskAnd(M a, M b) { return _mm256_and_si256(a, b); }
  /// (not a) and b.
  DODUO_SIMD_INLINE M MaskAndNot(M a, M b) {
    return _mm256_andnot_si256(a, b);
  }
  DODUO_SIMD_INLINE M MaskOr(M a, M b) { return _mm256_or_si256(a, b); }
  DODUO_SIMD_INLINE bool Any(M m) { return _mm256_testz_si256(m, m) == 0; }
  /// Bit l set where lane l is in m.
  DODUO_SIMD_INLINE unsigned MaskBits(M m) {
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
  }
  DODUO_SIMD_INLINE bool All(M m) { return MaskBits(m) == 0xffu; }

  // Doubles.
  DODUO_SIMD_INLINE D ZeroD() { return _mm256_setzero_pd(); }
  DODUO_SIMD_INLINE D Set1D(double v) { return _mm256_set1_pd(v); }
  DODUO_SIMD_INLINE D LoadD(const double* p) { return _mm256_loadu_pd(p); }
  DODUO_SIMD_INLINE void StoreD(double* p, D v) { _mm256_storeu_pd(p, v); }
  /// The lanes of v rounded to float, to p[0, kRows).
  DODUO_SIMD_INLINE void StoreAsFloats(float* p, D v) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  DODUO_SIMD_INLINE D Add(D a, D b) { return _mm256_add_pd(a, b); }
  DODUO_SIMD_INLINE D Sub(D a, D b) { return _mm256_sub_pd(a, b); }
  DODUO_SIMD_INLINE D Mul(D a, D b) { return _mm256_mul_pd(a, b); }
  DODUO_SIMD_INLINE D Div(D a, D b) { return _mm256_div_pd(a, b); }
  DODUO_SIMD_INLINE D Sqrt(D v) { return _mm256_sqrt_pd(v); }
  /// The low and the high kLanes / 2 lanes of v as doubles, and back.
  DODUO_SIMD_INLINE D WidenLow(F v) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  }
  DODUO_SIMD_INLINE D WidenHigh(F v) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  }
  DODUO_SIMD_INLINE F Narrow(D low, D high) {
    return _mm256_set_m128(_mm256_cvtpd_ps(high), _mm256_cvtpd_ps(low));
  }

  // 64-bit integer lanes, the bits of D.
  DODUO_SIMD_INLINE I AsInts(D v) { return _mm256_castpd_si256(v); }
  DODUO_SIMD_INLINE D AsDoubles(I v) { return _mm256_castsi256_pd(v); }
  DODUO_SIMD_INLINE I AddI64(I a, I b) { return _mm256_add_epi64(a, b); }
  template <int kBits>
  DODUO_SIMD_INLINE I SlliI64(I v) {
    return _mm256_slli_epi64(v, kBits);
  }

  /// exp's table of 32 64-bit entries (nn/expf.cc) as Lookup32 reads it:
  /// AVX2 gathers from memory.
  using Table32 = const uint64_t*;
  DODUO_SIMD_INLINE Table32 LoadTable32(const uint64_t* table) {
    return table;
  }
  /// Per 64-bit lane: table[index mod 32].
  DODUO_SIMD_INLINE I Lookup32(Table32 table, I index) {
    return _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(table),
        _mm256_and_si256(index, _mm256_set1_epi64x(31)), 8);
  }

  /// Columns j .. j + kRows - 1 of kRows rows, one row per lane:
  /// afterwards lane r of columns[c] is double(rows[r][j + c]). A 4×4
  /// transpose of the rows' floats, then one widening per column.
  DODUO_SIMD_INLINE void LoadColumns(const float* const rows[kRows],
                                     int64_t j, D columns[kRows]) {
    __m128 c0 = _mm_loadu_ps(rows[0] + j);
    __m128 c1 = _mm_loadu_ps(rows[1] + j);
    __m128 c2 = _mm_loadu_ps(rows[2] + j);
    __m128 c3 = _mm_loadu_ps(rows[3] + j);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    columns[0] = _mm256_cvtps_pd(c0);
    columns[1] = _mm256_cvtps_pd(c1);
    columns[2] = _mm256_cvtps_pd(c2);
    columns[3] = _mm256_cvtps_pd(c3);
  }
};

}  // namespace simd::avx2
DODUO_SIMD_END

// The fused multiply-adds of exp (nn/expf_simd.inc), rounded once: a*b + c
// and a*b - c. Defined under "avx2,fma", so no AVX2-only body can call
// them.
DODUO_SIMD_BEGIN("avx2,fma")
namespace simd::avx2 {
struct Fma {
  DODUO_SIMD_INLINE V::D MulAdd(V::D a, V::D b, V::D c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  DODUO_SIMD_INLINE V::D MulSub(V::D a, V::D b, V::D c) {
    return _mm256_fmsub_pd(a, b, c);
  }
};
}  // namespace simd::avx2
DODUO_SIMD_END

// ---------------------------------------------------------------------------
// 512 bits: sixteen float lanes, eight double lanes, and mask registers.
// AVX-512F alone has no float and/xor, so those run on the integer view.

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {

/// 8×8 float transpose in registers: afterwards c[m] holds element m of
/// the eight input rows c[0..7], in row order.
DODUO_SIMD_INLINE void Transpose8x8(__m256 c[8]) {
  __m256 t[8];
  for (int r = 0; r < 8; r += 2) {
    t[r] = _mm256_unpacklo_ps(c[r], c[r + 1]);
    t[r + 1] = _mm256_unpackhi_ps(c[r], c[r + 1]);
  }
  __m256 u[8];
  for (int r = 0; r < 8; r += 4) {
    u[r] = _mm256_shuffle_ps(t[r], t[r + 2], 0x44);
    u[r + 1] = _mm256_shuffle_ps(t[r], t[r + 2], 0xee);
    u[r + 2] = _mm256_shuffle_ps(t[r + 1], t[r + 3], 0x44);
    u[r + 3] = _mm256_shuffle_ps(t[r + 1], t[r + 3], 0xee);
  }
  for (int m = 0; m < 4; ++m) {
    c[m] = _mm256_permute2f128_ps(u[m], u[m + 4], 0x20);
    c[m + 4] = _mm256_permute2f128_ps(u[m], u[m + 4], 0x31);
  }
}

struct V {
  static constexpr int kLanes = 16;
  static constexpr int kRows = 8;
  static constexpr int kPvBands = 1;
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  using D = __m512d;

  DODUO_SIMD_INLINE F Load(const float* p) { return _mm512_loadu_ps(p); }
  DODUO_SIMD_INLINE void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  DODUO_SIMD_INLINE M TailMask(int64_t count) { return LaneMask16(count); }
  DODUO_SIMD_INLINE F LoadTail(const float* p, M m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  DODUO_SIMD_INLINE void StoreTail(float* p, M m, F v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  DODUO_SIMD_INLINE M AllLanes() { return 0xffff; }

  DODUO_SIMD_INLINE F Set1(float v) { return _mm512_set1_ps(v); }
  DODUO_SIMD_INLINE I Set1I(int32_t v) { return _mm512_set1_epi32(v); }
  DODUO_SIMD_INLINE I AsInts(F v) { return _mm512_castps_si512(v); }
  DODUO_SIMD_INLINE F AsFloats(I v) { return _mm512_castsi512_ps(v); }

  DODUO_SIMD_INLINE F Add(F a, F b) { return _mm512_add_ps(a, b); }
  DODUO_SIMD_INLINE F Sub(F a, F b) { return _mm512_sub_ps(a, b); }
  DODUO_SIMD_INLINE F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  DODUO_SIMD_INLINE F Div(F a, F b) { return _mm512_div_ps(a, b); }
  DODUO_SIMD_INLINE F And(F a, F b) {
    return AsFloats(_mm512_and_si512(AsInts(a), AsInts(b)));
  }
  DODUO_SIMD_INLINE F Xor(F a, F b) {
    return AsFloats(_mm512_xor_si512(AsInts(a), AsInts(b)));
  }
  /// maxps: b when either lane is NaN. A full-mask merge, as the plain
  /// intrinsic draws GCC 12's false -Wuninitialized.
  DODUO_SIMD_INLINE F Max(F a, F b) {
    return _mm512_mask_max_ps(b, 0xffff, a, b);
  }
  /// Lanes [8 * kHalf, 8 * kHalf + 8) of v: a zero-masked extract, as the
  /// plain extract and cast draw GCC 12's false -Wuninitialized. Index 0
  /// compiles to no instruction.
  template <int kHalf>
  DODUO_SIMD_INLINE __m256 Half(F v) {
    return _mm256_castpd_ps(
        _mm512_maskz_extractf64x4_pd(0xf, _mm512_castps_pd(v), kHalf));
  }
  /// The horizontal max as _mm512_reduce_max_ps's halving tree.
  DODUO_SIMD_INLINE float ReduceMax(F v) {
    return avx2::V::ReduceMax(_mm256_max_ps(Half<0>(v), Half<1>(v)));
  }

  DODUO_SIMD_INLINE I And(I a, I b) { return _mm512_and_si512(a, b); }
  DODUO_SIMD_INLINE I Add(I a, I b) { return _mm512_add_epi32(a, b); }
  DODUO_SIMD_INLINE I Sub(I a, I b) { return _mm512_sub_epi32(a, b); }
  template <int kBits>
  DODUO_SIMD_INLINE I Slli(I v) {
    return _mm512_slli_epi32(v, kBits);
  }
  DODUO_SIMD_INLINE I Srlv(I v, I bits) { return _mm512_srlv_epi32(v, bits); }
  DODUO_SIMD_INLINE I Cvtt(F v) { return _mm512_cvttps_epi32(v); }
  DODUO_SIMD_INLINE F Cvt(I v) { return _mm512_cvtepi32_ps(v); }

  DODUO_SIMD_INLINE M CmpGt(I a, I b) { return _mm512_cmpgt_epi32_mask(a, b); }
  DODUO_SIMD_INLINE M CmpEq(I a, I b) { return _mm512_cmpeq_epi32_mask(a, b); }
  DODUO_SIMD_INLINE M CmpLt(F a, F b) {
    return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ);
  }
  DODUO_SIMD_INLINE M CmpLe(F a, F b) {
    return _mm512_cmp_ps_mask(a, b, _CMP_LE_OQ);
  }
  DODUO_SIMD_INLINE F Select(M m, F a, F b) {
    return _mm512_mask_blend_ps(m, a, b);
  }
  DODUO_SIMD_INLINE F KeepIf(M m, F v) { return _mm512_maskz_mov_ps(m, v); }
  DODUO_SIMD_INLINE I ZeroIf(M m, I v) {
    return _mm512_maskz_mov_epi32(_mm512_knot(m), v);
  }
  DODUO_SIMD_INLINE F ZeroIf(M m, F v) {
    return _mm512_maskz_mov_ps(_mm512_knot(m), v);
  }
  DODUO_SIMD_INLINE M MaskAnd(M a, M b) { return _mm512_kand(a, b); }
  DODUO_SIMD_INLINE M MaskAndNot(M a, M b) { return _mm512_kandn(a, b); }
  DODUO_SIMD_INLINE M MaskOr(M a, M b) { return _mm512_kor(a, b); }
  DODUO_SIMD_INLINE bool Any(M m) { return m != 0; }
  DODUO_SIMD_INLINE unsigned MaskBits(M m) { return m; }
  DODUO_SIMD_INLINE bool All(M m) { return m == 0xffff; }

  DODUO_SIMD_INLINE D ZeroD() { return _mm512_setzero_pd(); }
  DODUO_SIMD_INLINE D Set1D(double v) { return _mm512_set1_pd(v); }
  DODUO_SIMD_INLINE D LoadD(const double* p) { return _mm512_loadu_pd(p); }
  DODUO_SIMD_INLINE void StoreD(double* p, D v) { _mm512_storeu_pd(p, v); }
  DODUO_SIMD_INLINE void StoreAsFloats(float* p, D v) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(v));
  }
  DODUO_SIMD_INLINE D Add(D a, D b) { return _mm512_add_pd(a, b); }
  DODUO_SIMD_INLINE D Sub(D a, D b) { return _mm512_sub_pd(a, b); }
  DODUO_SIMD_INLINE D Mul(D a, D b) { return _mm512_mul_pd(a, b); }
  DODUO_SIMD_INLINE D Div(D a, D b) { return _mm512_div_pd(a, b); }
  DODUO_SIMD_INLINE D Sqrt(D v) { return _mm512_sqrt_pd(v); }
  DODUO_SIMD_INLINE D WidenLow(F v) { return _mm512_cvtps_pd(Half<0>(v)); }
  DODUO_SIMD_INLINE D WidenHigh(F v) { return _mm512_cvtps_pd(Half<1>(v)); }
  DODUO_SIMD_INLINE F Narrow(D low, D high) {
    const __m256d low_floats = _mm256_castps_pd(_mm512_cvtpd_ps(low));
    const __m256d high_floats = _mm256_castps_pd(_mm512_cvtpd_ps(high));
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castpd256_pd512(low_floats), high_floats, 1));
  }

  DODUO_SIMD_INLINE I AsInts(D v) { return _mm512_castpd_si512(v); }
  DODUO_SIMD_INLINE D AsDoubles(I v) { return _mm512_castsi512_pd(v); }
  DODUO_SIMD_INLINE I AddI64(I a, I b) { return _mm512_add_epi64(a, b); }
  template <int kBits>
  DODUO_SIMD_INLINE I SlliI64(I v) {
    return _mm512_slli_epi64(v, kBits);
  }

  /// The table in four registers, loaded once per row call, where two
  /// permutex2var read entries 0-15 and 16-31 by index bits 0-3 and a
  /// blend on bit 4 picks between them, with no gather.
  struct Table32 {
    D quarter[4];
  };
  DODUO_SIMD_INLINE Table32 LoadTable32(const uint64_t* table) {
    Table32 registers;
    for (int q = 0; q < 4; ++q) {
      registers.quarter[q] = _mm512_loadu_pd(table + 8 * q);
    }
    return registers;
  }
  DODUO_SIMD_INLINE I Lookup32(const Table32& table, I index) {
    const D low = _mm512_permutex2var_pd(table.quarter[0], index,
                                         table.quarter[1]);
    const D high = _mm512_permutex2var_pd(table.quarter[2], index,
                                          table.quarter[3]);
    const __mmask8 upper = _mm512_test_epi64_mask(index, _mm512_set1_epi64(16));
    return _mm512_castpd_si512(_mm512_mask_blend_pd(upper, low, high));
  }

  /// Avx2's LoadColumns on eight rows, through an 8×8 transpose.
  DODUO_SIMD_INLINE void LoadColumns(const float* const rows[kRows],
                                     int64_t j, D columns[kRows]) {
    __m256 c[8];
    for (int r = 0; r < 8; ++r) c[r] = _mm256_loadu_ps(rows[r] + j);
    Transpose8x8(c);
    for (int m = 0; m < 8; ++m) columns[m] = _mm512_cvtps_pd(c[m]);
  }
};

/// avx2::Fma on eight doubles; AVX-512F has the fused ops.
struct Fma {
  DODUO_SIMD_INLINE V::D MulAdd(V::D a, V::D b, V::D c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  DODUO_SIMD_INLINE V::D MulSub(V::D a, V::D b, V::D c) {
    return _mm512_fmsub_pd(a, b, c);
  }
};

}  // namespace simd::avx512
DODUO_SIMD_END

// ---------------------------------------------------------------------------
// Helpers written once over V, built once per width.

DODUO_SIMD_BEGIN("avx2")
namespace simd::avx2 {
#include "doduo/nn/simd_rows.inc"
}  // namespace simd::avx2
DODUO_SIMD_END

DODUO_SIMD_BEGIN("avx512f")
namespace simd::avx512 {
#include "doduo/nn/simd_rows.inc"
}  // namespace simd::avx512
DODUO_SIMD_END

#endif  // DODUO_X86_SIMD

}  // namespace doduo::nn

#endif  // DODUO_NN_SIMD_H_
