#ifndef DODUO_NN_OPS_H_
#define DODUO_NN_OPS_H_

#include <span>
#include <vector>

#include "doduo/nn/tensor.h"

namespace doduo::nn {

// Dense linear-algebra kernels used by the layers. All functions write into
// caller-provided outputs (resized as needed) and die on shape mismatches.
//
// --- Strided matrix views -------------------------------------------------
//
// A view describes an [rows, cols] matrix embedded in a larger row-major
// buffer: rows are contiguous runs of `cols` floats, `stride` floats apart.
// The attention path uses them to address per-head column bands of the
// packed QKV buffer directly; a whole tensor is the view with stride ==
// cols.
//
// The GEMMs have one body per shape, written over views: NN (MatMulView,
// x·W), NT (MatMulTransposedBView, dy·Wᵀ) and TN (the panel kernel behind
// MatMulTransposedAView, xᵀ·dy). The tensor entry points are full-view
// calls into the same bodies. Each body is cache-blocked and, above a
// volume threshold, shards output rows across util::ComputePool(). Per-
// element FP operation order is fixed regardless of thread count, so
// results are bit-identical whether DODUO_NUM_THREADS is 1 or N (see
// DESIGN.md §7, §9).

struct ConstMatView {
  const float* data;
  int64_t rows;
  int64_t cols;
  int64_t stride;  // floats between consecutive row starts; >= cols
};

struct MutMatView {
  float* data;
  int64_t rows;
  int64_t cols;
  int64_t stride;
};

/// View of the whole 2-D tensor (stride == cols).
ConstMatView FullView(const Tensor& t);
MutMatView MutFullView(Tensor* t);

/// View of the column band [col_begin, col_begin + cols) of a 2-D tensor.
ConstMatView ColumnsView(const Tensor& t, int64_t col_begin, int64_t cols);
MutMatView MutColumnsView(Tensor* t, int64_t col_begin, int64_t cols);

/// out = a · b for a[m,k], b[k,n]; the out view region is overwritten.
/// Dispatches to the AVX-512 tile where the CPU has it (DODUO_SIMD=0 turns
/// it off) and b is finite, else to the AVX or scalar axpy; all give the
/// same bits.
void MatMulView(ConstMatView a, ConstMatView b, MutMatView out);

/// out = a · b for a[m,k], b[k,n]; out resized to [m,n] and overwritten.
/// MatMulView over the whole tensors.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);

/// One member of the fp32 NN family behind MatMulView. Every member
/// computes the same bits at any thread count, so they are interchangeable.
struct Fp32GemmKernel {
  const char* name;
  /// MatMulView through this kernel.
  void (*matmul)(ConstMatView a, ConstMatView b, MutMatView out);
};

/// Every fp32 GEMM kernel this binary can run on this CPU: "scalar" (the
/// reference, zero-skipping axpy) always, then "avx" (the axpy in 256-bit
/// registers) and "avx512" (the register-blocked tile, or the avx axpy when
/// B holds inf/NaN) when the CPU has them — for the cross-kernel
/// bit-equality tests and the per-kernel benches. Unlike MatMulView, the
/// list ignores DODUO_SIMD.
std::vector<Fp32GemmKernel> Fp32GemmKernels();

/// out = a · bᵀ for a[m,k], b[n,k]; out resized to [m,n] (contiguous).
/// The 4-accumulator dot of Dot() per element.
void MatMulTransposedBView(ConstMatView a, ConstMatView b, Tensor* out);

/// out = a · bᵀ for a[m,k], b[n,k]; out resized to [m,n].
/// MatMulTransposedBView over the whole tensors.
void MatMulTransposedB(const Tensor& a, const Tensor& b, Tensor* out);

/// out = aᵀ · b for a[k,m], b[k,n]; the out view region is overwritten.
void MatMulTransposedAView(ConstMatView a, ConstMatView b, MutMatView out);

/// out += aᵀ · b for a[k,m], b[k,n]; out must already be [m,n]. The same
/// panel kernel as MatMulTransposedAView, accumulating into out.
void MatMulTransposedAAccum(const Tensor& a, const Tensor& b, Tensor* out);

/// out = a + b, elementwise; shapes must match.
void Add(const Tensor& a, const Tensor& b, Tensor* out);

/// a += b, elementwise.
void AddInPlace(Tensor* a, const Tensor& b);

/// a *= scale.
void Scale(Tensor* a, float scale);

/// Adds the 1-D `bias` (length n) to every row of the 2-D `a` [m,n].
void AddRowBroadcast(Tensor* a, const Tensor& bias);

/// out[j] += sum over rows i of a[i,j], for a[m,n] and 1-D out[n].
void ColumnSumAccum(const Tensor& a, Tensor* out);

/// out row r = src row rows[r]: out resized to [rows.size(), src.cols]
/// (contiguous) and overwritten. Rows may come in any order.
void GatherRows(ConstMatView src, std::span<const int64_t> rows, Tensor* out);

/// Row-wise softmax of a 2-D tensor, numerically stabilized, with
/// nn::Expf as its exp. Non-finite rows depend only on their values: any
/// NaN logit gives an all-NaN row; otherwise +inf logits share the mass
/// evenly (every other position gets 0), and a row of all -inf logits
/// (fully masked) is uniform.
void SoftmaxRows(const Tensor& logits, Tensor* probs);

/// Fused scale→additive-mask→softmax over rows: probs = softmax(logits *
/// scale + mask), computed in a single kernel (max, exp, normalize) instead
/// of three passes over the score matrix. `mask` may be nullptr; `probs` may
/// alias `logits` (the attention path runs it in place on the score buffer).
/// Bit-identical to Scale + AddInPlace + SoftmaxRows at any thread count,
/// SIMD or scalar; rows are sharded across the compute pool above the
/// parallel threshold. Non-finite rows as in SoftmaxRows.
void ScaleMaskSoftmaxRows(const Tensor& logits, float scale,
                          const Tensor* mask, Tensor* probs);

/// One attention head at inference: probs = softmax(scale · q·kᵀ + mask)
/// and ctx = probs · v, for m query rows q [m, hd] over s keys k, v
/// [s, hd] (views), an optional [m, s] additive mask, probs resized to
/// [m, s] and ctx [m, hd] overwritten. Bit-identical to
/// MatMulTransposedBView → ScaleMaskSoftmaxRows → MatMulView (the scalar
/// reference it runs under DODUO_SIMD=0 and for hd not a multiple of 8) at
/// any thread count. Every query row is computed from that row, k and v
/// alone, so a subset of the queries (m < s: the kept rows of a last
/// encoder block) gets the same bits as the same rows of the m = s call.
/// With AVX-512F it runs per block of eight query rows, with AVX2 and FMA
/// per block of four: register-blocked q·kᵀ over a packed kᵀ (`kt`,
/// resized to [hd, s rounded up to the register's lanes]), the softmax
/// twin, then P·V in registers (DESIGN.md §9).
void AttentionHeadForward(ConstMatView q, ConstMatView k, ConstMatView v,
                          float scale, const Tensor* mask, Tensor* kt,
                          Tensor* probs, MutMatView ctx);

/// One member of the softmax/attention family behind ScaleMaskSoftmaxRows
/// and AttentionHeadForward, one ISA end to end (its exp included). Every
/// member computes the same bits at any thread count.
struct AttentionKernel {
  const char* name;
  /// ScaleMaskSoftmaxRows through this member.
  void (*softmax)(const Tensor& logits, float scale, const Tensor* mask,
                  Tensor* probs);
  /// AttentionHeadForward through this member.
  void (*head)(ConstMatView q, ConstMatView k, ConstMatView v, float scale,
               const Tensor* mask, Tensor* kt, Tensor* probs, MutMatView ctx);
};

/// Every softmax/attention member this binary can run on this CPU:
/// "scalar" (the reference) always, then "avx2" (AVX2 + FMA) and "avx512"
/// where the CPU has them — for the cross-kernel bit-equality tests and
/// the per-kernel benches. Unlike the entry points, the list ignores
/// DODUO_SIMD.
std::vector<AttentionKernel> AttentionKernels();

/// Backward of row-wise softmax: given probs p and upstream grad dy,
/// dx_i = p_i * (dy_i - sum_j dy_j p_j), computed per row.
void SoftmaxRowsBackward(const Tensor& probs, const Tensor& grad_out,
                         Tensor* grad_in);

/// Row-wise log-softmax of a 2-D tensor.
void LogSoftmaxRows(const Tensor& logits, Tensor* log_probs);

/// Dot product of two equal-length 1-D float spans.
float Dot(const float* a, const float* b, int64_t n);

}  // namespace doduo::nn

#endif  // DODUO_NN_OPS_H_
