#ifndef DODUO_TRANSFORMER_ATTENTION_H_
#define DODUO_TRANSFORMER_ATTENTION_H_

#include <span>
#include <string>
#include <vector>

#include "doduo/nn/linear.h"
#include "doduo/nn/tensor.h"
#include "doduo/nn/workspace.h"
#include "doduo/transformer/config.h"
#include "doduo/util/rng.h"

namespace doduo::transformer {

/// Additive attention mask: 0 where attention is allowed, a large negative
/// value where it is forbidden. Shape [seq, seq]; element (i, j) applies to
/// query position i attending to key position j.
///
/// DODUO uses full self-attention (no mask); the TURL baseline supplies a
/// visibility matrix here (see baselines/turl.h).
using AttentionMask = nn::Tensor;

/// Value used for masked-out attention logits.
inline constexpr float kAttentionMaskValue = -1e9f;

/// Multi-head scaled-dot-product self-attention with explicit backward.
///
/// Q, K and V come from a single packed projection wqkv [d, 3d] (one GEMM
/// instead of three); per-head work addresses column bands of the packed
/// [seq, 3d] buffer through strided views. Each head's forward is one
/// nn::AttentionHeadForward call: q·kᵀ, scale, mask, softmax and P·V, with
/// an AVX2 twin that is bit-identical to its view-GEMM reference (DESIGN.md
/// §9; tests/transformer/attention_oracle.h keeps the pre-fusion copy-based
/// implementation as a test oracle). Steady-state Forward/Backward perform
/// zero heap allocations: all scratch lives in a per-layer nn::Workspace.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(const std::string& name,
                         const TransformerConfig& config, util::Rng* rng);

  /// x: [seq, d] → [seq, d]. `mask` is nullptr for full attention, or a
  /// [seq, seq] additive mask.
  ///
  /// Non-empty `kept_rows` (row indices into x) is the kept-rows forward:
  /// K and V still come from every row, but only the kept rows are queried,
  /// so the result is [kept_rows.size(), d], row r bit-identical to row
  /// kept_rows[r] of the full forward (DESIGN.md §9). Backward is refused
  /// after it.
  const nn::Tensor& Forward(const nn::Tensor& x, const AttentionMask* mask,
                            std::span<const int64_t> kept_rows = {});

  /// grad_out: [seq, d] → d(loss)/dx [seq, d]; accumulates projection
  /// gradients.
  const nn::Tensor& Backward(const nn::Tensor& grad_out);

  nn::ParameterList Parameters();

  /// Post-softmax attention probabilities of the last Forward, one tensor
  /// per head (used by the Figure 6 attention analysis): [seq, seq], or
  /// [kept rows, seq] after a kept-rows forward.
  const std::vector<nn::Tensor>& attention_probs() const { return probs_; }

 private:
  int num_heads_;
  int head_dim_;
  nn::Linear wqkv_;  // packed [d, 3d]: Q | K | V column blocks
  nn::Linear wo_;

  // Forward caches. The packed QKV activations live in wqkv_'s output until
  // the next Forward, so only the derived buffers are owned here.
  std::vector<nn::Tensor> probs_;  // per head [queries, seq]
  nn::Tensor context_;             // concatenated head outputs [queries, d]
  const nn::Tensor* qkv_ = nullptr;
  const nn::Tensor* output_ = nullptr;
  bool kept_rows_forward_ = false;

  // Backward accumulator for the packed d(loss)/d(QKV) [seq, 3d]. The
  // input gradient is summed per column band (dQ·Wqᵀ + dK·Wkᵀ + dV·Wvᵀ) to
  // reproduce the split-projection FP order bit-for-bit.
  nn::Tensor grad_qkv_;
  nn::Tensor grad_input_;

  // Per-layer scratch arena (packed Kᵀ per head, the kept rows' queries
  // and mask, softmax gradient buffers); see Workspace for the
  // zero-allocation contract.
  nn::Workspace ws_;
};

}  // namespace doduo::transformer

#endif  // DODUO_TRANSFORMER_ATTENTION_H_
