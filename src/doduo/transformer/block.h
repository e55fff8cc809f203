#ifndef DODUO_TRANSFORMER_BLOCK_H_
#define DODUO_TRANSFORMER_BLOCK_H_

#include <span>
#include <string>

#include "doduo/nn/activations.h"
#include "doduo/nn/dropout.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/nn/linear.h"
#include "doduo/nn/workspace.h"
#include "doduo/transformer/attention.h"
#include "doduo/transformer/config.h"

namespace doduo::transformer {

/// One post-LN Transformer block (BERT layout):
///   h  = LayerNorm(x + Dropout(SelfAttention(x)))
///   y  = LayerNorm(h + Dropout(W2·GELU(W1·h)))
///
/// The FFN's bias add and GELU run as one epilogue pass over W1·h
/// (BiasGeluForward) with the activation buffer in a per-block workspace;
/// attention runs its per-head kernel. Allocation-free at steady state.
class TransformerBlock {
 public:
  TransformerBlock(const std::string& name, const TransformerConfig& config,
                   util::Rng* rng);

  /// x: [seq, d] → [seq, d]. With non-empty `kept_rows` (the kept-rows
  /// forward) → [kept_rows.size(), d]: the packed QKV GEMM still runs over
  /// every row, since keys and values need them all, but attention, the
  /// out-projection, both LayerNorms and the FFN run on the kept rows
  /// only, and row r is bit-identical to row kept_rows[r] of the full
  /// forward. Backward is refused after it.
  const nn::Tensor& Forward(const nn::Tensor& x, const AttentionMask* mask,
                            std::span<const int64_t> kept_rows = {});

  /// grad_out: [seq, d] → d(loss)/dx [seq, d].
  const nn::Tensor& Backward(const nn::Tensor& grad_out);

  nn::ParameterList Parameters();

  void set_training(bool training);

  /// Attention probabilities of the last Forward (per head): [seq, seq],
  /// or [kept rows, seq] after a kept-rows forward.
  const std::vector<nn::Tensor>& attention_probs() const {
    return attention_.attention_probs();
  }

 private:
  MultiHeadSelfAttention attention_;
  nn::Dropout attention_dropout_;
  nn::LayerNorm attention_norm_;
  nn::Linear ffn_in_;
  nn::Linear ffn_out_;
  nn::Dropout ffn_dropout_;
  nn::LayerNorm ffn_norm_;

  const nn::Tensor* ffn_pre_ = nullptr;  // biased pre-activation
  bool kept_rows_forward_ = false;

  nn::Tensor residual1_;  // x + dropout(attn(x))
  nn::Tensor residual2_;  // h + dropout(ffn(h))
  nn::Tensor grad_hidden_;
  nn::Tensor grad_input_;
  nn::Workspace ws_;  // kept input rows, FFN activation + gradient scratch
};

}  // namespace doduo::transformer

#endif  // DODUO_TRANSFORMER_BLOCK_H_
