#include "doduo/transformer/block.h"

#include "doduo/nn/ops.h"

namespace doduo::transformer {

namespace {

// Workspace slots.
enum WsSlot : size_t {
  kKeptInput = 0,  // kept rows of x, the first residual's skip input [n, d]
  kFfnAct,         // gelu(W1·h + b1) [rows, ffn_dim]
  kFfnGradPre,     // d(loss)/d(W1·h + b1) [seq, ffn_dim]
};

}  // namespace

TransformerBlock::TransformerBlock(const std::string& name,
                                   const TransformerConfig& config,
                                   util::Rng* rng)
    : attention_(name + ".attn", config, rng),
      attention_dropout_(config.dropout, rng),
      attention_norm_(name + ".attn_norm", config.hidden_dim),
      ffn_in_(name + ".ffn_in", config.hidden_dim, config.ffn_dim, rng),
      ffn_out_(name + ".ffn_out", config.ffn_dim, config.hidden_dim, rng),
      ffn_dropout_(config.dropout, rng),
      ffn_norm_(name + ".ffn_norm", config.hidden_dim) {}

const nn::Tensor& TransformerBlock::Forward(
    const nn::Tensor& x, const AttentionMask* mask,
    std::span<const int64_t> kept_rows) {
  const nn::Tensor& attn = attention_.Forward(x, mask, kept_rows);
  const nn::Tensor& attn_dropped = attention_dropout_.Forward(attn);
  // From here on every op computes a row from that row alone, so the kept
  // rows run on their own: the skip input is gathered to match.
  kept_rows_forward_ = !kept_rows.empty();
  const nn::Tensor* skip = &x;
  if (kept_rows_forward_) {
    nn::Tensor& kept_input = ws_.Get(
        kKeptInput, {static_cast<int64_t>(kept_rows.size()), x.cols()});
    nn::GatherRows(nn::FullView(x), kept_rows, &kept_input);
    skip = &kept_input;
  }
  nn::Add(*skip, attn_dropped, &residual1_);
  const nn::Tensor& hidden = attention_norm_.Forward(residual1_);

  // W1·h, then bias add + GELU in one epilogue pass; the biased
  // pre-activation stays in ffn_in_'s output for GeluBackward.
  nn::Tensor& pre = ffn_in_.ForwardNoBias(hidden);
  nn::Tensor& act = ws_.Get(kFfnAct, pre.shape());
  nn::BiasGeluForward(&pre, ffn_in_.bias().value, &act);
  ffn_pre_ = &pre;
  const nn::Tensor& ffn_projected = ffn_out_.Forward(act);
  const nn::Tensor& ffn_dropped = ffn_dropout_.Forward(ffn_projected);
  nn::Add(hidden, ffn_dropped, &residual2_);
  return ffn_norm_.Forward(residual2_);
}

const nn::Tensor& TransformerBlock::Backward(const nn::Tensor& grad_out) {
  DODUO_CHECK(!kept_rows_forward_)
      << "Backward after a kept-rows forward: only the kept rows were "
         "computed, so there is nothing to differentiate";
  // Through the second LayerNorm; the residual splits the gradient into the
  // FFN branch and the skip connection.
  const nn::Tensor& d_residual2 = ffn_norm_.Backward(grad_out);
  const nn::Tensor& d_ffn_dropped = ffn_dropout_.Backward(d_residual2);
  const nn::Tensor& d_ffn_activated = ffn_out_.Backward(d_ffn_dropped);
  DODUO_CHECK(ffn_pre_ != nullptr) << "Backward before Forward";
  nn::Tensor& d_ffn_pre = ws_.Get(kFfnGradPre, d_ffn_activated.shape());
  nn::GeluBackward(*ffn_pre_, d_ffn_activated, &d_ffn_pre);
  // FFN branch + skip path.
  nn::Add(ffn_in_.Backward(d_ffn_pre), d_residual2, &grad_hidden_);

  const nn::Tensor& d_residual1 = attention_norm_.Backward(grad_hidden_);
  const nn::Tensor& d_attn_dropped = attention_dropout_.Backward(d_residual1);
  // Attention branch + skip path.
  nn::Add(attention_.Backward(d_attn_dropped), d_residual1, &grad_input_);
  return grad_input_;
}

nn::ParameterList TransformerBlock::Parameters() {
  nn::ParameterList params;
  nn::AppendParameters(attention_.Parameters(), &params);
  nn::AppendParameters(attention_norm_.Parameters(), &params);
  nn::AppendParameters(ffn_in_.Parameters(), &params);
  nn::AppendParameters(ffn_out_.Parameters(), &params);
  nn::AppendParameters(ffn_norm_.Parameters(), &params);
  return params;
}

void TransformerBlock::set_training(bool training) {
  attention_dropout_.set_training(training);
  ffn_dropout_.set_training(training);
}

}  // namespace doduo::transformer
