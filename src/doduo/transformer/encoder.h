#ifndef DODUO_TRANSFORMER_ENCODER_H_
#define DODUO_TRANSFORMER_ENCODER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "doduo/transformer/block.h"

namespace doduo::transformer {

/// A stack of Transformer blocks.
class Encoder {
 public:
  Encoder(const std::string& name, const TransformerConfig& config,
          util::Rng* rng);

  /// x: [seq, d] → [seq, d] through all blocks (same mask at every layer).
  /// Non-empty `kept_rows` makes the last block's forward a kept-rows
  /// forward (TransformerBlock::Forward): the result is
  /// [kept_rows.size(), d], row r bit-identical to row kept_rows[r] of the
  /// full result, and Backward is refused until the next full forward.
  const nn::Tensor& Forward(const nn::Tensor& x, const AttentionMask* mask,
                            std::span<const int64_t> kept_rows = {});

  /// grad_out: [seq, d] → d(loss)/dx.
  const nn::Tensor& Backward(const nn::Tensor& grad_out);

  nn::ParameterList Parameters();

  void set_training(bool training);

  int num_layers() const { return static_cast<int>(blocks_.size()); }

  /// Attention probabilities of layer `layer` from the last Forward, per
  /// head: [seq, seq], except the last layer's after a kept-rows forward,
  /// [kept rows, seq].
  const std::vector<nn::Tensor>& attention_probs(int layer) const;

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

}  // namespace doduo::transformer

#endif  // DODUO_TRANSFORMER_ENCODER_H_
