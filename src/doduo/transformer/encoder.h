#ifndef DODUO_TRANSFORMER_ENCODER_H_
#define DODUO_TRANSFORMER_ENCODER_H_

#include <memory>
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
  const nn::Tensor& Forward(const nn::Tensor& x, const AttentionMask* mask);

  /// grad_out: [seq, d] → d(loss)/dx.
  const nn::Tensor& Backward(const nn::Tensor& grad_out);

  nn::ParameterList Parameters();

  void set_training(bool training);

  int num_layers() const { return static_cast<int>(blocks_.size()); }

  /// Attention probabilities of layer `layer` from the last Forward.
  const std::vector<nn::Tensor>& attention_probs(int layer) const;

 private:
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

}  // namespace doduo::transformer

#endif  // DODUO_TRANSFORMER_ENCODER_H_
