#include "doduo/transformer/encoder.h"

namespace doduo::transformer {

Encoder::Encoder(const std::string& name, const TransformerConfig& config,
                 util::Rng* rng) {
  blocks_.reserve(static_cast<size_t>(config.num_layers));
  for (int i = 0; i < config.num_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        name + ".block" + std::to_string(i), config, rng));
  }
}

const nn::Tensor& Encoder::Forward(const nn::Tensor& x,
                                   const AttentionMask* mask,
                                   std::span<const int64_t> kept_rows) {
  // Every block but the last feeds keys and values forward, so it needs
  // every row.
  const nn::Tensor* hidden = &x;
  for (size_t b = 0; b + 1 < blocks_.size(); ++b) {
    hidden = &blocks_[b]->Forward(*hidden, mask);
  }
  return blocks_.back()->Forward(*hidden, mask, kept_rows);
}

const nn::Tensor& Encoder::Backward(const nn::Tensor& grad_out) {
  const nn::Tensor* grad = &grad_out;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    grad = &(*it)->Backward(*grad);
  }
  return *grad;
}

nn::ParameterList Encoder::Parameters() {
  nn::ParameterList params;
  for (auto& block : blocks_) {
    nn::AppendParameters(block->Parameters(), &params);
  }
  return params;
}

void Encoder::set_training(bool training) {
  for (auto& block : blocks_) block->set_training(training);
}

const std::vector<nn::Tensor>& Encoder::attention_probs(int layer) const {
  DODUO_CHECK(layer >= 0 && layer < num_layers());
  return blocks_[static_cast<size_t>(layer)]->attention_probs();
}

}  // namespace doduo::transformer
