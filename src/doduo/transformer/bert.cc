#include "doduo/transformer/bert.h"

#include "doduo/nn/ops.h"

namespace doduo::transformer {

BertModel::BertModel(const std::string& name,
                     const TransformerConfig& config, util::Rng* rng)
    : config_(config),
      token_embedding_(name + ".tok_emb", config.vocab_size,
                       config.hidden_dim, rng),
      position_embedding_(name + ".pos_emb", config.max_positions,
                          config.hidden_dim, rng),
      embedding_norm_(name + ".emb_norm", config.hidden_dim),
      embedding_dropout_(config.dropout, rng),
      encoder_(name + ".encoder", config, rng) {
  config_.Validate();
  // Position ids are always 0..seq-1, so fill the full 0..max_positions-1
  // ramp once; Forward embeds a prefix of it and never writes it again.
  position_ids_.resize(static_cast<size_t>(config.max_positions));
  for (int i = 0; i < config.max_positions; ++i) position_ids_[i] = i;
}

const nn::Tensor& BertModel::Forward(const std::vector<int>& ids,
                                     const AttentionMask* mask,
                                     std::span<const int64_t> kept_rows) {
  DODUO_CHECK(!ids.empty());
  DODUO_CHECK_LE(static_cast<int>(ids.size()), config_.max_positions)
      << "sequence longer than max_positions";
  const nn::Tensor& tokens = token_embedding_.Forward(ids);
  const nn::Tensor& positions = position_embedding_.Forward(
      std::span<const int>(position_ids_).first(ids.size()));
  nn::Add(tokens, positions, &embedded_);
  const nn::Tensor& normalized = embedding_norm_.Forward(embedded_);
  const nn::Tensor& dropped = embedding_dropout_.Forward(normalized);
  return encoder_.Forward(dropped, mask, kept_rows);
}

void BertModel::Backward(const nn::Tensor& grad_hidden) {
  const nn::Tensor& d_dropped = encoder_.Backward(grad_hidden);
  const nn::Tensor& d_normalized = embedding_dropout_.Backward(d_dropped);
  const nn::Tensor& d_embedded = embedding_norm_.Backward(d_normalized);
  // The sum node fans the same gradient to both embedding tables.
  token_embedding_.Backward(d_embedded);
  position_embedding_.Backward(d_embedded);
}

nn::ParameterList BertModel::Parameters() {
  nn::ParameterList params;
  nn::AppendParameters(token_embedding_.Parameters(), &params);
  nn::AppendParameters(position_embedding_.Parameters(), &params);
  nn::AppendParameters(embedding_norm_.Parameters(), &params);
  nn::AppendParameters(encoder_.Parameters(), &params);
  return params;
}

void BertModel::set_training(bool training) {
  embedding_dropout_.set_training(training);
  encoder_.set_training(training);
}

}  // namespace doduo::transformer
