#ifndef DODUO_TRANSFORMER_BERT_H_
#define DODUO_TRANSFORMER_BERT_H_

#include <span>
#include <string>
#include <vector>

#include "doduo/nn/dropout.h"
#include "doduo/nn/embedding.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/transformer/encoder.h"

namespace doduo::transformer {

/// BERT-style encoder: token embeddings + learned position embeddings →
/// embedding LayerNorm + dropout → Transformer stack. Produces one
/// contextual embedding per input token.
///
/// This is the shared "pre-trained LM" of the reproduction: it is MLM
/// pre-trained once (transformer/mlm.h) and then fine-tuned by the DODUO
/// trainer and the TURL baseline.
class BertModel {
 public:
  BertModel(const std::string& name, const TransformerConfig& config,
            util::Rng* rng);

  /// ids: token ids (size ≤ config.max_positions) → hidden states
  /// [ids.size(), hidden_dim]. Non-empty `kept_rows` runs a kept-rows
  /// forward (Encoder::Forward): hidden states of those positions only,
  /// [kept_rows.size(), hidden_dim], and no Backward after it.
  const nn::Tensor& Forward(const std::vector<int>& ids,
                            const AttentionMask* mask = nullptr,
                            std::span<const int64_t> kept_rows = {});

  /// grad_hidden: [seq, hidden_dim]; propagates into all parameters.
  void Backward(const nn::Tensor& grad_hidden);

  nn::ParameterList Parameters();

  void set_training(bool training);
  bool training() const { return embedding_dropout_.training(); }

  const TransformerConfig& config() const { return config_; }

  /// Context-free ("static") embedding of a token id: its row of the token
  /// embedding table. Plays the role of fastText vectors in the case study.
  const float* StaticEmbedding(int token_id) const {
    return token_embedding_.Row(token_id);
  }

  /// Attention probabilities per head for `layer` from the last Forward:
  /// [seq, seq], except the last layer's after a kept-rows forward,
  /// [kept rows, seq].
  const std::vector<nn::Tensor>& attention_probs(int layer) const {
    return encoder_.attention_probs(layer);
  }

  int num_layers() const { return encoder_.num_layers(); }

 private:
  TransformerConfig config_;
  nn::Embedding token_embedding_;
  nn::Embedding position_embedding_;
  nn::LayerNorm embedding_norm_;
  nn::Dropout embedding_dropout_;
  Encoder encoder_;
  nn::Tensor embedded_;
  std::vector<int> position_ids_;  // 0..max_positions-1, filled in the ctor
};

}  // namespace doduo::transformer

#endif  // DODUO_TRANSFORMER_BERT_H_
