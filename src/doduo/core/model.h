#ifndef DODUO_CORE_MODEL_H_
#define DODUO_CORE_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "doduo/core/config.h"
#include "doduo/nn/activations.h"
#include "doduo/nn/linear.h"
#include "doduo/table/serializer.h"
#include "doduo/transformer/bert.h"

namespace doduo::core {

/// A two-layer classification head: Linear(in → hidden) + tanh +
/// Linear(hidden → out). Used for both the column-type head (in = d) and
/// the column-relation head (in = 2d), per Section 4.3.
class MlpHead {
 public:
  MlpHead(const std::string& name, int64_t in_dim, int64_t hidden_dim,
          int64_t out_dim, util::Rng* rng);

  const nn::Tensor& Forward(const nn::Tensor& x);
  const nn::Tensor& Backward(const nn::Tensor& grad_out);
  nn::ParameterList Parameters();

 private:
  nn::Linear dense_;
  nn::TanhLayer activation_;
  nn::Linear output_;
};

/// Builds an additive attention mask for a serialized table, or an empty
/// tensor for full attention. The TURL baseline plugs its visibility
/// matrix in here; DODUO itself uses full self-attention.
using AttentionMaskBuilder =
    std::function<transformer::AttentionMask(const table::SerializedTable&)>;

/// The DODUO model: a shared Transformer encoder with a column-type head
/// over each column's [CLS] embedding and a column-relation head over
/// concatenated pairs of [CLS] embeddings (Figure 1 of the paper).
///
/// The heads read only the final-layer [CLS] rows, so in eval mode
/// (set_training(false)) the encoder runs a kept-rows forward: its last
/// block computes those rows alone, bit-identical to the full forward's
/// rows (DESIGN.md §9). Training mode runs the full forward that Backward
/// differentiates; a Backward after an eval-mode forward CHECK-fails.
class DoduoModel {
 public:
  /// `rng` draws the initial weights. nullptr skips the draws: every weight
  /// starts at zero (LayerNorm gains at one) and dropout cannot train, for
  /// a model whose weights are loaded or adopted next (LoadModelDir,
  /// ReplicaPool), where drawing them would be most of the set-up cost.
  DoduoModel(const DoduoConfig& config, util::Rng* rng);

  // -- Forward passes -------------------------------------------------------

  /// Encodes a serialized table and returns the per-column type logits
  /// [num_columns, num_types]. Caches state for BackwardTypes.
  const nn::Tensor& ForwardTypes(const table::SerializedTable& input);

  /// Encodes a serialized table and returns relation logits
  /// [pairs.size(), num_relations] for the given (column, column) index
  /// pairs. Caches state for BackwardRelations.
  const nn::Tensor& ForwardRelations(
      const table::SerializedTable& input,
      const std::vector<std::pair<int, int>>& pairs);

  // -- Backward passes ------------------------------------------------------

  /// grad_logits from the type loss; propagates through head and encoder.
  void BackwardTypes(const nn::Tensor& grad_logits);

  /// grad_logits from the relation loss.
  void BackwardRelations(const nn::Tensor& grad_logits);

  // -- Inference helpers ----------------------------------------------------

  /// Contextualized column embeddings [num_columns, hidden] of a serialized
  /// table (the case-study representation). Eval mode only (checked).
  nn::Tensor ColumnEmbeddings(const table::SerializedTable& input);

  /// [CLS]→[CLS] attention of the last encoder layer, averaged over heads:
  /// [num_columns, num_columns]. Runs its own forward pass on `input`
  /// (used by the Figure 6 analysis). Eval mode only (checked).
  nn::Tensor ColumnAttention(const table::SerializedTable& input);

  // -- Plumbing -------------------------------------------------------------

  nn::ParameterList Parameters();
  void set_training(bool training) { encoder_.set_training(training); }
  const DoduoConfig& config() const { return config_; }

  /// Installs the temperature fit by core/calibration.h (> 0). Stored on
  /// the config so SaveModelDir persists it with the checkpoint.
  void set_calibration_temperature(double temperature) {
    config_.calibration_temperature = temperature;
  }
  transformer::BertModel* encoder() { return &encoder_; }

  /// Installs a visibility-mask builder (TURL baseline); nullptr restores
  /// full attention.
  void set_mask_builder(AttentionMaskBuilder builder) {
    mask_builder_ = std::move(builder);
  }
  const AttentionMaskBuilder& mask_builder() const { return mask_builder_; }

  /// Snapshots / restores all parameter values (best-checkpoint selection).
  /// Restoring copies the snapshot into owned storage, so the model stays
  /// (or, after AdoptWeights, becomes again) trainable.
  std::vector<nn::Tensor> SnapshotWeights();
  void RestoreWeights(const std::vector<nn::Tensor>& snapshot);

  /// Points this model's parameters at `snapshot` without copying any
  /// floats (nn::Tensor::Borrowed): the model becomes an inference-only
  /// replica sharing the snapshot's physical storage — the zero-copy half
  /// of DESIGN §14. The snapshot is pinned by each adopted parameter, so it
  /// may outlive the caller's reference. The gradient buffers are released
  /// (Backward aborts until RestoreWeights re-owns the weights).
  void AdoptWeights(std::shared_ptr<const std::vector<nn::Tensor>> snapshot);

 private:
  /// Encodes `input` and returns its columns' final [CLS] rows [n, d].
  const nn::Tensor& EncodeColumns(const table::SerializedTable& input);

  DoduoConfig config_;
  transformer::BertModel encoder_;
  MlpHead type_head_;
  std::unique_ptr<MlpHead> relation_head_;  // null when num_relations == 0
  AttentionMaskBuilder mask_builder_;

  // Caches of the last forward.
  std::vector<int64_t> cls_positions_;
  std::vector<std::pair<int, int>> pairs_;
  int64_t sequence_length_ = 0;
  nn::Tensor cls_embeddings_;   // [n, d] rows gathered in training mode
  nn::Tensor pair_embeddings_;  // [p, 2d]
  nn::Tensor grad_hidden_;      // scatter buffer [s, d]
};

}  // namespace doduo::core

#endif  // DODUO_CORE_MODEL_H_
