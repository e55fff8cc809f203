#ifndef DODUO_CORE_MODEL_IO_H_
#define DODUO_CORE_MODEL_IO_H_

#include <memory>
#include <string>

#include "doduo/core/annotator.h"
#include "doduo/core/config.h"
#include "doduo/core/model.h"
#include "doduo/table/dataset.h"
#include "doduo/table/serializer.h"
#include "doduo/text/vocab.h"
#include "doduo/text/wordpiece_tokenizer.h"
#include "doduo/util/status.h"

namespace doduo::core {

// Model directory format, shared by doduo_cli (train/annotate/embed) and
// doduo_serve: model.ckpt + vocab.txt + types.txt + relations.txt +
// config.txt (key=value). Relations are optional (types-only models).

/// Everything a loaded model needs, with stable addresses (the tokenizer,
/// model, and serializer point at the sibling members, so LoadedModel is
/// heap-allocated and non-movable once wired up).
struct LoadedModel {
  DoduoConfig config;
  text::Vocab vocab;
  table::LabelVocab types;
  table::LabelVocab relations;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<DoduoModel> model;
  std::unique_ptr<table::TableSerializer> serializer;

  /// The relation vocabulary, or nullptr for a types-only model — the shape
  /// Annotator and ReplicaPool expect.
  const table::LabelVocab* relation_vocab() const {
    return config.num_relations > 0 ? &relations : nullptr;
  }

  /// An annotator over the loaded model. The LoadedModel must outlive it.
  Annotator MakeAnnotator() {
    return Annotator(model.get(), serializer.get(), &types, relation_vocab());
  }
};

/// Loads a saved model directory; the config's dropout is forced to 0
/// (inference only: the fp32 weights borrow the checkpoint's read-only
/// mapping, see nn::LoadParameters). Fails with a precise Status naming the
/// unreadable or corrupt file. Cold-start cost is recorded in util::metrics:
/// histogram "load.checkpoint_us" (checkpoint wall time) plus counters
/// "load.bytes_mapped" / "load.bytes_copied" — visible in doduo_serve
/// --stats.
[[nodiscard]] util::Result<std::unique_ptr<LoadedModel>> LoadModelDir(
    const std::string& dir);

/// How SaveModelDir writes the checkpoint (always the mmap-able format of
/// DESIGN §14, see nn::SaveParameters).
struct SaveModelOptions {
  /// Store Linear weights as int8 + per-channel scales.
  bool quant_int8 = false;
};

/// Saves `model` and its vocabularies as a model directory (creates `dir`).
/// Saving over the directory the model was loaded from is safe: the
/// checkpoint is replaced by a rename, not rewritten in place.
[[nodiscard]] util::Status SaveModelDir(const std::string& dir,
                                        DoduoModel* model,
                                        const text::Vocab& vocab,
                                        const table::LabelVocab& types,
                                        const table::LabelVocab& relations,
                                        const SaveModelOptions& options = {});

}  // namespace doduo::core

#endif  // DODUO_CORE_MODEL_IO_H_
