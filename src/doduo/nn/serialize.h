#ifndef DODUO_NN_SERIALIZE_H_
#define DODUO_NN_SERIALIZE_H_

#include <string>

#include "doduo/nn/parameter.h"
#include "doduo/util/status.h"

namespace doduo::nn {

/// Saves the parameters in list order to a binary checkpoint file (the v1
/// stream format). The format records each parameter's name and shape, so a
/// load verifies that the target model has an identical structure.
[[nodiscard]] util::Status SaveParameters(const std::string& path,
                            const ParameterList& params);

/// Options for the v2 writer.
struct SaveV2Options {
  /// Store eligible weights (2-D Linear ".w" matrices) as int8 with a
  /// per-output-channel fp32 scale table instead of raw fp32 — roughly 4×
  /// smaller and pre-quantized for the DODUO_QUANT inference path.
  bool quant_int8 = false;
};

/// Saves the parameters in the v2 checkpoint format (DESIGN §14): a
/// fixed-size little-endian header and table of contents followed by
/// 64-byte-aligned tensor sections, so a loader can mmap the file and point
/// tensors straight into it — no parse, no copy, no gather shim. With
/// `quant_int8`, eligible weights are stored transposed as int8 plus a
/// scale table (see nn/quant.h).
[[nodiscard]] util::Status SaveParametersV2(const std::string& path,
                                            const ParameterList& params,
                                            const SaveV2Options& options = {});

/// Loads a checkpoint written by SaveParameters or SaveParametersV2 into
/// `params`, dispatching on the version field. Entries are matched by name
/// (order-insensitive); shapes must match exactly, every model parameter
/// must be found, and every checkpoint entry must be consumed.
///
/// v1 checkpoints are parsed and copied; one legacy-layout shim applies
/// (pre-packed-QKV "<attn>.wq/.wk/.wv" projections are re-packed into the
/// model's "<attn>.wqkv" parameter). v2 checkpoints are mmap-ed
/// (MAP_SHARED | PROT_READ; DODUO_MMAP=0 falls back to a heap read) and
/// fp32 tensors *borrow* the mapping — every byte extent is validated
/// against the file size before any allocation or dereference. Int8 entries
/// are dequantized into owned fp32 values and additionally attach their
/// zero-copy scale table and the int8 GEMM panels packed from their payload
/// as Parameter::prequant. After a v2 mmap
/// load the model's weights are read-only (inference); training it requires
/// re-owning the values (e.g. a v1 load or RestoreWeights).
[[nodiscard]] util::Status LoadParameters(const std::string& path,
                            const ParameterList& params);

}  // namespace doduo::nn

#endif  // DODUO_NN_SERIALIZE_H_
