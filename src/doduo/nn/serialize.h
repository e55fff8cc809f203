#ifndef DODUO_NN_SERIALIZE_H_
#define DODUO_NN_SERIALIZE_H_

#include <string>

#include "doduo/nn/parameter.h"
#include "doduo/util/status.h"

namespace doduo::nn {

/// Options for SaveParameters.
struct SaveOptions {
  /// Store eligible weights (2-D Linear ".w" matrices) as int8 with a
  /// per-output-channel fp32 scale table instead of raw fp32 — roughly 4×
  /// smaller and pre-quantized for the DODUO_QUANT inference path.
  bool quant_int8 = false;
};

/// Saves the parameters to a checkpoint file in doduo's one checkpoint
/// format (version 2, DESIGN §14): a fixed-size little-endian header and
/// table of contents followed by 64-byte-aligned tensor sections, so a
/// loader can mmap the file and point tensors straight into it — no parse,
/// no copy. Each entry records its name and shape, so a load verifies that
/// the target model has an identical structure. With `quant_int8`, eligible
/// weights are stored transposed as int8 plus a scale table (see
/// nn/quant.h).
///
/// The file is written as "<path>.tmp" and renamed over `path`, so saving a
/// model over the checkpoint it was loaded from (whose weights still borrow
/// that file's mapping) is safe, and a failed save leaves `path` untouched.
[[nodiscard]] util::Status SaveParameters(const std::string& path,
                                          const ParameterList& params,
                                          const SaveOptions& options = {});

/// Loads a checkpoint written by SaveParameters into `params`. Entries are
/// matched by name (order-insensitive); shapes must match exactly, every
/// model parameter must be found, and every checkpoint entry must be
/// consumed. A file with another version field (such as the retired
/// version-1 stream format) fails with an InvalidArgument naming the
/// version.
///
/// The file is mmap-ed (MAP_SHARED | PROT_READ; DODUO_MMAP=0 falls back to
/// a heap read) and fp32 tensors *borrow* the mapping — every byte extent
/// is validated against the file size before any allocation or
/// dereference. Int8 entries are dequantized into owned fp32 values and
/// additionally attach their zero-copy scale table and the dispatched int8
/// kernel's packed weight, built from their payload, as
/// Parameter::prequant.
///
/// A loaded model is read-only: its borrowed weights CHECK-fail on mutable
/// access. To train it, give each parameter an owned copy first
/// (`p->value = p->value.MaterializeOwned()`).
[[nodiscard]] util::Status LoadParameters(const std::string& path,
                                          const ParameterList& params);

}  // namespace doduo::nn

#endif  // DODUO_NN_SERIALIZE_H_
