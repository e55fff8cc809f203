// doduo_convert — re-saves a model directory (DESIGN §14).
//
//   doduo_convert <src_dir> <dst_dir> [--int8]
//
// Loads a saved model directory and re-saves it to <dst_dir> as an
// mmap-able checkpoint, with --int8 storing Linear weights quantized to
// int8 + per-channel scales (~4x smaller). Vocabularies and config are
// copied along, so the destination is a complete, loadable model
// directory. <dst_dir> may be <src_dir>: the checkpoint is replaced by a
// rename, never rewritten in place.

#include <cstdio>
#include <cstring>
#include <string>

#include "doduo/core/model_io.h"

namespace {

const char* kUsage = "usage: doduo_convert <src_dir> <dst_dir> [--int8]\n";

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string src, dst;
  doduo::core::SaveModelOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--int8") == 0) {
      options.quant_int8 = true;
    } else if (argv[i][0] == '-' || !dst.empty()) {
      std::fputs(kUsage, stderr);
      return 2;
    } else if (src.empty()) {
      src = argv[i];
    } else {
      dst = argv[i];
    }
  }
  if (src.empty() || dst.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  auto loaded = doduo::core::LoadModelDir(src);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  doduo::core::LoadedModel& m = *loaded.value();

  if (doduo::util::Status saved =
          doduo::core::SaveModelDir(dst, m.model.get(), m.vocab, m.types,
                                    m.relations, options);
      !saved.ok()) {
    return Fail(saved.ToString());
  }
  std::printf("doduo_convert: %s -> %s%s\n", src.c_str(), dst.c_str(),
              options.quant_int8 ? " (int8)" : "");
  return 0;
}
