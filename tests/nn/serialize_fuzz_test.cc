// Checkpoint-loader fuzzing, in the style of csv_fuzz_test/
// tokenizer_fuzz_test: seeded random byte mutations and truncations of a
// valid checkpoint must always come back as a clean util::Status — never a
// crash, hang, or blow-up allocation. Complements serialize_test's
// exhaustive every-byte-prefix sweep (DESIGN §10) with randomized depth.

#include "doduo/nn/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "doduo/nn/parameter.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "testing/counting_new.h"

namespace doduo::nn {
namespace {

// Pid-suffixed: ctest runs the four seed instances of each fuzz test as
// concurrent processes, and a shared victim path would let one process
// truncate a file another has mmapped (SIGBUS), which is a harness
// artifact, not a loader bug.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small but structurally interesting model: several named parameters of
/// different ranks, so mutations can land in magic, counts, name bytes,
/// shape dims, section offsets, or float payload.
std::vector<Parameter> MakeParams() {
  std::vector<Parameter> params;
  params.emplace_back("encoder.layer0.wqkv", std::vector<int64_t>{4, 12});
  params.emplace_back("encoder.layer0.bias", std::vector<int64_t>{12});
  params.emplace_back("head.types.w", std::vector<int64_t>{4, 3});
  params.emplace_back("head.types.b", std::vector<int64_t>{3});
  return params;
}

ParameterList AsList(std::vector<Parameter>& params) {
  ParameterList list;
  for (Parameter& p : params) list.push_back(&p);
  return list;
}

/// fp32 corpus: every tensor is stored as fp32 and loads by borrowing the
/// mapping — the layout of a default SaveModelDir checkpoint.
std::string ValidCheckpointBytes(const char* name) {
  util::Rng rng(7);
  std::vector<Parameter> params = MakeParams();
  for (Parameter& p : params) p.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath(name);
  const auto saved = SaveParameters(path, AsList(params));
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(path);
}

/// int8 corpus: same model with int8 on, so mutations can also land in
/// dtype bytes, scale tables, and the scale offset fields.
std::string ValidV2CheckpointBytes(const char* name) {
  util::Rng rng(7);
  std::vector<Parameter> params = MakeParams();
  for (Parameter& p : params) p.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath(name);
  const auto saved =
      SaveParameters(path, AsList(params), {.quant_int8 = true});
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(path);
}

// Loose per-load allocation caps for the over-allocation tests. A load of
// the small fuzz model makes under 30 operator new calls, none over 8 KiB
// (the DODUO_MMAP=0 read buffer); a size field that sized an allocation
// before validation would show as one huge request, which the call count
// alone cannot see.
constexpr size_t kMaxAllocsPerLoad = 64;
constexpr size_t kMaxRequestBytes = 64 << 10;

class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, RandomByteMutationsNeverCrash) {
  const std::string valid = ValidCheckpointBytes("fuzz_mutate.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_mutate_victim.bin");
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(8);
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = rng.NextUint64(bytes.size());
      bytes[pos] = static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    // Either the mutation hit float payload (loads fine) or structure
    // (clean, named error). Both are acceptable; crashing is not.
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

TEST_P(SerializeFuzzTest, RandomTruncationsAlwaysFailCleanly) {
  const std::string valid = ValidCheckpointBytes("fuzz_trunc.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_trunc_victim.bin");
  util::Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.NextUint64(valid.size());  // strict prefix
    WriteFileBytes(path, valid.substr(0, cut));
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
}

TEST_P(SerializeFuzzTest, MutatedTruncationsNeverCrash) {
  const std::string valid = ValidCheckpointBytes("fuzz_both.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_both_victim.bin");
  util::Rng rng(GetParam() + 2);
  for (int trial = 0; trial < 100; ++trial) {
    std::string bytes = valid.substr(0, rng.NextUint64(valid.size() + 1));
    for (size_t f = 0, flips = rng.NextUint64(6); f < flips; ++f) {
      if (bytes.empty()) break;
      bytes[rng.NextUint64(bytes.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

// A mutated size field must not translate into a giant allocation: the
// loader's plausibility caps reject implausible counts BEFORE any buffer is
// sized (DESIGN §10). Each load's operator new calls stay within what the
// small valid model itself needs.
TEST_P(SerializeFuzzTest, MutationsNeverOverAllocate) {
  const std::string valid = ValidCheckpointBytes("fuzz_alloc.bin");
  const std::string path = TempPath("fuzz_alloc_victim.bin");
  util::Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 100; ++trial) {
    std::string bytes = valid;
    // Target the header, where the count and size fields live.
    const size_t window = std::min<size_t>(bytes.size(), 64);
    bytes[rng.NextUint64(window)] = static_cast<char>(rng.NextUint64(256));
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    doduo::testing::ResetLargestOperatorNew();
    const size_t before = doduo::testing::OperatorNewCalls();
    const util::Status status = LoadParameters(path, AsList(params));
    const size_t grown = doduo::testing::OperatorNewCalls() - before;
    // A runaway (implausible-count) allocation would be orders of
    // magnitude more than these loose per-trial caps.
    ASSERT_LE(grown, kMaxAllocsPerLoad)
        << "trial " << trial << ": "
        << (status.ok() ? "ok" : status.ToString());
    ASSERT_LE(doduo::testing::LargestOperatorNew(), kMaxRequestBytes)
        << "trial " << trial << ": "
        << (status.ok() ? "ok" : status.ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

// The parameter-count cap on its own. A count 2⁶¹ past the real one keeps
// toc_size == param_count · sizeof(TocEntry) modulo 2⁶⁴ (136 · 2⁶¹ =
// 17 · 2⁶⁴), so every other header check passes and only the cap stands
// between the header and a TOC walk of 2⁶¹ entries.
TEST(SerializeHeaderTest, ParameterCountPastTheCapIsImplausible) {
  std::string bytes = ValidCheckpointBytes("count_cap.bin");
  constexpr size_t kCountOffset = 8;  // after magic and version
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kCountOffset, sizeof(count));
  ASSERT_EQ(count, MakeParams().size());
  count += uint64_t{1} << 61;
  std::memcpy(bytes.data() + kCountOffset, &count, sizeof(count));
  const std::string path = TempPath("count_cap_victim.bin");
  WriteFileBytes(path, bytes);
  std::vector<Parameter> params = MakeParams();
  const util::Status status = LoadParameters(path, AsList(params));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("implausible parameter count"),
            std::string::npos)
      << status.ToString();
}

// --- int8 checkpoints -------------------------------------------------------
//
// The loader validates every TOC extent against the fstat size before it
// dereferences the mapping, so the same properties must hold with int8
// sections: any mutation, truncation, or misalignment yields a clean Status
// — including offsets that point outside the file or scale tables that
// overlap the end.

class SerializeV2FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeV2FuzzTest, RandomByteMutationsNeverCrash) {
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_mutate.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_mutate_victim.bin");
  util::Rng rng(GetParam() + 10);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(8);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextUint64(bytes.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

TEST_P(SerializeV2FuzzTest, StructuralMutationsNeverCrash) {
  // Concentrate every flip on the header + TOC region, where offsets, byte
  // counts, dims, and dtypes live — the fields an attacker-controlled file
  // would use to walk the loader out of bounds or misalign a section.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_struct.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_struct_victim.bin");
  const size_t toc_end = std::min<size_t>(valid.size(), 64 + 4 * 136);
  util::Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(12);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextUint64(toc_end)] = static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

TEST_P(SerializeV2FuzzTest, RandomTruncationsAlwaysFailCleanly) {
  // A checkpoint records its own file size, so EVERY strict prefix must be
  // rejected — there is no "lucky" truncation that still parses.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_trunc.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_trunc_victim.bin");
  util::Rng rng(GetParam() + 12);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.NextUint64(valid.size());  // strict prefix
    WriteFileBytes(path, valid.substr(0, cut));
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
}

TEST_P(SerializeV2FuzzTest, StructuralMutationsNeverOverAllocate) {
  // A corrupt dim or byte count must be rejected by the overflow-safe
  // extent checks BEFORE the dequant buffer (the only sized allocation on
  // this path) is created.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_alloc.bin");
  const std::string path = TempPath("fuzz_v2_alloc_victim.bin");
  const size_t toc_end = std::min<size_t>(valid.size(), 64 + 4 * 136);
  util::Rng rng(GetParam() + 13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    bytes[rng.NextUint64(toc_end)] = static_cast<char>(rng.NextUint64(256));
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    doduo::testing::ResetLargestOperatorNew();
    const size_t before = doduo::testing::OperatorNewCalls();
    const util::Status status = LoadParameters(path, AsList(params));
    const size_t grown = doduo::testing::OperatorNewCalls() - before;
    ASSERT_LE(grown, kMaxAllocsPerLoad)
        << "trial " << trial << ": "
        << (status.ok() ? "ok" : status.ToString());
    ASSERT_LE(doduo::testing::LargestOperatorNew(), kMaxRequestBytes)
        << "trial " << trial << ": "
        << (status.ok() ? "ok" : status.ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeV2FuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

}  // namespace
}  // namespace doduo::nn
