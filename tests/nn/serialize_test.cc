#include "doduo/nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace doduo::nn {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
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

// Overwrites sizeof(T) bytes of a checkpoint image at `offset`.
template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  bytes->replace(offset, sizeof(value), reinterpret_cast<const char*>(&value),
                 sizeof(value));
}

// Byte offsets into a checkpoint: the 64-byte header, then one 136-byte TOC
// entry per parameter (name[64], dtype, ndim, 6 reserved bytes, dims[4],
// section offsets and sizes).
constexpr size_t kParamCountOffset = 8;
constexpr size_t kFirstEntry = 64;
constexpr size_t kNdimOffset = kFirstEntry + 64 + 1;
constexpr size_t kDimsOffset = kFirstEntry + 64 + 8;

// A valid one-parameter checkpoint image for the corruption tests to patch.
std::string ValidCheckpointBytes(const std::string& path) {
  Parameter p("p", {2});
  EXPECT_TRUE(SaveParameters(path, {&p}).ok());
  return ReadFileBytes(path);
}

TEST(SerializeTest, RoundTrip) {
  util::Rng rng(1);
  Parameter a("layer.w", {2, 3});
  Parameter b("layer.b", {3});
  a.value.FillNormal(&rng, 1.0f);
  b.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath("ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveParameters(path, {&a, &b}).ok());

  Parameter a2("layer.w", {2, 3});
  Parameter b2("layer.b", {3});
  ASSERT_TRUE(LoadParameters(path, {&a2, &b2}).ok());
  for (int64_t i = 0; i < a.value.size(); ++i) {
    EXPECT_FLOAT_EQ(std::as_const(a2.value).data()[i], a.value.data()[i]);
  }
  for (int64_t i = 0; i < b.value.size(); ++i) {
    EXPECT_FLOAT_EQ(std::as_const(b2.value).data()[i], b.value.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, NameMismatchFails) {
  Parameter a("correct", {2});
  const std::string path = TempPath("ckpt_name.bin");
  ASSERT_TRUE(SaveParameters(path, {&a}).ok());
  Parameter wrong("wrong", {2});
  EXPECT_FALSE(LoadParameters(path, {&wrong}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchFails) {
  Parameter a("p", {2, 2});
  const std::string path = TempPath("ckpt_shape.bin");
  ASSERT_TRUE(SaveParameters(path, {&a}).ok());
  Parameter wrong("p", {4});
  EXPECT_FALSE(LoadParameters(path, {&wrong}).ok());
  Parameter wrong2("p", {2, 3});
  EXPECT_FALSE(LoadParameters(path, {&wrong2}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, CountMismatchFails) {
  Parameter a("p", {2});
  const std::string path = TempPath("ckpt_count.bin");
  ASSERT_TRUE(SaveParameters(path, {&a}).ok());
  Parameter b("q", {2});
  EXPECT_FALSE(LoadParameters(path, {&a, &b}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Parameter a("p", {2});
  EXPECT_FALSE(LoadParameters("/nonexistent/ckpt.bin", {&a}).ok());
}

TEST(SerializeTest, EveryTruncatedPrefixFailsCleanly) {
  // Cutting a valid checkpoint at ANY byte must yield a clean error — never
  // a crash, hang, or silent partial load.
  util::Rng rng(4);
  Parameter a("layer.w", {3, 2});
  a.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath("ckpt_trunc_src.bin");
  ASSERT_TRUE(SaveParameters(path, {&a}).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string truncated_path = TempPath("ckpt_trunc.bin");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(truncated_path, bytes.substr(0, cut));
    Parameter fresh("layer.w", {3, 2});
    const util::Status status = LoadParameters(truncated_path, {&fresh});
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

TEST(SerializeTest, ImplausibleParameterCountFails) {
  const std::string path = TempPath("ckpt_huge_count.bin");
  std::string bytes = ValidCheckpointBytes(path);
  Patch<uint64_t>(&bytes, kParamCountOffset, uint64_t{1} << 40);
  WriteFileBytes(path, bytes);
  Parameter a("p", {2});
  const util::Status status = LoadParameters(path, {&a});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("parameter count"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, ImplausibleNameLengthFails) {
  // A name that fills its whole field leaves no terminator to stop at.
  const std::string path = TempPath("ckpt_huge_name.bin");
  std::string bytes = ValidCheckpointBytes(path);
  bytes.replace(kFirstEntry, 64, std::string(64, 'p'));
  WriteFileBytes(path, bytes);
  Parameter a("p", {2});
  const util::Status status = LoadParameters(path, {&a});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad parameter name"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, ImplausibleDimCountFails) {
  const std::string path = TempPath("ckpt_huge_ndim.bin");
  std::string bytes = ValidCheckpointBytes(path);
  Patch<uint8_t>(&bytes, kNdimOffset, 200);
  WriteFileBytes(path, bytes);
  Parameter a("p", {2});
  const util::Status status = LoadParameters(path, {&a});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad rank"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, OverflowingShapeFails) {
  // Extents whose product overflows must be rejected by the volume check,
  // not allocated.
  const std::string path = TempPath("ckpt_overflow_shape.bin");
  std::string bytes = ValidCheckpointBytes(path);
  Patch<uint8_t>(&bytes, kNdimOffset, 2);
  Patch<uint64_t>(&bytes, kDimsOffset, uint64_t{1} << 30);
  Patch<uint64_t>(&bytes, kDimsOffset + 8, uint64_t{1} << 30);
  WriteFileBytes(path, bytes);
  Parameter a("p", {2});
  const util::Status status = LoadParameters(path, {&a});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad shape"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, GarbageFileFails) {
  const std::string path = TempPath("ckpt_garbage.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  Parameter a("p", {2});
  EXPECT_FALSE(LoadParameters(path, {&a}).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace doduo::nn
