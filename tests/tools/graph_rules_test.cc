// Whole-program passes (DESIGN §16) against synthetic in-memory
// repositories: every rule must fire on a seeded violation of its class —
// an upward include, an include cycle, a decoder-less frame id, a typo'd
// metric name, an allocation on the forward path — and stay quiet on the
// clean shape of the same tree.

#include "lint/graph_rules.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace doduo::lint {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

std::vector<Violation> RunRule(Files files, std::string_view rule) {
  const ProjectModel model = ProjectModel::Build(std::move(files));
  std::vector<Violation> out;
  for (Violation& v : RunGraphRules(model, GraphRuleOptions{})) {
    if (v.rule == rule) out.push_back(std::move(v));
  }
  return out;
}

bool AnyMessageContains(const std::vector<Violation>& vs,
                        std::string_view needle) {
  for (const Violation& v : vs) {
    if (v.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

// -- layering ---------------------------------------------------------------

TEST(LayeringTest, UpwardIncludeFires) {
  const auto vs = RunRule(
      {{"src/doduo/core/annotator.cc", "#include \"doduo/serve/server.h\"\n"},
       {"src/doduo/serve/server.h", ""}},
      kRuleLayering);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/doduo/core/annotator.cc");
  EXPECT_EQ(vs[0].line, 1);
  EXPECT_NE(vs[0].message.find("serve"), std::string::npos);
}

TEST(LayeringTest, SameRankSiblingIncludeFires) {
  // nn and eval share a rank: neither may see the other.
  const auto vs = RunRule(
      {{"src/doduo/nn/ops.cc", "#include \"doduo/eval/metrics.h\"\n"},
       {"src/doduo/eval/metrics.h", ""}},
      kRuleLayering);
  ASSERT_EQ(vs.size(), 1u);
}

TEST(LayeringTest, DownwardAndSameModuleIncludesAreQuiet) {
  const auto vs = RunRule(
      {{"src/doduo/serve/server.cc",
        "#include \"doduo/serve/protocol.h\"\n"
        "#include \"doduo/core/annotator.h\"\n"
        "#include \"doduo/util/status.h\"\n"
        "#include <vector>\n"},
       {"src/doduo/serve/protocol.h", ""},
       {"src/doduo/core/annotator.h", ""},
       {"src/doduo/util/status.h", ""}},
      kRuleLayering);
  EXPECT_TRUE(vs.empty());
}

TEST(LayeringTest, SrcIncludingToolsFires) {
  const auto vs = RunRule(
      {{"src/doduo/util/status.cc", "#include \"lint/lint_engine.h\"\n"},
       {"tools/lint/lint_engine.h", ""}},
      kRuleLayering);
  ASSERT_EQ(vs.size(), 1u);
}

TEST(LayeringTest, ToolsAndTestsAreUnconstrained) {
  const auto vs = RunRule(
      {{"tools/doduo_cli.cc", "#include \"doduo/serve/server.h\"\n"},
       {"tests/serve/x_test.cc", "#include \"doduo/serve/server.h\"\n"},
       {"src/doduo/serve/server.h", ""}},
      kRuleLayering);
  EXPECT_TRUE(vs.empty());
}

TEST(LayeringTest, UnknownModuleMustJoinTheDag) {
  const auto vs =
      RunRule({{"src/doduo/newthing/x.h", ""}}, kRuleLayering);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_NE(vs[0].message.find("newthing"), std::string::npos);
}

TEST(LayeringTest, NolintEscapesTheEdge) {
  const auto vs = RunRule(
      {{"src/doduo/core/x.cc",
        "#include \"doduo/serve/server.h\"  // NOLINT(layering)\n"},
       {"src/doduo/serve/server.h", ""}},
      kRuleLayering);
  EXPECT_TRUE(vs.empty());
}

// -- include-cycle ----------------------------------------------------------

TEST(IncludeCycleTest, TwoFileCycleFiresOnce) {
  const auto vs = RunRule(
      {{"src/doduo/util/a.h", "#include \"doduo/util/b.h\"\n"},
       {"src/doduo/util/b.h", "#include \"doduo/util/a.h\"\n"}},
      kRuleIncludeCycle);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_NE(vs[0].message.find("src/doduo/util/a.h"), std::string::npos);
  EXPECT_NE(vs[0].message.find("src/doduo/util/b.h"), std::string::npos);
}

TEST(IncludeCycleTest, ThreeFileCycleReportsTheFullPath) {
  const auto vs = RunRule(
      {{"src/doduo/util/a.h", "#include \"doduo/util/b.h\"\n"},
       {"src/doduo/util/b.h", "#include \"doduo/util/c.h\"\n"},
       {"src/doduo/util/c.h", "#include \"doduo/util/a.h\"\n"}},
      kRuleIncludeCycle);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_NE(vs[0].message.find("c.h"), std::string::npos);
}

TEST(IncludeCycleTest, DiamondIsAcyclic) {
  const auto vs = RunRule(
      {{"src/doduo/util/top.h",
        "#include \"doduo/util/left.h\"\n#include \"doduo/util/right.h\"\n"},
       {"src/doduo/util/left.h", "#include \"doduo/util/base.h\"\n"},
       {"src/doduo/util/right.h", "#include \"doduo/util/base.h\"\n"},
       {"src/doduo/util/base.h", ""}},
      kRuleIncludeCycle);
  EXPECT_TRUE(vs.empty());
}

// -- frame-symmetry ---------------------------------------------------------

/// A minimal, fully symmetric protocol: dense ids, paired Request/Response,
/// both wire sides referencing every frame, codecs paired, decoder fuzzed.
Files CleanProtocolTree() {
  return {
      {"src/doduo/serve/protocol.h",
       "enum class FrameType : uint8_t {\n"
       "  kPingRequest = 1,\n"
       "  kPingResponse = 2,\n"
       "  kErrorResponse = 3,\n"
       "};\n"
       "bool IsKnownFrameType(uint8_t type);\n"
       "class FrameDecoder {};\n"
       "void EncodePingPayload(std::string* out);\n"
       "bool DecodePingPayload(std::string_view in);\n"},
      {"src/doduo/serve/client.cc",
       "void C() { Use(kPingRequest, kPingResponse, kErrorResponse); }\n"},
      {"src/doduo/serve/server.cc",
       "void S() { Use(kPingRequest, kPingResponse, kErrorResponse); }\n"},
      {"tests/serve/protocol_fuzz_test.cc",
       "void T() {\n"
       "  Use(kPingRequest, kPingResponse, kErrorResponse);\n"
       "  DecodePingPayload(\"x\");\n"
       "  FrameDecoder d;\n"
       "}\n"},
  };
}

TEST(FrameSymmetryTest, CleanProtocolIsQuiet) {
  EXPECT_TRUE(RunRule(CleanProtocolTree(), kRuleFrameSymmetry).empty());
}

TEST(FrameSymmetryTest, UnpairedRequestFires) {
  Files files = CleanProtocolTree();
  // Add a request with no response (but keep ids dense and wire it up).
  files[0].second =
      "enum class FrameType : uint8_t {\n"
      "  kPingRequest = 1,\n"
      "  kPingResponse = 2,\n"
      "  kErrorResponse = 3,\n"
      "  kStatsRequest = 4,\n"
      "};\n"
      "bool IsKnownFrameType(uint8_t type);\n"
      "class FrameDecoder {};\n"
      "void EncodePingPayload(std::string* out);\n"
      "bool DecodePingPayload(std::string_view in);\n";
  files[1].second = "void C() { Use(kPingRequest, kPingResponse,\n"
                    "               kErrorResponse, kStatsRequest); }\n";
  files[2].second = files[1].second;
  files[3].second =
      "void T() {\n"
      "  Use(kPingRequest, kPingResponse, kErrorResponse, kStatsRequest);\n"
      "  DecodePingPayload(\"x\");\n"
      "  FrameDecoder d;\n"
      "}\n";
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "kStatsResponse"));
}

TEST(FrameSymmetryTest, SparseIdsFire) {
  Files files = CleanProtocolTree();
  files[0].second =
      "enum class FrameType : uint8_t {\n"
      "  kPingRequest = 1,\n"
      "  kPingResponse = 2,\n"
      "  kErrorResponse = 7,\n"  // ids 3..6 unused
      "};\n"
      "void EncodePingPayload(std::string* out);\n"
      "bool DecodePingPayload(std::string_view in);\n";
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "not dense"));
  EXPECT_TRUE(AnyMessageContains(vs, "3, 4, 5, 6"));
}

TEST(FrameSymmetryTest, DuplicateIdFires) {
  Files files = CleanProtocolTree();
  files[0].second =
      "enum class FrameType : uint8_t {\n"
      "  kPingRequest = 1,\n"
      "  kPingResponse = 2,\n"
      "  kErrorResponse = 2,\n"
      "};\n"
      "void EncodePingPayload(std::string* out);\n"
      "bool DecodePingPayload(std::string_view in);\n";
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  EXPECT_TRUE(AnyMessageContains(vs, "collides"));
}

TEST(FrameSymmetryTest, FrameMissingFromOneWireSideFires) {
  Files files = CleanProtocolTree();
  files[2].second = "void S() { Use(kPingRequest, kPingResponse); }\n";
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "kErrorResponse"));
  EXPECT_TRUE(AnyMessageContains(vs, "server.cc"));
}

TEST(FrameSymmetryTest, UntestedFrameFires) {
  Files files = CleanProtocolTree();
  files[3].second =
      "void T() {\n"
      "  Use(kPingRequest, kPingResponse);\n"
      "  DecodePingPayload(\"x\");\n"
      "  FrameDecoder d;\n"
      "}\n";
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "no test reference"));
}

TEST(FrameSymmetryTest, DecoderlessCodecFires) {
  Files files = CleanProtocolTree();
  files[0].second =
      "enum class FrameType : uint8_t {\n"
      "  kPingRequest = 1,\n"
      "  kPingResponse = 2,\n"
      "  kErrorResponse = 3,\n"
      "};\n"
      "class FrameDecoder {};\n"
      "void EncodePingPayload(std::string* out);\n"
      "bool DecodePingPayload(std::string_view in);\n"
      "void EncodeStatsPayload(std::string* out);\n";  // no decoder
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "DecodeStatsPayload"));
}

TEST(FrameSymmetryTest, UnfuzzedDecoderFires) {
  Files files = CleanProtocolTree();
  files[3].first = "tests/serve/protocol_test.cc";  // not a fuzz file
  const auto vs = RunRule(std::move(files), kRuleFrameSymmetry);
  EXPECT_TRUE(AnyMessageContains(vs, "fuzz"));
}

// -- metrics-registry -------------------------------------------------------

Files MetricsTree(const std::string& call_site) {
  return {
      {"src/doduo/util/metric_names.h",
       "inline constexpr std::string_view kServeRequestsTotal =\n"
       "    \"serve.requests_total\";\n"},
      {"src/doduo/serve/server.cc", call_site},
  };
}

TEST(MetricsRegistryTest, RegisteredNameIsQuiet) {
  const auto vs = RunRule(
      MetricsTree("void S() { GetCounter(\"serve.requests_total\"); }\n"),
      kRuleMetricsRegistry);
  EXPECT_TRUE(vs.empty());
}

TEST(MetricsRegistryTest, TypoFiresWithSuggestion) {
  const auto vs = RunRule(
      MetricsTree("void S() { GetCounter(\"serve.request_total\"); }\n"),
      kRuleMetricsRegistry);
  // The typo'd use plus the now-unused registered name.
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_TRUE(AnyMessageContains(vs, "did you mean"));
  EXPECT_TRUE(AnyMessageContains(vs, "serve.requests_total"));
}

TEST(MetricsRegistryTest, UnregisteredHistogramFires) {
  const auto vs = RunRule(
      MetricsTree("void S() {\n"
                  "  GetCounter(\"serve.requests_total\");\n"
                  "  GetHistogram(\"brand.new_metric_us\");\n"
                  "}\n"),
      kRuleMetricsRegistry);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 3);
  EXPECT_TRUE(AnyMessageContains(vs, "brand.new_metric_us"));
}

TEST(MetricsRegistryTest, TestPrefixIsExempt) {
  const auto vs = RunRule(
      MetricsTree("void S() {\n"
                  "  GetCounter(\"serve.requests_total\");\n"
                  "  GetCounter(\"test.anything_goes\");\n"
                  "}\n"),
      kRuleMetricsRegistry);
  EXPECT_TRUE(vs.empty());
}

TEST(MetricsRegistryTest, UnusedRegisteredNameFires) {
  Files files = MetricsTree("void S() { GetCounter(name_variable); }\n");
  files[0].second +=
      "inline constexpr std::string_view kDead = \"dead.metric\";\n";
  // The variable-name call is skipped (nothing checkable); only the dead
  // registry entry fires — "serve.requests_total" also has no literal use.
  const auto vs = RunRule(std::move(files), kRuleMetricsRegistry);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].file, "src/doduo/util/metric_names.h");
  EXPECT_TRUE(AnyMessageContains(vs, "dead.metric"));
}

// -- hot-path-alloc ---------------------------------------------------------

Files HotPathTree(const std::string& helper_body) {
  return {
      {"src/doduo/transformer/encoder.cc",
       "const Tensor& Forward(const Tensor& x) {\n"
       "  Helper(x);\n"
       "  return x;\n"
       "}\n"},
      {"src/doduo/nn/ops.cc",
       "void Helper(const Tensor& x) {\n" + helper_body + "}\n"},
  };
}

TEST(HotPathAllocTest, GrowthCallOnForwardPathFires) {
  const auto vs =
      RunRule(HotPathTree("  scratch.push_back(1.0f);\n"), kRuleHotPathAlloc);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/doduo/nn/ops.cc");
  EXPECT_EQ(vs[0].line, 2);
  // The diagnostic names the call chain from the root.
  EXPECT_TRUE(AnyMessageContains(vs, "Forward -> Helper"));
}

TEST(HotPathAllocTest, TemplateCallOnForwardPathFires) {
  Files files = HotPathTree("  Tile<12>(x);\n  if (a < b) Other(x);\n");
  files.push_back({"src/doduo/nn/tile.cc",
                   "template <int R> void Tile(const Tensor& x) {\n"
                   "  scratch.push_back(1.0f);\n"
                   "}\n"});
  const auto vs = RunRule(std::move(files), kRuleHotPathAlloc);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/doduo/nn/tile.cc");
  EXPECT_TRUE(AnyMessageContains(vs, "Forward -> Helper -> Tile"));
}

TEST(HotPathAllocTest, NakedNewOnForwardPathFires) {
  const auto vs =
      RunRule(HotPathTree("  float* p = new float[8];\n  Use(p);\n"),
              kRuleHotPathAlloc);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_TRUE(AnyMessageContains(vs, "'new'"));
}

TEST(HotPathAllocTest, UnreachableFunctionIsQuiet) {
  Files files = HotPathTree("  Compute(x);\n");
  files.push_back({"src/doduo/nn/setup.cc",
                   "void BuildTables() {\n"
                   "  cache.push_back(1);\n"
                   "}\n"});
  EXPECT_TRUE(RunRule(std::move(files), kRuleHotPathAlloc).empty());
}

TEST(HotPathAllocTest, ExemptArenaFilesAreQuiet) {
  Files files = HotPathTree("  ResizeUninitialized(x);\n");
  // nn/tensor and nn/workspace are the audited choke points themselves.
  files.push_back({"src/doduo/nn/tensor.cc",
                   "void ResizeUninitialized(const Tensor& x) {\n"
                   "  data_.resize(8);\n"
                   "}\n"});
  EXPECT_TRUE(RunRule(std::move(files), kRuleHotPathAlloc).empty());
}

TEST(HotPathAllocTest, NolintEscapesWithJustification) {
  const auto vs = RunRule(
      HotPathTree("  cache.resize(8);  // NOLINT(hot-path-alloc)\n"),
      kRuleHotPathAlloc);
  EXPECT_TRUE(vs.empty());
}

}  // namespace
}  // namespace doduo::lint
