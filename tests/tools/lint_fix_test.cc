// `doduo_lint --fix` (DESIGN §16): the mechanical rules — include-order
// and header-guard — are fixable by construction. The contract under test:
// a fixed source lints clean of the fixed rule, ApplyFixes is idempotent,
// and anything the fixer is not sure about (an include block interleaved
// with code or conditional compilation) is returned byte-identical.

#include "lint/lint_engine.h"

#include <string>

#include "gtest/gtest.h"

namespace doduo::lint {
namespace {

std::string Fixed(std::string_view path, std::string_view source,
                  int* applied = nullptr) {
  int count = 0;
  std::string out = ApplyFixes(path, source, &count);
  if (applied != nullptr) *applied = count;
  return out;
}

bool LintsCleanOf(std::string_view path, std::string_view source,
                  std::string_view rule) {
  for (const Violation& v : LintSource(path, source)) {
    if (v.rule == rule) return false;
  }
  return true;
}

void ExpectIdempotent(std::string_view path, std::string_view source) {
  const std::string once = Fixed(path, source);
  int second_pass = -1;
  const std::string twice = Fixed(path, once, &second_pass);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(second_pass, 0);
}

TEST(FixIncludeOrderTest, RegroupsOwnSystemProject) {
  const std::string_view src =
      "#include \"doduo/nn/ops.h\"\n"
      "#include \"doduo/util/status.h\"\n"
      "#include <vector>\n"
      "\n"
      "void f() {}\n";
  int applied = 0;
  const std::string fixed = Fixed("src/doduo/nn/ops.cc", src, &applied);
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(fixed,
            "#include \"doduo/nn/ops.h\"\n"
            "\n"
            "#include <vector>\n"
            "\n"
            "#include \"doduo/util/status.h\"\n"
            "\n"
            "void f() {}\n");
  EXPECT_TRUE(LintsCleanOf("src/doduo/nn/ops.cc", fixed, kRuleIncludeOrder));
  ExpectIdempotent("src/doduo/nn/ops.cc", src);
}

TEST(FixIncludeOrderTest, HoistsBuriedOwnHeader) {
  const std::string_view src =
      "#include <vector>\n"
      "#include \"doduo/nn/ops.h\"\n"
      "#include <cmath>\n"
      "\n"
      "void f() {}\n";
  const std::string fixed = Fixed("src/doduo/nn/ops.cc", src);
  EXPECT_EQ(fixed,
            "#include \"doduo/nn/ops.h\"\n"
            "\n"
            "#include <vector>\n"
            "#include <cmath>\n"
            "\n"
            "void f() {}\n");
  ExpectIdempotent("src/doduo/nn/ops.cc", src);
}

TEST(FixIncludeOrderTest, TestFilesKeepTheirFirstQuotedInclude) {
  const std::string_view src =
      "#include \"doduo/nn/ops.h\"\n"
      "#include \"gtest/gtest.h\"\n"
      "#include <vector>\n";
  const std::string fixed = Fixed("tests/nn/ops_test.cc", src);
  EXPECT_EQ(fixed,
            "#include \"doduo/nn/ops.h\"\n"
            "\n"
            "#include <vector>\n"
            "\n"
            "#include \"gtest/gtest.h\"\n");
  ExpectIdempotent("tests/nn/ops_test.cc", src);
}

TEST(FixHeaderGuardTest, InsertsGuardAfterLeadingComment) {
  const std::string_view src =
      "// Doc comment.\n"
      "\n"
      "void f();\n";
  int applied = 0;
  const std::string fixed = Fixed("src/doduo/nn/foo.h", src, &applied);
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(fixed,
            "// Doc comment.\n"
            "\n"
            "#ifndef DODUO_NN_FOO_H_\n"
            "#define DODUO_NN_FOO_H_\n"
            "\n"
            "void f();\n"
            "\n"
            "#endif  // DODUO_NN_FOO_H_\n");
  EXPECT_TRUE(LintsCleanOf("src/doduo/nn/foo.h", fixed, kRuleHeaderGuard));
  ExpectIdempotent("src/doduo/nn/foo.h", src);
}

TEST(FixHeaderGuardTest, ToolsPathsKeepTheirScopeInTheGuard) {
  const std::string fixed =
      Fixed("tools/lint/new_pass.h", "void f();\n");
  EXPECT_NE(fixed.find("#ifndef DODUO_TOOLS_LINT_NEW_PASS_H_"),
            std::string::npos);
}

TEST(ApplyFixesTest, FixesBothRulesInOneHeader) {
  const std::string_view src =
      "#include \"doduo/table/table.h\"\n"
      "#include <string>\n";
  int applied = 0;
  const std::string fixed = Fixed("src/doduo/table/sanitizer.h", src,
                                  &applied);
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(fixed,
            "#ifndef DODUO_TABLE_SANITIZER_H_\n"
            "#define DODUO_TABLE_SANITIZER_H_\n"
            "\n"
            "#include <string>\n"
            "\n"
            "#include \"doduo/table/table.h\"\n"
            "\n"
            "#endif  // DODUO_TABLE_SANITIZER_H_\n");
  EXPECT_TRUE(
      LintsCleanOf("src/doduo/table/sanitizer.h", fixed, kRuleHeaderGuard));
  EXPECT_TRUE(
      LintsCleanOf("src/doduo/table/sanitizer.h", fixed, kRuleIncludeOrder));
  ExpectIdempotent("src/doduo/table/sanitizer.h", src);
}

TEST(ApplyFixesTest, InterleavedIncludeBlockIsLeftAlone) {
  // The ordering violation is real, but code sits inside the block: the
  // fixer must not reorder across it.
  const std::string_view src =
      "#include \"doduo/util/status.h\"\n"
      "static int x = 1;\n"
      "#include <vector>\n";
  ASSERT_FALSE(
      LintsCleanOf("src/doduo/nn/x.cc", src, kRuleIncludeOrder));
  int applied = -1;
  const std::string fixed = Fixed("src/doduo/nn/x.cc", src, &applied);
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(fixed, src);
}

TEST(ApplyFixesTest, CleanSourceIsReturnedByteIdentical) {
  const std::string_view src =
      "#ifndef DODUO_NN_OPS_H_\n"
      "#define DODUO_NN_OPS_H_\n"
      "\n"
      "#include <vector>\n"
      "\n"
      "#include \"doduo/util/status.h\"\n"
      "\n"
      "void f();\n"
      "\n"
      "#endif  // DODUO_NN_OPS_H_\n";
  int applied = -1;
  EXPECT_EQ(Fixed("src/doduo/nn/ops.h", src, &applied), src);
  EXPECT_EQ(applied, 0);
}

}  // namespace
}  // namespace doduo::lint
