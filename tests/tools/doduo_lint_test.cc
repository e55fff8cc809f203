// The linter is correctness tooling, so it gets the same test discipline as
// the kernels: every rule must fire on a crafted violating snippet, stay
// quiet on the idiomatic form, and honor the `// NOLINT(rule-id)` escape
// hatch (DESIGN §11).

#include "lint/lint_engine.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace doduo::lint {
namespace {

std::vector<Violation> Lint(std::string_view path, std::string_view source) {
  return LintSource(path, source);
}

bool HasRule(const std::vector<Violation>& vs, std::string_view rule) {
  for (const Violation& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

// -- no-abort ---------------------------------------------------------------

TEST(NoAbortTest, AbortExitAssertFire) {
  const auto vs = Lint("src/doduo/core/x.cc",
                      "void f() {\n"
                      "  std::abort();\n"
                      "  exit(1);\n"
                      "  assert(x > 0);\n"
                      "}\n");
  int count = 0;
  for (const Violation& v : vs) {
    if (v.rule == kRuleNoAbort) ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(NoAbortTest, UtilLoggingAndStatusAreExempt) {
  const char* src = "void f() { std::abort(); }\n";
  EXPECT_TRUE(Lint("src/doduo/util/logging.cc", src).empty());
  EXPECT_TRUE(Lint("src/doduo/util/status.cc", src).empty());
  EXPECT_TRUE(Lint("src/doduo/util/check.h",
                  "#pragma once\nvoid f() { std::abort(); }\n")
                  .empty());
  EXPECT_FALSE(Lint("src/doduo/nn/ops.cc", src).empty());
}

TEST(NoAbortTest, MemberNamedExitIsQuiet) {
  EXPECT_TRUE(
      Lint("src/doduo/core/x.cc", "void f() { loop.exit(); }\n").empty());
}

TEST(NoAbortTest, StringAndCommentMentionsAreQuiet) {
  EXPECT_TRUE(Lint("src/doduo/core/x.cc",
                  "// call exit(1) here would be bad\n"
                  "const char* k = \"abort() assert( exit(\";\n")
                  .empty());
}

// -- no-raw-random ----------------------------------------------------------

TEST(NoRawRandomTest, RandSrandTimeRandomDeviceFire) {
  const auto vs = Lint("src/doduo/synth/x.cc",
                      "void f() {\n"
                      "  srand(time(nullptr));\n"
                      "  int x = rand();\n"
                      "  std::random_device rd;\n"
                      "}\n");
  int count = 0;
  for (const Violation& v : vs) {
    if (v.rule == kRuleNoRawRandom) ++count;
  }
  // srand+time share a line (one finding), then rand, then random_device.
  EXPECT_EQ(count, 3);
}

TEST(NoRawRandomTest, UtilRngIsExempt) {
  EXPECT_TRUE(
      Lint("src/doduo/util/rng.cc", "void f() { srand(1); }\n").empty());
}

TEST(NoRawRandomTest, IdentifiersContainingTimeAreQuiet) {
  EXPECT_TRUE(Lint("src/doduo/core/x.cc",
                  "void f() {\n"
                  "  auto t = clock.time_point();\n"
                  "  double time = 0.0;\n"
                  "  stopwatch.time();\n"
                  "}\n")
                  .empty());
}

// -- no-naked-new -----------------------------------------------------------

TEST(NoNakedNewTest, NewDeleteMallocFireInKernelDirs) {
  const auto vs = Lint("src/doduo/nn/x.cc",
                      "void f() {\n"
                      "  float* p = new float[8];\n"
                      "  delete[] p;\n"
                      "  void* q = malloc(8);\n"
                      "  free(q);\n"
                      "}\n");
  int count = 0;
  for (const Violation& v : vs) {
    if (v.rule == kRuleNoNakedNew) ++count;
  }
  EXPECT_EQ(count, 4);
}

TEST(NoNakedNewTest, TransformerDirIsCovered) {
  EXPECT_TRUE(HasRule(
      Lint("src/doduo/transformer/x.cc", "void f() { int* p = new int; }\n"),
      kRuleNoNakedNew));
}

TEST(NoNakedNewTest, OtherDirsAreOutOfScope) {
  EXPECT_TRUE(
      Lint("src/doduo/table/x.cc", "void f() { int* p = new int; }\n").empty());
}

TEST(NoNakedNewTest, DeletedFunctionsAreQuiet) {
  EXPECT_TRUE(Lint("src/doduo/nn/workspace.h",
                  "#pragma once\n"
                  "struct W {\n"
                  "  W(const W&) = delete;\n"
                  "  W& operator=(const W&) = delete;\n"
                  "};\n")
                  .empty());
}

// -- header-guard -----------------------------------------------------------

TEST(HeaderGuardTest, MissingGuardFires) {
  const auto vs = Lint("src/doduo/nn/x.h", "void f();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, kRuleHeaderGuard);
}

TEST(HeaderGuardTest, PragmaOnceAndIfndefGuardPass) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.h", "#pragma once\nvoid f();\n").empty());
  EXPECT_TRUE(Lint("src/doduo/nn/x.h",
                  "#ifndef DODUO_NN_X_H_\n#define DODUO_NN_X_H_\n"
                  "void f();\n#endif\n")
                  .empty());
}

TEST(HeaderGuardTest, LeadingCommentBlockIsSkipped) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.h",
                  "// File comment.\n/* license */\n#pragma once\nvoid f();\n")
                  .empty());
}

TEST(HeaderGuardTest, SourceFilesAreExempt) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.cc", "void f() {}\n").empty());
}

// -- include-order ----------------------------------------------------------

TEST(IncludeOrderTest, SystemAfterProjectFires) {
  const auto vs = Lint("src/doduo/nn/x.cc",
                      "#include \"doduo/nn/x.h\"\n"
                      "#include \"doduo/util/env.h\"\n"
                      "#include <vector>\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, kRuleIncludeOrder);
  EXPECT_EQ(vs[0].line, 3);
}

TEST(IncludeOrderTest, OwnHeaderFirstThenSystemThenProjectPasses) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.cc",
                  "#include \"doduo/nn/x.h\"\n\n"
                  "#include <cmath>\n#include <vector>\n\n"
                  "#include \"doduo/util/env.h\"\n")
                  .empty());
}

TEST(IncludeOrderTest, CommentedOutIncludeIsIgnored) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.cc",
                  "#include \"doduo/nn/x.h\"\n"
                  "// #include \"doduo/util/env.h\"\n"
                  "#include <vector>\n")
                  .empty());
}

TEST(IncludeOrderTest, NonMatchingFirstQuoteIncludeIsNotOwnHeader) {
  EXPECT_TRUE(HasRule(Lint("src/doduo/nn/x.cc",
                          "#include \"doduo/util/env.h\"\n"
                          "#include <vector>\n"),
                      kRuleIncludeOrder));
}

TEST(IncludeOrderTest, TestFileHeaderUnderTestCountsAsOwnHeader) {
  // tests/foo_test.cc opens with the header under test, whose stem does
  // not match the test file's; under tests/ that first include is exempt.
  EXPECT_TRUE(Lint("tests/util/csv_test.cc",
                  "#include \"doduo/util/csv.h\"\n"
                  "#include <cstdio>\n"
                  "#include \"gtest/gtest.h\"\n")
                  .empty());
}

// -- metrics-in-loop --------------------------------------------------------

TEST(MetricsInLoopTest, LookupInsideForLoopFires) {
  const auto vs = Lint("src/doduo/core/x.cc",
                      "void f() {\n"
                      "  for (int i = 0; i < n; ++i) {\n"
                      "    util::GetCounter(\"x\")->Increment();\n"
                      "  }\n"
                      "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, kRuleMetricsInLoop);
  EXPECT_EQ(vs[0].line, 3);
}

TEST(MetricsInLoopTest, BracelessLoopBodyFires) {
  EXPECT_TRUE(HasRule(
      Lint("src/doduo/core/x.cc",
          "void f() {\n"
          "  while (busy()) util::GetHistogram(\"y\")->Record(1);\n"
          "}\n"),
      kRuleMetricsInLoop));
}

TEST(MetricsInLoopTest, CachedPointerPatternIsQuiet) {
  EXPECT_TRUE(Lint("src/doduo/core/x.cc",
                  "void f() {\n"
                  "  static util::Counter* c = util::GetCounter(\"x\");\n"
                  "  for (int i = 0; i < n; ++i) c->Increment();\n"
                  "}\n")
                  .empty());
}

TEST(MetricsInLoopTest, LookupAfterLoopIsQuiet) {
  EXPECT_TRUE(Lint("src/doduo/core/x.cc",
                  "void f() {\n"
                  "  for (int i = 0; i < n; ++i) { work(i); }\n"
                  "  util::GetCounter(\"x\")->Increment();\n"
                  "}\n")
                  .empty());
}

// -- serve-raw-io -----------------------------------------------------------

TEST(ServeRawIoTest, RawPosixCallFiresInServeTree) {
  const auto vs = Lint("src/doduo/serve/server.cc",
                      "void f(int fd) {\n"
                      "  char buf[64];\n"
                      "  recv(fd, buf, sizeof(buf), 0);\n"
                      "}\n");
  ASSERT_TRUE(HasRule(vs, kRuleServeRawIo));
}

TEST(ServeRawIoTest, GloballyQualifiedCallFires) {
  const auto vs = Lint("src/doduo/serve/client.cc",
                      "void f(int fd) {\n  ::close(fd);\n}\n");
  EXPECT_TRUE(HasRule(vs, kRuleServeRawIo));
}

TEST(ServeRawIoTest, SocketIoWrapperFileIsExempt) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/serve/socket_io.cc",
                           "void f(int fd) {\n"
                           "  char buf[64];\n"
                           "  recv(fd, buf, sizeof(buf), 0);\n"
                           "  close(fd);\n"
                           "}\n"),
                       kRuleServeRawIo));
}

TEST(ServeRawIoTest, OtherTreesAreOutOfScope) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/core/trainer.cc",
                           "void f(int fd) {\n  close(fd);\n}\n"),
                       kRuleServeRawIo));
}

TEST(ServeRawIoTest, MemberFunctionsAndNonCallsAreQuiet) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/serve/batcher.cc",
                           "void f(Conn& c) {\n"
                           "  c.close();\n"
                           "  conn->send(frame);\n"
                           "  int poll = 3;\n"
                           "}\n"),
                       kRuleServeRawIo));
}

TEST(ServeRawIoTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/serve/server.cc",
                           "void f(int fd) {\n"
                           "  close(fd);  // NOLINT(serve-raw-io)\n"
                           "}\n"),
                       kRuleServeRawIo));
}

// -- raw-mutex --------------------------------------------------------------

TEST(RawMutexTest, StdMutexLockGuardCondVarFire) {
  const auto vs = Lint("src/doduo/serve/batcher.cc",
                      "std::mutex mu;\n"
                      "std::condition_variable cv;\n"
                      "void f() {\n"
                      "  std::lock_guard<std::mutex> lock(mu);\n"
                      "  std::unique_lock<std::mutex> ul(mu);\n"
                      "}\n");
  int raw_mutex = 0;
  for (const Violation& v : vs) {
    if (v.rule == kRuleRawMutex) ++raw_mutex;
  }
  // One finding per line: mutex decl, cv decl, lock_guard line,
  // unique_lock line (the template argument is the same finding).
  EXPECT_EQ(raw_mutex, 4);
}

TEST(RawMutexTest, DoduoUtilIsExempt) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/util/mutex.cc",
                           "std::mutex mu;\n"
                           "void f() { std::lock_guard<std::mutex> l(mu); }\n"),
                       kRuleRawMutex));
}

TEST(RawMutexTest, UtilMutexWrappersAndUnqualifiedNamesAreQuiet) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/serve/batcher.cc",
                           "util::Mutex mu{\"serve.batcher\"};\n"
                           "void f() {\n"
                           "  util::MutexLock lock(&mu);\n"
                           "  int mutex = 0;  // plain identifier, not std::\n"
                           "}\n"),
                       kRuleRawMutex));
}

TEST(RawMutexTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/core/x.cc",
                           "std::mutex mu;  // NOLINT(raw-mutex)\n"),
                       kRuleRawMutex));
}

// -- detached-thread --------------------------------------------------------

TEST(DetachedThreadTest, DetachCallFires) {
  EXPECT_TRUE(HasRule(Lint("tools/doduo_serve.cc",
                          "void f() {\n"
                          "  std::thread t([] {});\n"
                          "  t.detach();\n"
                          "}\n"),
                      kRuleDetachedThread));
  EXPECT_TRUE(HasRule(Lint("src/doduo/serve/server.cc",
                          "void f(std::thread* t) { t->detach(); }\n"),
                      kRuleDetachedThread));
}

TEST(DetachedThreadTest, JoinAndNonMemberDetachAreQuiet) {
  EXPECT_FALSE(HasRule(Lint("src/doduo/serve/server.cc",
                           "void detach(int);\n"
                           "void f(std::thread& t) {\n"
                           "  t.join();\n"
                           "  detach(3);\n"
                           "}\n"),
                       kRuleDetachedThread));
}

TEST(DetachedThreadTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(Lint("tools/x.cc",
                           "void f(std::thread& t) {\n"
                           "  t.detach();  // NOLINT(detached-thread)\n"
                           "}\n"),
                       kRuleDetachedThread));
}

// -- sleep-sync -------------------------------------------------------------

TEST(SleepSyncTest, SleepForInServeTestsFires) {
  EXPECT_TRUE(HasRule(
      Lint("tests/serve/server_test.cc",
          "void f() {\n"
          "  std::this_thread::sleep_for(std::chrono::milliseconds(50));\n"
          "}\n"),
      kRuleSleepSync));
  EXPECT_TRUE(HasRule(Lint("tests/serve/batcher_test.cc",
                          "void f(auto t) { std::this_thread::sleep_until(t); }\n"),
                      kRuleSleepSync));
}

TEST(SleepSyncTest, OutsideServeTestsIsOutOfScope) {
  EXPECT_FALSE(HasRule(
      Lint("tests/util/thread_pool_test.cc",
          "void f() {\n"
          "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
          "}\n"),
      kRuleSleepSync));
}

TEST(SleepSyncTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      Lint("tests/serve/server_test.cc",
          "void f() {\n"
          "  std::this_thread::sleep_for(delay);  // NOLINT(sleep-sync)\n"
          "}\n"),
      kRuleSleepSync));
}

// -- quant-no-float-in-int8-kernel ------------------------------------------

TEST(QuantNoFloatTest, FloatTypeInsideInt8KernelFires) {
  EXPECT_TRUE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "int32_t Int8DotKernelScalar(const int8_t* a, const int8_t* b,\n"
          "                            int64_t k) {\n"
          "  float acc = 0;\n"
          "  return static_cast<int32_t>(acc);\n"
          "}\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, FloatLiteralInsideInt8KernelFires) {
  EXPECT_TRUE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "int32_t Int8DotKernelSse2(const int8_t* a, const int8_t* b,\n"
          "                          int64_t k) {\n"
          "  int32_t acc = static_cast<int32_t>(k * 1.5);\n"
          "  return acc;\n"
          "}\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, PackedFloatIntrinsicFires) {
  EXPECT_TRUE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "int32_t Int8DotKernelAvx2(const int8_t* a, const int8_t* b,\n"
          "                          int64_t k) {\n"
          "  __m128 v = _mm_setzero_ps();\n"
          "  return _mm_cvtss_si32(v);\n"
          "}\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, IntegerOnlyKernelIsClean) {
  EXPECT_FALSE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "int32_t Int8DotKernelScalar(const int8_t* a, const int8_t* b,\n"
          "                            int64_t k) {\n"
          "  int32_t acc = 0;\n"
          "  for (int64_t i = 0; i < k; ++i) acc += a[i] * b[i];\n"
          "  return acc;\n"
          "}\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, DequantEpilogueOutsideKernelIsOutOfScope) {
  // Float math in the differently-named caller is the designed split.
  EXPECT_FALSE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "void Int8Linear(const float* sx, float* y, int64_t n) {\n"
          "  for (int64_t j = 0; j < n; ++j) y[j] = sx[j] * 0.5f;\n"
          "}\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, DeclarationWithoutBodyIsOutOfScope) {
  EXPECT_FALSE(HasRule(
      Lint("src/doduo/nn/quant.h",
          "int32_t Int8DotKernelScalar(const int8_t* a, const int8_t* b,\n"
          "                            int64_t k);\n"
          "double Unrelated(double x);\n"),
      kRuleQuantNoFloat));
}

TEST(QuantNoFloatTest, NolintSuppresses) {
  EXPECT_FALSE(HasRule(
      Lint("src/doduo/nn/quant.cc",
          "int32_t Int8DotKernelScalar(const int8_t* a, const int8_t* b,\n"
          "                            int64_t k) {\n"
          "  float acc = 0;  // NOLINT(quant-no-float-in-int8-kernel)\n"
          "  return static_cast<int32_t>(acc);\n"
          "}\n"),
      kRuleQuantNoFloat));
}

// -- NOLINT mechanics -------------------------------------------------------

TEST(NolintTest, BareNolintSilencesEveryRuleOnTheLine) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.cc",
                  "void f() { int* p = new int; }  // NOLINT\n")
                  .empty());
}

TEST(NolintTest, ListedRuleSilencesOnlyThatRule) {
  const auto vs = Lint("src/doduo/nn/x.cc",
                      "void f() { int* p = new int; std::abort(); }"
                      "  // NOLINT(no-naked-new)\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, kRuleNoAbort);
}

TEST(NolintTest, MultipleRulesInOneAnnotation) {
  EXPECT_TRUE(Lint("src/doduo/nn/x.cc",
                  "void f() { int* p = new int; std::abort(); }"
                  "  // NOLINT(no-naked-new, no-abort)\n")
                  .empty());
}

TEST(NolintTest, MultiLineStatementAcceptsNolintOnAnyOfItsLines) {
  // The call spans three lines; the escape sits on the last one, where the
  // offending argument actually is. The report anchors to the first line,
  // but the whole call span honors the annotation.
  const auto vs = Lint("src/doduo/serve/server.cc",
                       "void f() {\n"
                       "  send(\n"
                       "      fd, buf,\n"
                       "      n, 0);  // NOLINT(serve-raw-io)\n"
                       "}\n");
  EXPECT_FALSE(HasRule(vs, kRuleServeRawIo));
}

TEST(NolintTest, MultiLineStatementWithoutNolintStillFires) {
  const auto vs = Lint("src/doduo/serve/server.cc",
                       "void f() {\n"
                       "  send(\n"
                       "      fd, buf,\n"
                       "      n, 0);\n"
                       "}\n");
  ASSERT_TRUE(HasRule(vs, kRuleServeRawIo));
  EXPECT_EQ(vs[0].line, 2);  // anchored where the call starts
}

// -- Deduplication ----------------------------------------------------------

TEST(DedupeTest, TwoOffendersOnOneLineAreOneFinding) {
  const auto vs = Lint("src/doduo/core/x.cc",
                       "void f() { std::abort(); std::abort(); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, kRuleNoAbort);
}

TEST(DedupeTest, DistinctRulesOnOneLineBothSurvive) {
  const auto vs = Lint("src/doduo/nn/x.cc",
                       "void f() { int* p = new int; std::abort(); }\n");
  EXPECT_TRUE(HasRule(vs, kRuleNoNakedNew));
  EXPECT_TRUE(HasRule(vs, kRuleNoAbort));
}

TEST(DedupeTest, SameRuleOnDistinctLinesBothSurvive) {
  const auto vs = Lint("src/doduo/core/x.cc",
                       "void f() {\n  std::abort();\n  std::abort();\n}\n");
  EXPECT_EQ(vs.size(), 2u);
}

// -- Formatting -------------------------------------------------------------

TEST(FormatViolationTest, MatchesFileLineRuleMessage) {
  Violation v{"src/doduo/nn/x.cc", 7, "no-naked-new", "naked 'new'"};
  EXPECT_EQ(FormatViolation(v), "src/doduo/nn/x.cc:7: no-naked-new naked 'new'");
}

}  // namespace
}  // namespace doduo::lint
