#include "doduo/util/string_util.h"

#include "gtest/gtest.h"

namespace doduo::util {
namespace {

TEST(SplitTest, BasicAndEmptyPieces) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo 123!"), "hello 123!");
}

TEST(TrimTest, Basic) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(PrefixSuffixTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(IsAsciiDigitsTest, Basic) {
  EXPECT_TRUE(IsAsciiDigits("0123456789"));
  EXPECT_FALSE(IsAsciiDigits(""));
  EXPECT_FALSE(IsAsciiDigits("12a"));
  EXPECT_FALSE(IsAsciiDigits("-12"));
}

TEST(LooksNumericTest, AcceptsNumbers) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-42"));
  EXPECT_TRUE(LooksNumeric("+3.14"));
  EXPECT_TRUE(LooksNumeric("1,234,567"));
  EXPECT_TRUE(LooksNumeric("  19.99 "));
}

TEST(LooksNumericTest, RejectsNonNumbers) {
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("abc"));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric(",5"));
  EXPECT_FALSE(LooksNumeric("-"));
  EXPECT_FALSE(LooksNumeric("12e4"));  // scientific notation not accepted
}

TEST(FormatTest, DoubleAndPercent) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatPercent(0.9245, 2), "92.45");
  EXPECT_EQ(FormatPercent(1.0, 1), "100.0");
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
  EXPECT_EQ(EditDistance("ab", "ba"), 2u);
}

TEST(Utf8ValidityTest, RecognizesWellAndIllFormedSequences) {
  EXPECT_TRUE(Utf8IsValid(""));
  EXPECT_TRUE(Utf8IsValid("plain ascii"));
  EXPECT_TRUE(Utf8IsValid("caf\xC3\xA9"));              // U+00E9
  EXPECT_TRUE(Utf8IsValid("\xE4\xB8\xAD\xE6\x96\x87"));  // 中文
  EXPECT_TRUE(Utf8IsValid("\xF0\x9F\x98\x80"));          // U+1F600
  EXPECT_FALSE(Utf8IsValid("\xC3"));              // truncated 2-byte
  EXPECT_FALSE(Utf8IsValid("abc\xE4\xB8"));       // truncated 3-byte
  EXPECT_FALSE(Utf8IsValid("\x80"));              // stray continuation
  EXPECT_FALSE(Utf8IsValid("\xC0\xAF"));          // overlong '/'
  EXPECT_FALSE(Utf8IsValid("\xE0\x80\xAF"));      // overlong 3-byte
  EXPECT_FALSE(Utf8IsValid("\xED\xA0\x80"));      // UTF-16 surrogate
  EXPECT_FALSE(Utf8IsValid("\xF4\x90\x80\x80"));  // above U+10FFFF
  EXPECT_FALSE(Utf8IsValid("\xFF"));              // invalid lead byte
}

TEST(Utf8ValidityTest, AsciiRunsOfEveryLengthAroundEveryByte) {
  // Utf8IsValid clears all-ASCII text with word loads that overlap at the
  // tail; a byte at any offset, after any run length, must still be judged
  // as the sequence walk of Utf8Repair judges it (valid exactly when
  // repair is a no-op).
  for (size_t before = 0; before < 18; ++before) {
    for (int byte = 0; byte < 256; ++byte) {
      for (const std::string& tail : {std::string(), std::string("\xA9"),
                                      std::string("abcdefghij")}) {
        const std::string text =
            std::string(before, 'a') + static_cast<char>(byte) + tail;
        EXPECT_EQ(Utf8IsValid(text), Utf8Repair(text) == text)
            << "run " << before << " byte " << byte;
      }
    }
  }
}

TEST(Utf8RepairTest, ValidTextIsUntouched) {
  EXPECT_EQ(Utf8Repair("plain"), "plain");
  EXPECT_EQ(Utf8Repair("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(Utf8Repair(""), "");
}

TEST(Utf8RepairTest, InvalidSequencesBecomeReplacementChar) {
  const std::string fffd = "\xEF\xBF\xBD";
  EXPECT_EQ(Utf8Repair("\xC3"), fffd);                   // truncated at end
  EXPECT_EQ(Utf8Repair("a\xC3z"), "a" + fffd + "z");     // truncated mid-text
  EXPECT_EQ(Utf8Repair("\xC0\xAF"), fffd);               // overlong, one FFFD
  EXPECT_EQ(Utf8Repair("\x80\x80x"), fffd + "x");        // stray continuations
  EXPECT_EQ(Utf8Repair("\xED\xA0\x80!"), fffd + "!");    // surrogate
  EXPECT_TRUE(Utf8IsValid(Utf8Repair("\xF5\x9F\x98\x80\xE4\xB8")));
}

TEST(Utf8RepairTest, RepairedTextAlwaysValidates) {
  // Every 2-byte combination repairs to well-formed UTF-8.
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 11) {
      const char bytes[2] = {static_cast<char>(a), static_cast<char>(b)};
      EXPECT_TRUE(Utf8IsValid(Utf8Repair(std::string_view(bytes, 2))));
    }
  }
}

TEST(Utf8ClampBytesTest, NeverSplitsASequence) {
  EXPECT_EQ(Utf8ClampBytes("abcdef", 3), "abc");
  EXPECT_EQ(Utf8ClampBytes("ab", 10), "ab");
  // "caf\xC3\xA9" clamped to 4 bytes must drop the whole 2-byte sequence.
  EXPECT_EQ(Utf8ClampBytes("caf\xC3\xA9", 4), "caf");
  EXPECT_EQ(Utf8ClampBytes("caf\xC3\xA9", 5), "caf\xC3\xA9");
  // 4-byte emoji: any cut inside it backs off to its start.
  const std::string emoji = "x\xF0\x9F\x98\x80";
  for (size_t cut = 1; cut < 5; ++cut) {
    EXPECT_EQ(Utf8ClampBytes(emoji, cut), "x") << "cut=" << cut;
  }
}

TEST(ParseIntFlagTest, AcceptsOnlyWholeIntegersInRange) {
  EXPECT_EQ(ParseIntFlag("--n", "0", 0, 10).value(), 0);
  EXPECT_EQ(ParseIntFlag("--n", "10", 0, 10).value(), 10);
  EXPECT_EQ(ParseIntFlag("--n", "-3", -5, 5).value(), -3);
  for (const char* bad : {"", "4x", "x", " 4", "4 ", "+4", "1e3", "11", "-1",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseIntFlag("--n", bad, 0, 10).ok()) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseIntFlag("--port", "80x", 0, 65535).status().message(),
            "--port expects an integer in [0, 65535], got '80x'");
  EXPECT_EQ(ParseIntFlag("--threads", "0", 1, 2147483647).status().message(),
            "--threads expects an integer >= 1, got '0'");
}

TEST(CharNgramsTest, PaddedAndUnpadded) {
  auto grams = CharNgrams("ab", 2, /*pad=*/true);  // "^ab$"
  EXPECT_EQ(grams, (std::vector<std::string>{"^a", "ab", "b$"}));
  auto unpadded = CharNgrams("abc", 2, /*pad=*/false);
  EXPECT_EQ(unpadded, (std::vector<std::string>{"ab", "bc"}));
  EXPECT_TRUE(CharNgrams("a", 4, /*pad=*/true).empty());
}

}  // namespace
}  // namespace doduo::util
