#ifndef DODUO_UTIL_STRING_UTIL_H_
#define DODUO_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "doduo/util/status.h"

namespace doduo::util {

/// Splits `text` on `delimiter`; consecutive delimiters yield empty pieces.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Splits on any run of ASCII whitespace; never yields empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `pieces` with `separator`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// True if every character is an ASCII digit (and the string is non-empty).
bool IsAsciiDigits(std::string_view text);

/// Parses the value of the numeric command-line flag `flag`: all of `text`
/// must be a base-10 integer in [min_value, max_value]. Anything else — an
/// empty value, trailing text ("4x"), overflow, out of range — is
/// InvalidArgument with a message for the user, e.g. "--threads expects an
/// integer >= 1, got '4x'" (the message leaves out an upper bound of
/// INT_MAX or more).
Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min_value, int64_t max_value);

/// True if the whole string parses as an integer or decimal number,
/// tolerating one sign, one decimal point, and thousands separators.
bool LooksNumeric(std::string_view text);

/// Formats `value` with `digits` decimal places ("%.*f").
std::string FormatDouble(double value, int digits);

/// Formats a fraction as a percentage with `digits` decimals, e.g. "92.45".
std::string FormatPercent(double fraction, int digits);

/// Number of UTF-8 code points in `text` (counts non-continuation bytes, so
/// each malformed byte counts as one code point rather than derailing).
size_t Utf8Length(std::string_view text);

/// True when `text` is well-formed UTF-8: no truncated or overlong
/// sequences, no surrogate code points, nothing above U+10FFFF.
bool Utf8IsValid(std::string_view text);

/// Copy of `text` with every ill-formed UTF-8 sequence replaced by U+FFFD
/// (one replacement per maximal invalid subsequence, the W3C/WHATWG
/// policy): truncated sequences, stray continuation bytes, overlong
/// encodings, surrogates, and out-of-range code points all repair instead
/// of flowing byte-sliced into downstream tokenization.
std::string Utf8Repair(std::string_view text);

/// Longest prefix of `text` of at most `max_bytes` bytes that does not end
/// mid-code-point (well-formed input is never split inside a sequence).
std::string_view Utf8ClampBytes(std::string_view text, size_t max_bytes);

/// Levenshtein edit distance between two strings.
size_t EditDistance(std::string_view a, std::string_view b);

/// Character n-grams of length `n` (with padding markers '^' and '$' when
/// `pad` is true); returns an empty vector for strings shorter than `n`
/// after padding.
std::vector<std::string> CharNgrams(std::string_view text, size_t n, bool pad);

}  // namespace doduo::util

#endif  // DODUO_UTIL_STRING_UTIL_H_
