#include "doduo/util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

namespace doduo::util {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> pieces;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) pieces.emplace_back(text.substr(start, i - start));
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return std::string(text.substr(begin, end - begin));
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool IsAsciiDigits(std::string_view text) {
  if (text.empty()) return false;
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min_value, int64_t max_value) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && !text.empty() &&
      value >= min_value && value <= max_value) {
    return value;
  }
  std::string bounds =
      max_value >= std::numeric_limits<int>::max()
          ? ">= " + std::to_string(min_value)
          : "in [" + std::to_string(min_value) + ", " +
                std::to_string(max_value) + "]";
  return Status::InvalidArgument(std::string(flag) + " expects an integer " +
                                 bounds + ", got '" + std::string(text) +
                                 "'");
}

bool LooksNumeric(std::string_view text) {
  std::string t = Trim(text);
  if (t.empty()) return false;
  size_t i = 0;
  if (t[0] == '+' || t[0] == '-') i = 1;
  bool saw_digit = false;
  bool saw_point = false;
  for (; i < t.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(t[i]);
    if (std::isdigit(c)) {
      saw_digit = true;
    } else if (c == '.' && !saw_point) {
      saw_point = true;
    } else if (c == ',') {
      // Thousands separator; accepted anywhere between digits.
      if (!saw_digit) return false;
    } else {
      return false;
    }
  }
  return saw_digit;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

std::string FormatPercent(double fraction, int digits) {
  return FormatDouble(100.0 * fraction, digits);
}

size_t Utf8Length(std::string_view text) {
  size_t count = 0;
  for (char c : text) {
    if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++count;
  }
  return count;
}

namespace {

/// True when no byte of `text` has its high bit set. Overlapping word loads
/// keep the short strings table cells usually are to a few branches.
bool IsAscii(std::string_view text) {
  const char* data = text.data();
  const size_t size = text.size();
  uint64_t bits = 0;
  if (size >= 8) {
    uint64_t word = 0;
    for (size_t i = 0; i + 8 <= size; i += 8) {
      std::memcpy(&word, data + i, 8);
      bits |= word;
    }
    std::memcpy(&word, data + size - 8, 8);
    bits |= word;
  } else if (size >= 4) {
    uint32_t head = 0;
    uint32_t tail = 0;
    std::memcpy(&head, data, 4);
    std::memcpy(&tail, data + size - 4, 4);
    bits = head | tail;
  } else {
    for (size_t i = 0; i < size; ++i) {
      bits |= static_cast<unsigned char>(data[i]);
    }
  }
  return (bits & 0x8080808080808080ULL) == 0;
}

/// Length of the well-formed UTF-8 sequence starting at `text[pos]`, or 0
/// when the bytes there are ill-formed (truncated, overlong, a surrogate,
/// or above U+10FFFF). Follows the Unicode 15 table of valid byte ranges.
size_t Utf8SequenceLength(std::string_view text, size_t pos) {
  const auto byte = [&](size_t i) {
    return static_cast<unsigned char>(text[i]);
  };
  const unsigned char lead = byte(pos);
  if (lead < 0x80) return 1;
  if (lead < 0xC2) return 0;  // continuation byte or overlong C0/C1 lead
  size_t need = 0;
  unsigned char lo = 0x80;
  unsigned char hi = 0xBF;
  if (lead < 0xE0) {
    need = 2;
  } else if (lead < 0xF0) {
    need = 3;
    if (lead == 0xE0) lo = 0xA0;        // reject overlong 3-byte forms
    if (lead == 0xED) hi = 0x9F;        // reject UTF-16 surrogates
  } else if (lead < 0xF5) {
    need = 4;
    if (lead == 0xF0) lo = 0x90;        // reject overlong 4-byte forms
    if (lead == 0xF4) hi = 0x8F;        // reject > U+10FFFF
  } else {
    return 0;  // F5..FF never appear in well-formed UTF-8
  }
  if (pos + need > text.size()) return 0;  // truncated at end of text
  if (byte(pos + 1) < lo || byte(pos + 1) > hi) return 0;
  for (size_t i = 2; i < need; ++i) {
    if ((byte(pos + i) & 0xC0) != 0x80) return 0;
  }
  return need;
}

}  // namespace

bool Utf8IsValid(std::string_view text) {
  if (IsAscii(text)) return true;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t len = Utf8SequenceLength(text, pos);
    if (len == 0) return false;
    pos += len;
  }
  return true;
}

std::string Utf8Repair(std::string_view text) {
  static constexpr char kReplacement[] = "\xEF\xBF\xBD";  // U+FFFD
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t len = Utf8SequenceLength(text, pos);
    if (len > 0) {
      out.append(text.substr(pos, len));
      pos += len;
      continue;
    }
    // One replacement per maximal invalid subsequence: skip the bad lead
    // byte plus any continuation bytes dangling behind it.
    out.append(kReplacement);
    ++pos;
    while (pos < text.size() &&
           (static_cast<unsigned char>(text[pos]) & 0xC0) == 0x80) {
      ++pos;
    }
  }
  return out;
}

std::string_view Utf8ClampBytes(std::string_view text, size_t max_bytes) {
  if (text.size() <= max_bytes) return text;
  size_t end = max_bytes;
  // Back off over continuation bytes so a multi-byte sequence is dropped
  // whole rather than split (at most 3 steps).
  while (end > 0 &&
         (static_cast<unsigned char>(text[end]) & 0xC0) == 0x80) {
    --end;
  }
  return text.substr(0, end);
}

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t substitution = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

std::vector<std::string> CharNgrams(std::string_view text, size_t n,
                                    bool pad) {
  std::string padded;
  if (pad) {
    padded.reserve(text.size() + 2);
    padded.push_back('^');
    padded.append(text);
    padded.push_back('$');
  } else {
    padded.assign(text);
  }
  std::vector<std::string> grams;
  if (padded.size() < n) return grams;
  grams.reserve(padded.size() - n + 1);
  for (size_t i = 0; i + n <= padded.size(); ++i) {
    grams.emplace_back(padded.substr(i, n));
  }
  return grams;
}

}  // namespace doduo::util
