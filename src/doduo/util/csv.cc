#include "doduo/util/csv.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace doduo::util {

namespace {

// Bytes that end an unquoted run: the delimiter, a quote, a line break.
constexpr std::array<bool, 256> kSpecial = [] {
  std::array<bool, 256> special{};
  for (unsigned char c : {',', '"', '\r', '\n'}) special[c] = true;
  return special;
}();

// High bit set in each byte of `word` equal to `c`. Exact for the lowest
// such byte: a borrow only ever flags bytes above a true match.
constexpr uint64_t MatchBytes(uint64_t word, char c) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  const uint64_t x = word ^ (kOnes * static_cast<unsigned char>(c));
  return (x - kOnes) & ~x & (kOnes << 7);
}

// Index of the first special byte in [begin, size), or size. Eight bytes
// at a time on little-endian hosts, where the lowest flagged bit is the
// first match in memory order.
size_t EndOfRun(const char* data, size_t begin, size_t size) {
  size_t i = begin;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= size; i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, data + i, 8);
      const uint64_t hits = MatchBytes(word, ',') | MatchBytes(word, '"') |
                            MatchBytes(word, '\r') | MatchBytes(word, '\n');
      if (hits != 0) {
        return i + static_cast<size_t>(std::countr_zero(hits)) / 8;
      }
    }
  }
  while (i < size && !kSpecial[static_cast<unsigned char>(data[i])]) ++i;
  return i;
}

}  // namespace

Result<CsvRows> ParseCsv(std::string_view text) {
  // Strip a leading UTF-8 byte-order mark: spreadsheet exports routinely
  // prepend one, and without this the BOM bytes would be glued onto the
  // first header name (corrupting every lookup of that column).
  if (text.size() >= 3 && text[0] == '\xEF' && text[1] == '\xBB' &&
      text[2] == '\xBF') {
    text.remove_prefix(3);
  }
  // Cells grow by whole spans: an unquoted run up to the next special byte,
  // or the stretch of a quoted cell up to its next quote.
  const char* const data = text.data();
  const size_t size = text.size();
  CsvRows rows;
  std::vector<std::string> row;
  std::string cell;
  bool cell_started = false;  // True once the current row has any content.
  bool quote_closed = false;  // A quoted cell just ended; only a delimiter
                              // (comma, newline, EOF) may follow (RFC 4180).
  bool cell_in_row = false;   // The current cell was built in `row`.

  auto end_cell = [&]() {
    if (!cell_in_row) row.push_back(std::move(cell));
    cell.clear();
    cell_in_row = false;
    quote_closed = false;
  };
  auto end_row = [&]() {
    end_cell();
    const size_t width = row.size();
    rows.push_back(std::move(row));
    row = {};
    row.reserve(width);  // rows of one file are usually as wide as the last
    cell_started = false;
  };

  size_t i = 0;
  while (i < size) {
    const char c = data[i];
    if (quote_closed && c != ',' && c != '\r' && c != '\n') {
      return Status::InvalidArgument(
          "text after closing quote in cell " + std::to_string(row.size()) +
          " of row " + std::to_string(rows.size()) + " (offset " +
          std::to_string(i) + ", char '" + std::string(1, c) + "')");
    }
    switch (c) {
      case '"': {
        if (!cell.empty()) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV cell at offset " +
              std::to_string(i));
        }
        cell_started = true;
        ++i;
        // Inside quotes only a quote is special: a doubled one is a
        // literal quote, a single one closes the cell.
        for (;;) {
          const void* found = std::memchr(data + i, '"', size - i);
          if (found == nullptr) {
            return Status::InvalidArgument("unterminated quoted CSV cell");
          }
          const size_t quote = static_cast<size_t>(
              static_cast<const char*>(found) - data);
          cell.append(data + i, quote - i);
          if (quote + 1 < size && data[quote + 1] == '"') {
            cell.push_back('"');
            i = quote + 2;
          } else {
            i = quote + 1;
            break;
          }
        }
        quote_closed = true;
        break;
      }
      case ',':
        end_cell();
        cell_started = true;
        ++i;
        break;
      case '\r':
        // Consumed as part of CRLF; a bare CR is treated as a newline too.
        if (i + 1 < size && data[i + 1] == '\n') ++i;
        end_row();
        ++i;
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default: {
        const size_t end = EndOfRun(data, i + 1, size);
        // A run that the next byte ends is the whole cell: build it in
        // the row. A run followed by a quote stays in `cell`, so the
        // mid-cell quote check sees it.
        if (cell.empty() && (end == size || data[end] != '"')) {
          row.emplace_back(data + i, end - i);
          cell_in_row = true;
        } else {
          cell.append(data + i, end - i);
        }
        cell_started = true;
        i = end;
        break;
      }
    }
  }
  if (cell_started || !cell.empty() || !row.empty()) end_row();
  return rows;
}

Result<CsvRows> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string text;
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (!error && size > 0) {
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(in.gcount()));
  }
  // A pipe has no size, and a file can grow after it was sized: read
  // whatever is left to the end.
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return ParseCsv(text);
}

namespace {

bool NeedsQuoting(std::string_view cell) {
  return cell.find_first_of(",\"\n\r") != std::string_view::npos;
}

void AppendCell(std::string* out, std::string_view cell) {
  if (!NeedsQuoting(cell)) {
    out->append(cell);
    return;
  }
  out->push_back('"');
  for (char c : cell) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string WriteCsvString(const CsvRows& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendCell(&out, row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvRows& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::string text = WriteCsvString(rows);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

}  // namespace doduo::util
