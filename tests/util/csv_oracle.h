// Test oracle for the CSV parser: the byte-at-a-time ParseCsv that the
// span-appending parser replaced, kept verbatim. ParseCsv must return the
// same rows, or the same Status code and message, on every input.

#ifndef DODUO_TESTS_UTIL_CSV_ORACLE_H_
#define DODUO_TESTS_UTIL_CSV_ORACLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "doduo/util/csv.h"
#include "doduo/util/status.h"

namespace doduo::util {

inline Result<CsvRows> OracleParseCsv(std::string_view text) {
  // Strip a leading UTF-8 byte-order mark: spreadsheet exports routinely
  // prepend one, and without this the BOM bytes would be glued onto the
  // first header name (corrupting every lookup of that column).
  if (text.size() >= 3 && text[0] == '\xEF' && text[1] == '\xBB' &&
      text[2] == '\xBF') {
    text.remove_prefix(3);
  }
  CsvRows rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;  // True once the current row has any content.
  bool quote_closed = false;  // A quoted cell just ended; only a delimiter
                              // (comma, newline, EOF) may follow (RFC 4180).

  auto end_cell = [&]() {
    row.push_back(std::move(cell));
    cell.clear();
    quote_closed = false;
  };
  auto end_row = [&]() {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
    cell_started = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          quote_closed = true;
        }
      } else {
        cell.push_back(c);
      }
      continue;
    }
    if (quote_closed && c != ',' && c != '\r' && c != '\n') {
      return Status::InvalidArgument(
          "text after closing quote in cell " + std::to_string(row.size()) +
          " of row " + std::to_string(rows.size()) + " (offset " +
          std::to_string(i) + ", char '" + std::string(1, c) + "')");
    }
    switch (c) {
      case '"':
        if (!cell.empty()) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV cell at offset " +
              std::to_string(i));
        }
        in_quotes = true;
        cell_started = true;
        break;
      case ',':
        end_cell();
        cell_started = true;
        break;
      case '\r':
        // Consumed as part of CRLF; a bare CR is treated as a newline too.
        if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
        end_row();
        break;
      case '\n':
        end_row();
        break;
      default:
        cell.push_back(c);
        cell_started = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV cell");
  }
  if (cell_started || !cell.empty() || !row.empty()) end_row();
  return rows;
}

}  // namespace doduo::util

#endif  // DODUO_TESTS_UTIL_CSV_ORACLE_H_
