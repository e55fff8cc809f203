// Dirty tables for the overlay differential tests: a generated table run
// through synth::CorruptTable (blanks, typos that can split a multi-byte
// sequence, misplaced cells), then given what the sanitizer repairs and
// skips: ill-formed UTF-8 in cells and names, cells over the clamp length,
// mostly-null and header-echo columns.

#ifndef DODUO_TESTS_TABLE_DIRTY_TABLES_H_
#define DODUO_TESTS_TABLE_DIRTY_TABLES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "doduo/synth/corruption.h"
#include "doduo/table/table.h"
#include "doduo/util/rng.h"

namespace doduo::table {

inline Table MakeDirtyTable(Table table, size_t max_cell_bytes,
                            util::Rng* rng) {
  static const std::vector<std::string> kBad = {"\xC3", "\x80", "\xFF",
                                                "\xE4\xB8", "\xED\xA0\x80"};
  static const std::vector<std::string> kNulls = {"", "null", "N/A", " - "};
  synth::CorruptionOptions corruption;
  corruption.missing_prob = 0.1;
  corruption.typo_prob = 0.2;
  corruption.misplace_prob = 0.1;
  synth::CorruptTable(&table, corruption, rng);
  const auto bad = [&] { return kBad[rng->NextUint64(kBad.size())]; };
  for (int c = 0; c < table.num_columns(); ++c) {
    Column& column = table.mutable_column(c);
    if (rng->Bernoulli(0.3)) column.name += bad();
    const double shape = rng->UniformDouble(0.0, 1.0);
    for (std::string& cell : column.values) {
      if (shape < 0.1) {
        cell = kNulls[rng->NextUint64(kNulls.size())];  // mostly null
      } else if (shape < 0.2 && !column.name.empty()) {
        cell = " " + column.name + " ";  // header echo
      } else if (rng->Bernoulli(0.25)) {
        const size_t at = rng->NextUint64(cell.size() + 1);
        cell.insert(at, bad());
      } else if (rng->Bernoulli(0.15)) {
        // Over the clamp length, with a multi-byte sequence that the clamp
        // may land inside of.
        while (cell.size() <= max_cell_bytes + 8) cell += " caf\xC3\xA9 ok";
        if (rng->Bernoulli(0.5)) cell += bad();
      }
    }
  }
  return table;
}

}  // namespace doduo::table

#endif  // DODUO_TESTS_TABLE_DIRTY_TABLES_H_
