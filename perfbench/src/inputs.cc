#include "src/inputs.h"

#include <algorithm>
#include <numeric>

#include "doduo/synth/corruption.h"
#include "doduo/synth/table_generator.h"
#include "doduo/util/csv.h"
#include "doduo/util/rng.h"

namespace perfbench {

namespace {

using doduo::synth::KnowledgeBase;

std::vector<std::string> LabelNames(const KnowledgeBase& kb, int type_id) {
  std::vector<std::string> names = {kb.type(type_id).name};
  for (const std::string& extra : kb.type(type_id).extra_labels) {
    names.push_back(extra);
  }
  return names;
}

std::string HeaderName(const std::string& name, int column) {
  return name.empty() ? "col" + std::to_string(column) : name;
}

/// Rows of `table` with a header row first (columns may be ragged; short
/// columns are padded with empty cells).
doduo::util::CsvRows ToRows(const doduo::table::Table& table) {
  doduo::util::CsvRows rows;
  std::vector<std::string> header;
  for (int c = 0; c < table.num_columns(); ++c) {
    header.push_back(HeaderName(table.column(c).name, c));
  }
  rows.push_back(std::move(header));
  for (int r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < table.num_columns(); ++c) {
      const auto& values = table.column(c).values;
      row.push_back(static_cast<size_t>(r) < values.size()
                        ? values[static_cast<size_t>(r)]
                        : std::string());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A permutation of [0, n) that does not depend on the workload seed, so
/// every seed runs the same sequence of table shapes.
std::vector<int> FixedOrder(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  doduo::util::Rng rng(0x5ca1ab1e);
  rng.Shuffle(&p);
  return p;
}

const char* const kNullMarkers[] = {"", "null", "N/A", "NaN", "-"};

}  // namespace

std::vector<BenchTable> GenerateWebTables(const KnowledgeBase& kb,
                                          uint64_t seed, int count) {
  // Fixed shape schedule: table i gets a cell of the 3..30 x 2..8 grid in
  // an order that is the same for every seed (a fixed shuffle, so batches
  // mix sizes); the seed picks topics and entities. (Topics with fewer
  // related types cap the column count, as in the training data.)
  doduo::util::Rng rng(seed);
  constexpr int kRowSpan = kWebMaxRows - kWebMinRows + 1;
  constexpr int kColSpan = kWebMaxCols - kWebMinCols + 1;
  const std::vector<int> order = FixedOrder(count);
  std::vector<BenchTable> out;
  out.reserve(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    const int cell = order[static_cast<size_t>(t)] % (kRowSpan * kColSpan);
    doduo::synth::TableGeneratorOptions options;
    options.dataset_name = "wikitable";
    options.num_tables = 1;
    options.min_rows = options.max_rows = kWebMinRows + cell % kRowSpan;
    options.min_cols = options.max_cols = kWebMinCols + cell / kRowSpan;
    options.multi_label = true;
    options.with_relations = false;
    const doduo::synth::TableGenerator generator(&kb, options);
    doduo::util::Rng table_rng = rng.Fork();
    const doduo::table::ColumnAnnotationDataset dataset =
        generator.Generate(&table_rng);
    const auto& annotated = dataset.tables.front();
    BenchTable table;
    table.id = "web" + std::to_string(t);
    table.csv = doduo::util::WriteCsvString(ToRows(annotated.table));
    for (const auto& ids : annotated.column_types) {
      std::vector<std::string> names;
      for (int id : ids) names.push_back(dataset.type_vocab.Name(id));
      table.labels.push_back(std::move(names));
    }
    out.push_back(std::move(table));
  }
  return out;
}

std::vector<BenchTable> GenerateLakeTables(const KnowledgeBase& kb,
                                           uint64_t seed, int count,
                                           DirtCounts* dirt) {
  doduo::util::Rng rng(seed);
  DirtCounts local;
  DirtCounts& d = dirt != nullptr ? *dirt : local;

  // Fixed table layout (the same for every seed): narrow shape j pairs
  // evenly spread row counts with column counts cycling through 3..12,
  // topics are dealt round-robin and the remaining columns, like the wide
  // tables', cycle through every type, and every tenth column is
  // null-heavy. The seed picks the cells and the rest of the dirt.
  const int num_wide = count / 10;
  const int num_narrow = count - num_wide;
  const std::vector<int> order = FixedOrder(count);
  constexpr int kNullHeavyEvery =
      static_cast<int>(1.0 / kLakeNullHeavyColumnRate + 0.5);
  int column_serial = 0;

  std::vector<BenchTable> out;
  out.reserve(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    const int slot = order[static_cast<size_t>(t)];
    const bool wide = slot < num_wide;
    int rows = 0;
    int cols = 0;
    if (wide) {
      const int span = std::max(1, num_wide - 1);
      rows = 2000 + 2000 * slot / span;
      cols = 100 + 100 * (num_wide - 1 - slot) / span;
    } else {
      const int j = slot - num_wide;
      rows = 2000 + 18000 * j / std::max(1, num_narrow - 1);
      cols = 3 + (7 * j) % 10;
    }

    // Column types: a topic's key and related types first (what web tables
    // look like), then types in turn from the whole KB.
    std::vector<int> types;
    if (!wide && !kb.topics().empty()) {
      const auto& topic =
          kb.topics()[static_cast<size_t>(slot) % kb.topics().size()];
      if (topic.key_type >= 0) types.push_back(topic.key_type);
      types.insert(types.end(), topic.other_types.begin(),
                   topic.other_types.end());
    }
    for (int k = 0; static_cast<int>(types.size()) < cols; ++k) {
      types.push_back((slot + k) % kb.num_types());
    }
    types.resize(static_cast<size_t>(cols));

    BenchTable bench;
    bench.id = "lake" + std::to_string(t);
    doduo::table::Table table(bench.id);
    for (int c = 0; c < cols; ++c) {
      const int type_id = types[static_cast<size_t>(c)];
      const auto& pool = kb.type(type_id).entities;
      doduo::table::Column column;
      column.name = KnowledgeBase::LeafWord(kb.type(type_id).name) + "_" +
                    std::to_string(c);
      column.values.reserve(static_cast<size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        column.values.push_back(pool[rng.NextUint64(pool.size())]);
      }
      table.AddColumn(std::move(column));
      bench.labels.push_back(LabelNames(kb, type_id));
    }

    doduo::synth::CorruptionOptions corruption;
    corruption.typo_prob = kLakeTypoRate;
    corruption.misplace_prob = kLakeMisplaceRate;
    doduo::synth::CorruptTable(&table, corruption, &rng);

    for (int c = 0; c < cols; ++c) {
      auto& values = table.mutable_column(c).values;
      ++d.columns;
      // Every tenth column position, counted across all tables, is
      // null-heavy; skipped columns re-cut the chunks of wide tables, so a
      // seed-dependent choice would move type_f1 between seeds.
      if ((column_serial++) % kNullHeavyEvery == kNullHeavyEvery - 1) {
        ++d.null_heavy_columns;
        for (std::string& v : values) {
          if (rng.Bernoulli(0.95)) v = kNullMarkers[rng.NextUint64(5)];
        }
        continue;
      }
      for (std::string& v : values) {
        ++d.cells;
        if (rng.Bernoulli(kLakeInvalidUtf8CellRate)) {
          ++d.invalid_utf8_cells;
          // A lone continuation byte or a truncated two-byte sequence.
          v += rng.Bernoulli(0.5) ? "\x80" : "\xC3";
        }
      }
    }

    doduo::util::CsvRows csv_rows = ToRows(table);
    doduo::util::CsvRows with_echoes;
    with_echoes.reserve(csv_rows.size() + csv_rows.size() / 500 + 1);
    with_echoes.push_back(csv_rows[0]);
    for (size_t r = 1; r < csv_rows.size(); ++r) {
      if (rng.Bernoulli(kLakeHeaderEchoRowRate)) {
        with_echoes.push_back(csv_rows[0]);
        ++d.header_echo_rows;
      }
      with_echoes.push_back(std::move(csv_rows[r]));
      ++d.rows;
    }
    std::string text = doduo::util::WriteCsvString(with_echoes);

    const int64_t ending = rng.UniformInt(0, 2);  // LF, CRLF, bare CR
    if (ending != 0) {
      std::string converted;
      converted.reserve(text.size() + (ending == 1 ? text.size() / 8 : 0));
      for (char ch : text) {
        if (ch == '\n') {
          converted += ending == 1 ? "\r\n" : "\r";
        } else {
          converted.push_back(ch);
        }
      }
      text = std::move(converted);
      ++(ending == 1 ? d.crlf : d.bare_cr);
    }
    if (rng.Bernoulli(kLakeBomRate)) {
      text.insert(0, "\xEF\xBB\xBF");
      ++d.bom;
    }
    if (wide) ++d.wide_tables;
    ++d.tables;
    bench.csv = std::move(text);
    out.push_back(std::move(bench));
  }
  return out;
}

}  // namespace perfbench
