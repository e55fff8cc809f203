#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

// Workload input generators. Every table reaches the program only as CSV
// text; the labels stay with the benchmark for scoring. The same seed
// always yields the same bytes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "doduo/synth/knowledge_base.h"

namespace perfbench {

/// Seed of the knowledge base the checked-in model was trained on
/// (`doduo_cli train --mode wikitable` at the default DODUO_SEED). The
/// entity surface forms, and so the model's vocabulary, depend on it.
inline constexpr uint64_t kModelKbSeed = 42;

struct BenchTable {
  std::string id;
  std::string csv;  // what the program is given
  /// Per column, the generator's true label names (primary type first).
  std::vector<std::vector<std::string>> labels;
};

inline constexpr int kWebMinRows = 3;
inline constexpr int kWebMaxRows = 30;
inline constexpr int kWebMinCols = 2;
inline constexpr int kWebMaxCols = 8;

/// Web-shaped tables: the WikiTable-KB topic generator at 2-8 columns and
/// 3-30 rows, written as clean LF-terminated CSV with a header row. Every
/// (rows, cols) pair of that grid occurs equally often (up to the last
/// partial round), in an order that is the same for every seed.
std::vector<BenchTable> GenerateWebTables(const doduo::synth::KnowledgeBase& kb,
                                          uint64_t seed, int count);

/// Dirt injected into the lake tables, counted for the self-test.
struct DirtCounts {
  size_t tables = 0;
  size_t bom = 0;
  size_t crlf = 0;
  size_t bare_cr = 0;
  size_t wide_tables = 0;
  size_t columns = 0;
  size_t null_heavy_columns = 0;
  size_t cells = 0;  // data cells of columns that are not null-heavy
  size_t invalid_utf8_cells = 0;
  size_t rows = 0;  // data rows, header echoes excluded
  size_t header_echo_rows = 0;
};

/// Rates of the lake generator (the self-test checks the output against
/// them).
inline constexpr double kLakeBomRate = 0.3;
inline constexpr double kLakeNullHeavyColumnRate = 0.1;
inline constexpr double kLakeInvalidUtf8CellRate = 0.01;
inline constexpr double kLakeHeaderEchoRowRate = 0.001;
inline constexpr double kLakeTypoRate = 0.02;
inline constexpr double kLakeMisplaceRate = 0.01;

/// Large dirty tables: 2k-20k rows and 3-12 columns, one table in ten
/// 100-200 columns wide (2k-4k rows, annotated in chunks; the wide shapes
/// are spread evenly over those ranges). Cells are drawn
/// with replacement from each column type's entity pool, then dirtied:
/// BOMs, CRLF or bare-CR line endings, invalid UTF-8 cells, null-heavy
/// columns, header rows echoed into the data, typos and misplaced cells.
/// Shapes and column types follow a fixed layout and the seed picks the
/// cells and the dirt, so the work per pass barely depends on the seed.
std::vector<BenchTable> GenerateLakeTables(
    const doduo::synth::KnowledgeBase& kb, uint64_t seed, int count,
    DirtCounts* dirt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
