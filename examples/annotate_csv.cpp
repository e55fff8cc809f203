// Annotate a CSV file's columns with semantic types.
//
//   ./build/examples/annotate_csv [path/to/file.csv]
//
// Without an argument, a demo CSV is written to a temporary file first.
// The model is fine-tuned on the synthetic WikiTable benchmark, then
// applied to the CSV — mirroring how the released toolbox is used on
// arbitrary user tables.

#include <cstdio>
#include <string>

#include "doduo/core/annotator.h"
#include "doduo/experiments/runners.h"
#include "doduo/util/csv.h"
#include "doduo/util/env.h"

namespace {

// Returns the demo CSV path, or an empty string when it cannot be written
// (main then exits with an error instead of calling std::exit here — the
// no-abort lint rule keeps process control in main).
std::string WriteDemoCsv() {
  const std::string path = "/tmp/doduo_demo.csv";
  doduo::util::CsvRows rows = {
      {"title", "who", "where"},
      {"golden journey", "max browne", "australia"},
      {"frozen harvest", "thomas tyner", "france"},
      {"lost horizon", "derrick henry", "usa"},
  };
  const auto status = doduo::util::WriteCsvFile(path, rows);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write demo CSV: %s\n",
                 status.ToString().c_str());
    return std::string();
  }
  std::printf("no CSV given; wrote a demo file to %s\n", path.c_str());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace doduo::experiments;

  const std::string path = argc > 1 ? argv[1] : WriteDemoCsv();
  if (path.empty()) return 1;

  // Load the CSV as a table (first row = header).
  auto rows = doduo::util::ReadCsvFile(path);
  if (!rows.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                 rows.status().ToString().c_str());
    return 1;
  }
  auto table_result = doduo::table::TableFromCsvRows(
      rows.value(), /*has_header=*/true, path);
  if (!table_result.ok()) {
    std::fprintf(stderr, "failed to parse table: %s\n",
                 table_result.status().ToString().c_str());
    return 1;
  }
  const doduo::table::Table& table = table_result.value();
  std::printf("loaded %s: %d columns x %d rows\n", path.c_str(),
              table.num_columns(), table.num_rows());

  // Train the annotator on the synthetic WikiTable benchmark.
  EnvOptions options;
  options.mode = BenchmarkMode::kWikiTable;
  options.num_tables = Scaled(600);
  options.seed = doduo::util::ExperimentSeed();
  Env env(options);
  DoduoVariant variant;
  variant.epochs = 20;
  DoduoRun run = RunDoduo(&env, variant);

  doduo::core::Annotator annotator(run.model.get(), run.serializer.get(),
                                   &env.dataset().type_vocab,
                                   &env.dataset().relation_vocab);
  // The CSV came from the user, so surface annotation errors instead of
  // unwrapping with .value().
  auto types_result = annotator.AnnotateTypes(table);
  if (!types_result.ok()) {
    std::fprintf(stderr, "cannot annotate %s: %s\n", path.c_str(),
                 types_result.status().ToString().c_str());
    return 1;
  }
  const auto types = std::move(types_result).value();
  std::printf("\npredicted column types:\n");
  for (int c = 0; c < table.num_columns(); ++c) {
    std::printf("  %-16s ->", table.column(c).name.c_str());
    for (const std::string& name : types[static_cast<size_t>(c)]) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  if (table.num_columns() > 1) {
    // Relations see the whole table at once, so a table the type path
    // chunked can still be too wide for them.
    auto relations_result = annotator.AnnotateKeyRelations(table);
    if (!relations_result.ok()) {
      std::fprintf(stderr, "cannot annotate relations of %s: %s\n",
                   path.c_str(), relations_result.status().ToString().c_str());
      return 1;
    }
    const auto relations = std::move(relations_result).value();
    std::printf("predicted relations from column '%s':\n",
                table.column(0).name.c_str());
    for (size_t c = 0; c < relations.size(); ++c) {
      std::printf("  -> %-16s %s\n",
                  table.column(static_cast<int>(c) + 1).name.c_str(),
                  relations[c].c_str());
    }
  }
  return 0;
}
