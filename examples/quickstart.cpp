// Quickstart: the toolbox in ~40 effective lines.
//
// Builds a small WikiTable-style benchmark, fine-tunes a DODUO model on it
// (from an MLM-pre-trained encoder), and then annotates a brand-new table
// with column types and column relations — the paper's "few lines of
// Python" toolbox experience, in C++.
//
//   ./build/examples/quickstart
//
// Runtime: a couple of minutes on one CPU core (set DODUO_SCALE=0.5 to
// halve it).

#include <cstdio>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/experiments/runners.h"
#include "doduo/util/env.h"

int main() {
  using namespace doduo::experiments;

  // 1. A benchmark environment: synthetic knowledge base, labeled tables,
  //    WordPiece vocabulary, and a cached MLM-pre-trained encoder.
  EnvOptions options;
  options.mode = BenchmarkMode::kWikiTable;
  options.num_tables = Scaled(600);
  options.seed = doduo::util::ExperimentSeed();
  Env env(options);

  // 2. Fine-tune DODUO (multi-task: column types + column relations).
  DoduoVariant variant;
  variant.epochs = 20;
  DoduoRun run = RunDoduo(&env, variant);
  std::printf("fine-tuned: type micro F1 %.1f%%, relation micro F1 %.1f%%\n",
              100.0 * run.types.micro.f1, 100.0 * run.relations.micro.f1);

  // 3. Annotate a new table the model has never seen.
  doduo::table::Table table("demo");
  table.AddColumn({"", {"happy feet", "silent storm", "hidden valley"}});
  table.AddColumn({"", {"george miller", "judy morris", "warren coleman"}});
  table.AddColumn({"", {"usa", "france", "australia"}});

  doduo::core::Annotator annotator(run.model.get(), run.serializer.get(),
                                   &env.dataset().type_vocab,
                                   &env.dataset().relation_vocab);
  // Annotator calls return util::Result: check .ok()/.status() on untrusted
  // input, or .value() when the table is known-good (aborts on error).
  auto types_result = annotator.AnnotateTypes(table);
  if (!types_result.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n",
                 types_result.status().ToString().c_str());
    return 1;
  }
  const auto types = std::move(types_result).value();
  const auto relations = annotator.AnnotateKeyRelations(table).value();

  std::printf("\ncolumn annotations:\n");
  for (size_t c = 0; c < types.size(); ++c) {
    std::printf("  column %zu: ", c);
    for (size_t i = 0; i < types[c].size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "", types[c][i].c_str());
    }
    std::printf("\n");
  }
  std::printf("relations from the key column:\n");
  for (size_t c = 0; c < relations.size(); ++c) {
    std::printf("  (col 0, col %zu): %s\n", c + 1, relations[c].c_str());
  }

  // 4. Bulk annotation: hand the annotator many tables at once; every
  //    table is validated up front, then the forward passes fan out across
  //    the compute pool (DODUO_NUM_THREADS). Results are identical to
  //    looping AnnotateTypes table by table.
  std::vector<doduo::table::Table> fleet(4, table);
  const auto batch_types = annotator.AnnotateTypesBatch(fleet).value();
  std::printf("batch of %zu tables annotated; first column of each:\n",
              fleet.size());
  for (size_t t = 0; t < batch_types.size(); ++t) {
    std::printf("  table %zu: %s\n", t, batch_types[t][0][0].c_str());
  }
  return 0;
}
