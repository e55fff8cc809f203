// doduo_cli — train, persist, and apply column-annotation models.
//
//   doduo_cli train --out <dir> [--mode wikitable|viznet]
//       Builds the synthetic benchmark, fine-tunes DODUO, and saves a
//       self-contained model directory (weights, vocabulary, label
//       inventories, configuration).
//
//   doduo_cli annotate --model <dir> <file.csv>...
//       Loads a saved model and prints per-column semantic types (and
//       key-column relations when the model has a relation head). All
//       given CSVs are annotated in one AnnotateTypesBatch call, which fans
//       the tables out across model replicas when --threads allows.
//
//       Dirty-input flags (DESIGN §15): --outcomes switches to the robust
//       path, printing a calibrated confidence, an abstention, or a
//       machine-readable skip reason per column instead of failing the
//       table; --abstain-below T drops predictions whose calibrated
//       confidence is below T; --no-sanitize disables the column sanitizer
//       pass. The latter two imply --outcomes.
//
//   doduo_cli annotate --server <host:port> <file.csv>...
//       Client mode: sends each CSV to a running doduo_serve daemon over
//       the binary frame protocol instead of loading a model locally.
//       The server answers with outcomes, so --server implies --outcomes;
//       it accepts the same dirty-input flags.
//
//   doduo_cli embed --model <dir> <file.csv>
//       Prints the contextualized column embeddings as CSV.
//
//   doduo_cli stats --server <host:port>
//       Prints a running daemon's metrics (counters + latency histograms,
//       including the serve.* batching stages) as JSON.
//
// Every command accepts --threads N to size the compute pool (equivalent
// to DODUO_NUM_THREADS=N; 1 disables parallelism) and --stats to dump the
// local pipeline metrics (per-stage latency histograms and counters, see
// DESIGN §10) as JSON on stderr before exiting.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/model_io.h"
#include "doduo/experiments/runners.h"
#include "doduo/serve/client.h"
#include "doduo/util/csv.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/string_util.h"
#include "doduo/util/thread_pool.h"

namespace {

using doduo::util::Status;

int Fail(const std::string& message, int exit_code = 1) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return exit_code;
}

doduo::util::Result<doduo::table::Table> LoadCsvTable(
    const std::string& path) {
  auto rows = doduo::util::ReadCsvFile(path);
  if (!rows.ok()) return rows.status();
  return doduo::table::TableFromCsvRows(rows.value(), /*has_header=*/true,
                                        path);
}

/// A doduo_serve endpoint from --server.
struct Endpoint {
  std::string host;
  int port = 0;
};

/// Parses "host:port" (or ":port" / bare "port" for localhost); the port
/// parses strictly, like every numeric flag.
doduo::util::Result<Endpoint> ParseEndpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
  auto port = doduo::util::ParseIntFlag("--server port", port_text, 1, 65535);
  if (!port.ok()) return port.status();
  Endpoint parsed;
  parsed.host = colon == std::string::npos || colon == 0
                    ? "127.0.0.1"
                    : endpoint.substr(0, colon);
  parsed.port = static_cast<int>(port.value());
  return parsed;
}

/// Strict full-string parse for --abstain-below: trailing text, non-finite
/// values and negatives are rejected instead of read as 0.
bool ParseThreshold(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0 && std::isfinite(*out) &&
         *out >= 0.0;
}

/// True for the flags that read the next argument as their value.
bool TakesValue(const char* flag) {
  for (const char* name : {"--out", "--model", "--server", "--mode",
                           "--threads", "--abstain-below"}) {
    if (std::strcmp(flag, name) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

int Train(const std::string& out_dir, const std::string& mode) {
  using namespace doduo::experiments;
  EnvOptions options;
  options.mode = mode == "viznet" ? BenchmarkMode::kVizNet
                                  : BenchmarkMode::kWikiTable;
  options.num_tables = Scaled(600);
  options.seed = doduo::util::ExperimentSeed();
  Env env(options);
  std::printf("training DODUO on the %s benchmark (%zu tables)...\n",
              mode.c_str(), env.dataset().tables.size());
  DoduoRun run = RunDoduo(&env, DoduoVariant{});
  std::printf("type micro F1 %.1f%%", 100.0 * run.types.micro.f1);
  if (run.has_relations) {
    std::printf(", relation micro F1 %.1f%%", 100.0 * run.relations.micro.f1);
  }
  std::printf("\n");

  const Status saved = doduo::core::SaveModelDir(
      out_dir, run.model.get(), env.vocab(), env.dataset().type_vocab,
      env.dataset().relation_vocab);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("saved model directory: %s\n", out_dir.c_str());
  return 0;
}

void PrintTypes(const doduo::table::Table& table,
                const std::vector<std::vector<std::string>>& types) {
  for (int c = 0; c < table.num_columns(); ++c) {
    std::printf("%s: %s\n", table.column(c).name.c_str(),
                doduo::util::Join(types[static_cast<size_t>(c)], ", ")
                    .c_str());
  }
}

void PrintOutcomes(const doduo::table::Table& table,
                   const std::vector<doduo::core::ColumnOutcome>& outcomes) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const doduo::core::ColumnOutcome& outcome =
        outcomes[static_cast<size_t>(c)];
    const char* name = table.column(c).name.c_str();
    if (!outcome.skipped_reason.empty()) {
      std::printf("%s: [skipped: %s]\n", name,
                  outcome.skipped_reason.c_str());
    } else if (outcome.abstained) {
      std::printf("%s: [abstained, confidence=%.3f]\n", name,
                  outcome.confidence);
    } else {
      std::printf("%s: %s (confidence=%.3f)\n", name,
                  doduo::util::Join(outcome.labels, ", ").c_str(),
                  outcome.confidence);
    }
  }
}

/// Options of the dirty-input annotation mode (`--outcomes` and friends).
struct OutcomeFlags {
  bool enabled = false;
  bool sanitize = true;
  double abstain_below = 0.0;
};

/// Client mode: annotate each CSV through a doduo_serve endpoint, which
/// always answers with outcomes.
int AnnotateRemote(const Endpoint& endpoint,
                   const std::vector<std::string>& csv_paths,
                   const OutcomeFlags& outcome_flags) {
  auto client = doduo::serve::Client::Connect(endpoint.host, endpoint.port);
  if (!client.ok()) return Fail(client.status().ToString());
  for (const std::string& path : csv_paths) {
    auto table = LoadCsvTable(path);
    if (!table.ok()) return Fail(table.status().ToString());
    if (csv_paths.size() > 1) std::printf("== %s ==\n", path.c_str());
    auto outcomes = client.value().AnnotateTypesRobust(
        table.value(), outcome_flags.sanitize, outcome_flags.abstain_below);
    if (!outcomes.ok()) {
      return Fail(path + ": " + outcomes.status().ToString());
    }
    PrintOutcomes(table.value(), outcomes.value());
  }
  return 0;
}

int Annotate(const std::string& model_dir,
             const std::vector<std::string>& csv_paths,
             const OutcomeFlags& outcome_flags) {
  auto loaded = doduo::core::LoadModelDir(model_dir);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  std::vector<doduo::table::Table> tables;
  for (const std::string& path : csv_paths) {
    auto table = LoadCsvTable(path);
    if (!table.ok()) return Fail(table.status().ToString());
    tables.push_back(std::move(table).value());
  }

  doduo::core::LoadedModel& m = *loaded.value();
  doduo::core::Annotator annotator = m.MakeAnnotator();

  if (outcome_flags.enabled) {
    doduo::core::AnnotateOptions options;
    options.sanitize = outcome_flags.sanitize;
    options.abstain_below = outcome_flags.abstain_below;
    const auto outcomes = annotator.AnnotateTypesRobustBatch(tables, options);
    for (size_t t = 0; t < tables.size(); ++t) {
      if (tables.size() > 1) std::printf("== %s ==\n", csv_paths[t].c_str());
      PrintOutcomes(tables[t], outcomes[t]);
    }
    return 0;
  }

  const auto types = annotator.AnnotateTypesBatch(tables);
  if (!types.ok()) return Fail(types.status().ToString());
  for (size_t t = 0; t < tables.size(); ++t) {
    if (tables.size() > 1) std::printf("== %s ==\n", csv_paths[t].c_str());
    PrintTypes(tables[t], types.value()[t]);
    if (m.config.num_relations > 0 && tables[t].num_columns() > 1) {
      auto relations = annotator.AnnotateKeyRelations(tables[t]);
      if (!relations.ok()) {
        return Fail(csv_paths[t] + ": " + relations.status().ToString());
      }
      for (size_t c = 0; c < relations.value().size(); ++c) {
        std::printf("(%s, %s): %s\n", tables[t].column(0).name.c_str(),
                    tables[t].column(static_cast<int>(c) + 1).name.c_str(),
                    relations.value()[c].c_str());
      }
    }
  }
  return 0;
}

int Embed(const std::string& model_dir, const std::string& csv_path) {
  auto loaded = doduo::core::LoadModelDir(model_dir);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto table = LoadCsvTable(csv_path);
  if (!table.ok()) return Fail(table.status().ToString());

  doduo::core::Annotator annotator = loaded.value()->MakeAnnotator();
  auto result = annotator.ColumnEmbeddings(table.value());
  if (!result.ok()) {
    return Fail(csv_path + ": " + result.status().ToString());
  }
  const doduo::nn::Tensor embeddings = std::move(result).value();
  for (int64_t c = 0; c < embeddings.rows(); ++c) {
    std::printf("%s", table.value().column(static_cast<int>(c)).name.c_str());
    for (int64_t j = 0; j < embeddings.cols(); ++j) {
      std::printf(",%.5f", static_cast<double>(embeddings.at(c, j)));
    }
    std::printf("\n");
  }
  return 0;
}

int RemoteStats(const Endpoint& endpoint) {
  auto client = doduo::serve::Client::Connect(endpoint.host, endpoint.port);
  if (!client.ok()) return Fail(client.status().ToString());
  auto stats = client.value().Stats();
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::printf("%s\n", stats.value().c_str());
  return 0;
}

const char* kUsage =
    "usage:\n"
    "  doduo_cli train --out <dir> [--mode wikitable|viznet] [--threads N]\n"
    "  doduo_cli annotate --model <dir> [--threads N] [--stats]\n"
    "      [--outcomes] [--abstain-below T] [--no-sanitize] <file.csv>...\n"
    "  doduo_cli annotate --server <host:port> [--abstain-below T]"
    " [--no-sanitize]\n"
    "      <file.csv>...\n"
    "  doduo_cli embed --model <dir> [--threads N] [--stats] <file.csv>\n"
    "  doduo_cli stats --server <host:port>\n"
    "\n"
    "  --server talks to a running doduo_serve daemon instead of loading\n"
    "  a model locally; --stats dumps local pipeline metrics (counters +\n"
    "  latency histograms) as JSON on stderr before exiting.\n"
    "  --outcomes uses the dirty-input path: per column, labels with a\n"
    "  calibrated confidence, an abstention, or a machine-readable skip\n"
    "  reason. --abstain-below T (a finite number >= 0) abstains on\n"
    "  predictions whose confidence falls below T; --no-sanitize skips the\n"
    "  column sanitizer pass. Both imply --outcomes, and so does --server.\n"
    "  --threads N takes an integer >= 1.\n";

}  // namespace

int main(int argc, char** argv) {
  std::string command = argc > 1 ? argv[1] : "";
  std::string out_dir;
  std::string model_dir;
  std::optional<Endpoint> server;
  std::string mode = "wikitable";
  std::vector<std::string> csv_paths;
  bool stats = false;
  OutcomeFlags outcome_flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      auto endpoint = ParseEndpoint(argv[++i]);
      if (!endpoint.ok()) return Fail(endpoint.status().message(), 2);
      server = endpoint.value();
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      auto threads = doduo::util::ParseIntFlag(
          "--threads", argv[++i], 1, std::numeric_limits<int>::max());
      if (!threads.ok()) return Fail(threads.status().message(), 2);
      doduo::util::SetComputeThreads(static_cast<int>(threads.value()));
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--outcomes") == 0) {
      outcome_flags.enabled = true;
    } else if (std::strcmp(argv[i], "--abstain-below") == 0 && i + 1 < argc) {
      if (!ParseThreshold(argv[++i], &outcome_flags.abstain_below)) {
        return Fail(std::string("--abstain-below expects a finite number "
                                ">= 0, got '") +
                        argv[i] + "'",
                    2);
      }
      outcome_flags.enabled = true;
    } else if (std::strcmp(argv[i], "--no-sanitize") == 0) {
      outcome_flags.sanitize = false;
      outcome_flags.enabled = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      // A mistyped or retired flag is a usage error, not a file name.
      return Fail(std::string(TakesValue(argv[i]) ? "missing value for flag '"
                                                  : "unknown flag '") +
                      argv[i] + "'",
                  2);
    } else {
      csv_paths.emplace_back(argv[i]);
    }
  }

  int exit_code = 2;
  if (command == "train" && !out_dir.empty()) {
    exit_code = Train(out_dir, mode);
  } else if (command == "annotate" && server.has_value() &&
             !csv_paths.empty()) {
    exit_code = AnnotateRemote(*server, csv_paths, outcome_flags);
  } else if (command == "annotate" && !model_dir.empty() &&
             !csv_paths.empty()) {
    exit_code = Annotate(model_dir, csv_paths, outcome_flags);
  } else if (command == "embed" && !model_dir.empty() && !csv_paths.empty()) {
    exit_code = Embed(model_dir, csv_paths.front());
  } else if (command == "stats" && server.has_value()) {
    exit_code = RemoteStats(*server);
  } else {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (stats) {
    std::fprintf(stderr, "%s\n", doduo::util::MetricsToJson().c_str());
  }
  return exit_code;
}
