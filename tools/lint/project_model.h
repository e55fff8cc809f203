#ifndef DODUO_TOOLS_LINT_PROJECT_MODEL_H_
#define DODUO_TOOLS_LINT_PROJECT_MODEL_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lint_engine.h"

// The whole-program intermediate representation behind doduo_lint's
// cross-file passes (DESIGN §16). Where lint_engine.h sees one translation unit at a time,
// the ProjectModel sees the repository as a graph: every source file with
// its module, token stream, string literals, and resolved include edges.
// The cross-file passes in graph_rules.h (layering DAG, serve-frame
// symmetry, metrics-registry consistency, hot-path allocation audit) run
// over this model.
//
// Like the rule engine, the model is filesystem-free: Build() takes
// (repo-relative path, content) pairs, so tests can assemble synthetic
// repositories in memory.

namespace doduo::lint {

/// One #include directive. `target` indexes ProjectModel::files when the
/// include resolves to a file in the model, else -1 (external header).
struct IncludeEdge {
  int line = 0;
  std::string path;    // as written: "doduo/nn/ops.h", "vector", ...
  bool system = false;  // <...> form
  int target = -1;
};

/// One source file: original + stripped text, tokens, literals, includes.
struct FileModel {
  std::string path;    // repo-relative, '/'-separated
  std::string module;  // "util", "serve", ... or "tools"/"tests"/...
  std::string source;
  std::string stripped;          // comments/strings blanked (lengths kept)
  Suppressions suppressions;     // NOLINT lines
  std::vector<Token> tokens;     // views into `stripped`
  std::vector<StringLiteral> literals;
  std::vector<IncludeEdge> includes;
};

/// The project as a graph. Files are stored in the order given to Build()
/// (the driver sorts paths, so output is deterministic).
struct ProjectModel {
  std::vector<FileModel> files;
  std::map<std::string, int, std::less<>> index_by_path;

  /// Builds the model: classifies modules, lexes every file, parses and
  /// resolves includes.
  static ProjectModel Build(
      std::vector<std::pair<std::string, std::string>> sources);

  /// Index of the file whose path ends with `suffix` (e.g.
  /// "serve/protocol.h"), or -1. When several match, the first wins.
  int FindFileBySuffix(std::string_view suffix) const;
};

/// Module of a repo-relative path: "src/doduo/<m>/..." -> "<m>";
/// "tools/..." -> "tools", "tests/..." -> "tests", "bench/..." -> "bench",
/// "examples/..." -> "examples"; anything else -> "other".
std::string ModuleForPath(std::string_view path);

/// The declared layer DAG (DESIGN §16): module -> rank. A file may include
/// doduo/ headers only from modules of strictly lower rank (or its own
/// module). Top-of-stack scopes (tools, tests, bench, examples) carry
/// kUnconstrainedRank and may include anything.
inline constexpr int kUnconstrainedRank = 1 << 20;
std::map<std::string, int, std::less<>> DefaultLayerRanks();

}  // namespace doduo::lint

#endif  // DODUO_TOOLS_LINT_PROJECT_MODEL_H_
