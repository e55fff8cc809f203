// doduo_lint: project-invariant static analysis (DESIGN §11, §16).
//
//   doduo_lint [--fix] [--format=text|json] [repo-root]
//
// Walks src/, tools/, bench/, examples/, and tests/ under the repo root
// (default: the current directory) and lints each file against the
// per-file rules:
//
//   no-abort           abort/exit/assert outside util/logging|status|mutex
//   no-raw-random      rand/srand/time/random_device outside util/rng
//   no-naked-new       new/delete/malloc in nn/ and transformer/ kernels
//   header-guard       headers open with #pragma once or an include guard
//   include-order      own header, then <system>, then "project" includes
//   metrics-in-loop    GetCounter/GetHistogram lookup inside a loop body
//   serve-raw-io       raw POSIX socket/IO call in serve/ outside socket_io
//   raw-mutex          std::mutex/lock_guard/condition_variable/... outside
//                      doduo/util; use util::Mutex/MutexLock/CondVar
//   detached-thread    std::thread::detach() anywhere in the tree
//   sleep-sync         sleep_for/sleep_until as synchronization in serve
//                      tests; wait on the observable condition instead
//   quant-no-float-in-int8-kernel
//                      float types, literals or intrinsics in a function
//                      named *Int8*Kernel*
//
// then runs the whole-program passes (graph_rules.h) over all of them:
//
//   layering           module include DAG (util → text → table → … → serve)
//   include-cycle      file-level include graph is acyclic
//   frame-symmetry     serve FrameType ids dense + paired + wired + fuzzed
//   metrics-registry   metric names match util/metric_names.h exactly
//   hot-path-alloc     no alloc reachable from the encoder forward path
//
// A discarded util::Status / util::Result<T> is not a lint rule: both are
// [[nodiscard]] types and the build treats unused-result as an error.
//
// --fix rewrites files in place for the mechanical rules (include-order,
// header-guard); the result is idempotent. --format=json emits a
// SARIF-lite report on stdout for CI artifacts.
//
// Violations print as "file:line: rule-id message"; a `// NOLINT(rule-id)`
// comment on the offending line is the only way to suppress one. Exit
// status is 0 when the tree is clean, 1 when violations were found, 2 on
// usage/IO errors — scripts can tell "dirty tree" from "broken invocation".

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/graph_rules.h"
#include "lint/lint_engine.h"
#include "lint/project_model.h"

namespace {

namespace fs = std::filesystem;

bool HasExtension(const fs::path& p, std::string_view ext) {
  return p.extension() == ext;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const fs::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return out.good();
}

void JsonEscape(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// SARIF-lite: the subset of SARIF that CI annotators actually read —
/// one result per violation with ruleId, level, message, and location.
std::string FormatJson(const std::vector<doduo::lint::Violation>& violations,
                       size_t files_scanned) {
  std::string out = "{\n  \"tool\": \"doduo_lint\",\n  \"results\": [";
  bool first = true;
  for (const doduo::lint::Violation& v : violations) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"ruleId\": \"";
    JsonEscape(v.rule, &out);
    out += "\", \"level\": \"error\", \"message\": \"";
    JsonEscape(v.message, &out);
    out += "\", \"location\": {\"file\": \"";
    JsonEscape(v.file, &out);
    out += "\", \"line\": " + std::to_string(v.line) + "}}";
  }
  out += violations.empty() ? "],\n" : "\n  ],\n";
  out += "  \"summary\": {\"files\": " + std::to_string(files_scanned) +
         ", \"violations\": " + std::to_string(violations.size()) +
         "}\n}\n";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: doduo_lint [--fix] [--format=text|json] [repo-root]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool fix = false;
  std::string format = "text";
  fs::path root;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fix") {
      fix = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (root.empty()) {
      root = fs::path(arg);
    } else {
      return Usage();
    }
  }
  if (root.empty()) root = fs::current_path();

  // Gather the files in a stable order so output is deterministic. A
  // directory that exists but cannot be walked is an I/O error, not a
  // clean subtree.
  const std::vector<fs::path> scopes = {"src", "tools", "bench", "examples",
                                        "tests"};
  std::vector<fs::path> files;
  for (const fs::path& scope : scopes) {
    const fs::path dir = root / scope;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    auto it = fs::recursive_directory_iterator(dir, ec);
    for (; !ec && it != fs::recursive_directory_iterator();
         it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      // .inc: kernel bodies that a source includes once per SIMD width.
      if (HasExtension(p, ".h") || HasExtension(p, ".cc") ||
          HasExtension(p, ".cpp") || HasExtension(p, ".inc")) {
        files.push_back(p);
      }
    }
    if (ec) {
      std::fprintf(stderr, "doduo_lint: error walking %s: %s\n",
                   dir.string().c_str(), ec.message().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "doduo_lint: no sources found under %s\n",
                 root.string().c_str());
    return 2;
  }

  // Load every file up front: --fix, the per-file rules and the
  // whole-program model all want (repo-relative path, text) pairs.
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const fs::path& p : files) {
    std::string text;
    if (!ReadFile(p, &text)) {
      std::fprintf(stderr, "doduo_lint: cannot read %s\n",
                   p.string().c_str());
      return 2;
    }
    sources.emplace_back(fs::relative(p, root).generic_string(),
                         std::move(text));
  }

  if (fix) {
    size_t files_fixed = 0;
    int total_fixes = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
      int applied = 0;
      std::string fixed = doduo::lint::ApplyFixes(sources[i].first,
                                                  sources[i].second, &applied);
      if (applied == 0) continue;
      if (!WriteFile(files[i], fixed)) {
        std::fprintf(stderr, "doduo_lint: cannot write %s\n",
                     files[i].string().c_str());
        return 2;
      }
      std::fprintf(stderr, "doduo_lint: fixed %s (%d fix(es))\n",
                   sources[i].first.c_str(), applied);
      sources[i].second = std::move(fixed);
      ++files_fixed;
      total_fixes += applied;
    }
    std::fprintf(stderr, "doduo_lint: --fix applied %d fix(es) in %zu file(s)\n",
                 total_fixes, files_fixed);
  }

  std::vector<doduo::lint::Violation> violations;
  for (const auto& [rel, text] : sources) {
    for (doduo::lint::Violation& v : doduo::lint::LintSource(rel, text)) {
      violations.push_back(std::move(v));
    }
  }
  const size_t files_scanned = sources.size();
  const doduo::lint::ProjectModel model =
      doduo::lint::ProjectModel::Build(std::move(sources));
  for (doduo::lint::Violation& v : doduo::lint::RunGraphRules(model)) {
    violations.push_back(std::move(v));
  }
  std::sort(violations.begin(), violations.end(),
            [](const doduo::lint::Violation& a,
               const doduo::lint::Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  violations.erase(
      std::unique(violations.begin(), violations.end(),
                  [](const doduo::lint::Violation& a,
                     const doduo::lint::Violation& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule;
                  }),
      violations.end());

  if (format == "json") {
    std::fputs(FormatJson(violations, files_scanned).c_str(), stdout);
    return violations.empty() ? 0 : 1;
  }
  for (const doduo::lint::Violation& v : violations) {
    std::printf("%s\n", doduo::lint::FormatViolation(v).c_str());
  }
  if (!violations.empty()) {
    std::printf("doduo_lint: %zu violation(s) across %zu file(s)\n",
                violations.size(), files_scanned);
    return 1;
  }
  std::printf("doduo_lint: %zu file(s) clean\n", files_scanned);
  return 0;
}
