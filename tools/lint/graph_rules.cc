#include "lint/graph_rules.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace doduo::lint {

namespace {

// frame-symmetry inputs.
constexpr char kProtocolHeader[] = "serve/protocol.h";
constexpr char kFrameEnum[] = "FrameType";
constexpr char kEncodeFile[] = "serve/client.cc";
constexpr char kDecodeFile[] = "serve/server.cc";
constexpr char kTestDir[] = "tests/";
constexpr char kFuzzMarker[] = "fuzz";

// metrics-registry inputs.
constexpr char kRegistryHeader[] = "util/metric_names.h";
/// Name prefix that needs no registration (ad-hoc test metrics).
constexpr char kMetricExemptPrefix[] = "test.";

// hot-path-alloc inputs.
struct HotPathRoot {
  std::string_view file;      // suffix of the defining file's path
  std::string_view function;  // function name
};
/// The encoder forward pass, plus the functions the int8 kernel tables
/// (nn/quant.cc) point at: calls through Int8Kernel's function pointers
/// are invisible to name resolution, so their targets are roots too. A
/// root whose file is in the tree but defines no such function is itself
/// a finding, so a renamed kernel cannot silently drop out of the audit.
constexpr HotPathRoot kHotPathRoots[] = {
    {"transformer/encoder.cc", "Forward"},
    {"nn/quant.cc", "Int8LinearWith"},
    {"nn/quant.cc", "QuantizeRowScalar"},
    {"nn/quant.cc", "QuantizeRowAvx2"},
    {"nn/quant.cc", "GemmBlockScalar"},
    {"nn/quant.cc", "GemmBlockAvx2"}};
/// Modules whose function definitions participate in the call graph.
constexpr std::string_view kHotPathModules[] = {"nn", "transformer"};
/// Path substrings exempt from the audit: the buffer/arena primitives
/// themselves (nn::Tensor, nn::Workspace) are the instrumented allocation
/// choke points the rest of the hot path must go through.
constexpr std::string_view kHotPathExemptPaths[] = {"nn/tensor",
                                                    "nn/workspace"};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Levenshtein distance, for "did you mean" metric-name suggestions.
int EditDistance(std::string_view a, std::string_view b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

bool IsStatementKeyword(std::string_view t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "catch" || t == "sizeof" || t == "alignof" ||
         t == "alignas" || t == "decltype" || t == "constexpr" ||
         t == "static_assert" || t == "noexcept" || t == "assert";
}

class GraphLinter {
 public:
  explicit GraphLinter(const ProjectModel& model) : model_(model) {}

  std::vector<Violation> Run() {
    CheckLayering();
    CheckIncludeCycles();
    CheckFrameSymmetry();
    CheckMetricsRegistry();
    CheckHotPathAllocs();
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    violations_.erase(
        std::unique(violations_.begin(), violations_.end(),
                    [](const Violation& a, const Violation& b) {
                      return a.file == b.file && a.line == b.line &&
                             a.rule == b.rule;
                    }),
        violations_.end());
    return std::move(violations_);
  }

 private:
  void Report(int file, int line, std::string_view rule,
              std::string message) {
    const FileModel& f = model_.files[static_cast<size_t>(file)];
    if (IsSuppressed(f.suppressions, line, rule)) return;
    violations_.push_back(
        {f.path, line, std::string(rule), std::move(message)});
  }

  /// True when `name` occurs as an identifier token in file `fi`.
  bool HasIdent(int fi, std::string_view name) const {
    for (const Token& t : model_.files[static_cast<size_t>(fi)].tokens) {
      if (t.kind == TokenKind::kIdent && t.text == name) return true;
    }
    return false;
  }

  // -- layering -------------------------------------------------------------

  /// Module of an include target: the model file's module when resolved,
  /// else derived from a "doduo/<module>/..." spelling, else "".
  std::string IncludeModule(const IncludeEdge& inc) const {
    if (inc.target >= 0) {
      return model_.files[static_cast<size_t>(inc.target)].module;
    }
    if (StartsWith(inc.path, "doduo/")) {
      std::string_view rest = std::string_view(inc.path).substr(6);
      size_t slash = rest.find('/');
      if (slash != std::string_view::npos) {
        return std::string(rest.substr(0, slash));
      }
    }
    return "";
  }

  void CheckLayering() {
    for (int fi = 0; fi < static_cast<int>(model_.files.size()); ++fi) {
      const FileModel& file = model_.files[static_cast<size_t>(fi)];
      auto self = layer_ranks_.find(file.module);
      if (self == layer_ranks_.end()) {
        if (StartsWith(file.path, "src/doduo/")) {
          Report(fi, 1, kRuleLayering,
                 "module '" + file.module +
                     "' is not in the declared layer DAG; add it to the "
                     "layering table (DESIGN §16) before it grows includes");
        }
        continue;
      }
      const int rank = self->second;
      if (rank == kUnconstrainedRank) continue;  // tools/tests/bench/examples
      for (const IncludeEdge& inc : file.includes) {
        if (inc.system) continue;
        const std::string dep = IncludeModule(inc);
        if (dep.empty() || dep == file.module) continue;
        auto it = layer_ranks_.find(dep);
        const int dep_rank = it == layer_ranks_.end()
                                 ? kUnconstrainedRank
                                 : it->second;
        if (dep_rank >= rank) {
          Report(fi, inc.line, kRuleLayering,
                 "'" + file.module + "' (layer " + std::to_string(rank) +
                     ") may not include \"" + inc.path + "\" — '" + dep +
                     "' sits at layer " +
                     (dep_rank == kUnconstrainedRank
                          ? std::string("top (tools/tests scope)")
                          : std::to_string(dep_rank)) +
                     "; the DAG is util → text → table → {nn,eval,synth} → "
                     "{transformer,cluster} → core → "
                     "{serve,analysis,baselines,probe} → experiments → "
                     "tools/tests");
        }
      }
    }
  }

  // -- include-cycle --------------------------------------------------------

  void CheckIncludeCycles() {
    const int n = static_cast<int>(model_.files.size());
    // Colors: 0 = unvisited, 1 = on the DFS stack, 2 = done.
    std::vector<int> color(static_cast<size_t>(n), 0);
    std::vector<int> stack;
    std::set<std::vector<int>> reported;  // canonicalized cycles
    // Iterative DFS so a deep include chain cannot overflow the C stack.
    struct DfsFrame {
      int file;
      size_t edge = 0;
    };
    for (int start = 0; start < n; ++start) {
      if (color[static_cast<size_t>(start)] != 0) continue;
      std::vector<DfsFrame> frames{{start}};
      color[static_cast<size_t>(start)] = 1;
      stack.push_back(start);
      while (!frames.empty()) {
        DfsFrame& top = frames.back();
        const FileModel& file = model_.files[static_cast<size_t>(top.file)];
        if (top.edge < file.includes.size()) {
          const IncludeEdge& inc = file.includes[top.edge++];
          if (inc.target < 0) continue;
          const int next = inc.target;
          if (color[static_cast<size_t>(next)] == 0) {
            color[static_cast<size_t>(next)] = 1;
            stack.push_back(next);
            frames.push_back({next});
          } else if (color[static_cast<size_t>(next)] == 1) {
            ReportCycle(stack, next, top.file, inc.line, &reported);
          }
        } else {
          color[static_cast<size_t>(top.file)] = 2;
          stack.pop_back();
          frames.pop_back();
        }
      }
    }
  }

  void ReportCycle(const std::vector<int>& stack, int back_to, int from,
                   int line, std::set<std::vector<int>>* reported) {
    // Extract the cycle [back_to .. stack top], canonicalize by rotating
    // the smallest index first so each cycle reports exactly once.
    auto it = std::find(stack.begin(), stack.end(), back_to);
    std::vector<int> cycle(it, stack.end());
    std::vector<int> canon = cycle;
    auto min_it = std::min_element(canon.begin(), canon.end());
    std::rotate(canon.begin(), min_it, canon.end());
    if (!reported->insert(canon).second) return;
    std::string path_list;
    for (int fi : cycle) {
      path_list += model_.files[static_cast<size_t>(fi)].path;
      path_list += " -> ";
    }
    path_list += model_.files[static_cast<size_t>(back_to)].path;
    Report(from, line, kRuleIncludeCycle,
           "include cycle: " + path_list +
               "; break it with a forward declaration or by moving the "
               "shared type down a layer");
  }

  // -- frame-symmetry -------------------------------------------------------

  struct Enumerator {
    std::string name;
    long value = 0;
    int line = 0;
  };

  /// Parses `enum class <frame_enum>` enumerators out of the protocol
  /// header's token stream. Returns false when the enum is absent.
  bool ParseFrameEnum(int fi, std::vector<Enumerator>* out,
                      int* enum_line) const {
    const auto& toks = model_.files[static_cast<size_t>(fi)].tokens;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i + 2 < n; ++i) {
      if (toks[i].text != "enum" || toks[i + 1].text != "class" ||
          toks[i + 2].text != kFrameEnum) {
        continue;
      }
      *enum_line = toks[i].line;
      int j = i + 3;
      while (j < n && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j >= n || toks[j].text != "{") return false;
      ++j;
      long next_value = 0;
      while (j < n && toks[j].text != "}") {
        if (toks[j].kind != TokenKind::kIdent) {
          ++j;
          continue;
        }
        Enumerator e;
        e.name = std::string(toks[j].text);
        e.line = toks[j].line;
        if (j + 2 < n && toks[j + 1].text == "=" &&
            toks[j + 2].kind == TokenKind::kNumber) {
          e.value = std::strtol(std::string(toks[j + 2].text).c_str(),
                                nullptr, 0);
          j += 3;
        } else {
          e.value = next_value;
          ++j;
        }
        next_value = e.value + 1;
        out->push_back(std::move(e));
        while (j < n && toks[j].text != "," && toks[j].text != "}") ++j;
        if (j < n && toks[j].text == ",") ++j;
      }
      return true;
    }
    return false;
  }

  void CheckFrameSymmetry() {
    const int proto = model_.FindFileBySuffix(kProtocolHeader);
    if (proto < 0) {
      for (int fi = 0; fi < static_cast<int>(model_.files.size()); ++fi) {
        if (model_.files[static_cast<size_t>(fi)].module == "serve") {
          Report(fi, 1, kRuleFrameSymmetry,
                 std::string("serve module present but no ") +
                     kProtocolHeader +
                     " in the project model; the wire contract has no "
                     "checkable home");
          return;
        }
      }
      return;
    }
    std::vector<Enumerator> frames;
    int enum_line = 1;
    if (!ParseFrameEnum(proto, &frames, &enum_line)) {
      Report(proto, 1, kRuleFrameSymmetry,
             std::string("no 'enum class ") + kFrameEnum + "' found in " +
                 kProtocolHeader);
      return;
    }

    // Ids must be unique and dense: IsKnownFrameType's range check is only
    // valid when every value in [min, max] names a real frame.
    std::map<long, const Enumerator*> by_value;
    for (const Enumerator& e : frames) {
      auto [it, inserted] = by_value.emplace(e.value, &e);
      if (!inserted) {
        Report(proto, e.line, kRuleFrameSymmetry,
               "frame id " + std::to_string(e.value) + " of " + e.name +
                   " collides with " + it->second->name);
      }
    }
    if (!by_value.empty()) {
      const long lo = by_value.begin()->first;
      const long hi = by_value.rbegin()->first;
      std::string holes;
      for (long v = lo; v <= hi; ++v) {
        if (by_value.count(v) == 0) {
          if (!holes.empty()) holes += ", ";
          holes += std::to_string(v);
        }
      }
      if (!holes.empty()) {
        Report(proto, enum_line, kRuleFrameSymmetry,
               "frame ids are not dense: id(s) " + holes +
                   " are unused but IsKnownFrameType's range check accepts "
                   "them as valid");
      }
    }

    // Every kFooRequest needs a kFooResponse (responses may stand alone:
    // kErrorResponse answers any frame).
    std::set<std::string> names;
    for (const Enumerator& e : frames) names.insert(e.name);
    for (const Enumerator& e : frames) {
      constexpr std::string_view kSuffix = "Request";
      if (EndsWith(e.name, kSuffix)) {
        const std::string expected =
            e.name.substr(0, e.name.size() - kSuffix.size()) + "Response";
        if (names.count(expected) == 0) {
          Report(proto, e.line, kRuleFrameSymmetry,
                 "frame " + e.name + " (id " + std::to_string(e.value) +
                     ") has no matching " + expected + " enumerator");
        }
      }
    }

    // Both sides of the wire must know every frame: the client encodes and
    // expects it, the server decodes and answers it. A frame missing from
    // either side is silently dead (or worse, a connection-fatal unknown
    // type for an up-level peer).
    const int enc = model_.FindFileBySuffix(kEncodeFile);
    const int dec = model_.FindFileBySuffix(kDecodeFile);
    for (const auto& [side, fi] :
         {std::pair<std::string_view, int>{"encode", enc},
          std::pair<std::string_view, int>{"decode", dec}}) {
      if (fi < 0) {
        Report(proto, enum_line, kRuleFrameSymmetry,
               std::string("no ") +
                   (side == "encode" ? kEncodeFile : kDecodeFile) +
                   " in the project model to carry the " + std::string(side) +
                   " side of the frame protocol");
        continue;
      }
      for (const Enumerator& e : frames) {
        if (!HasIdent(fi, e.name)) {
          Report(proto, e.line, kRuleFrameSymmetry,
                 "frame " + e.name + " (id " + std::to_string(e.value) +
                     ") is never referenced in " +
                     model_.files[static_cast<size_t>(fi)].path +
                     "; a frame without a " + std::string(side) +
                     "-side is dead on the wire");
        }
      }
    }

    // Every frame id must be exercised by tests — a new frame must not
    // ship without wire-level coverage.
    for (const Enumerator& e : frames) {
      bool in_tests = false;
      for (int fi = 0; fi < static_cast<int>(model_.files.size()) && !in_tests;
           ++fi) {
        if (StartsWith(model_.files[static_cast<size_t>(fi)].path, kTestDir) &&
            HasIdent(fi, e.name)) {
          in_tests = true;
        }
      }
      if (!in_tests) {
        Report(proto, e.line, kRuleFrameSymmetry,
               "frame " + e.name + " (id " + std::to_string(e.value) +
                   ") has no test reference under " + kTestDir +
                   "; at minimum the wire fuzz suite must construct it");
      }
    }

    // Payload codecs come in Encode/Decode pairs, and every decoder is
    // fuzzed (the checkpoint-loader discipline extended to the wire).
    std::map<std::string, int> encoders, decoders;  // base name -> line
    for (const Token& t :
         model_.files[static_cast<size_t>(proto)].tokens) {
      if (t.kind != TokenKind::kIdent) continue;
      if (!EndsWith(t.text, "Payload")) continue;
      if (StartsWith(t.text, "Encode")) {
        encoders.emplace(std::string(t.text.substr(6)), t.line);
      } else if (StartsWith(t.text, "Decode")) {
        decoders.emplace(std::string(t.text.substr(6)), t.line);
      }
    }
    for (const auto& [base, line] : encoders) {
      if (decoders.count(base) == 0) {
        Report(proto, line, kRuleFrameSymmetry,
               "payload codec Encode" + base + " has no Decode" + base +
                   " counterpart; a frame that can be sent but not parsed "
                   "loses its receive side");
      }
    }
    for (const auto& [base, line] : decoders) {
      if (encoders.count(base) == 0) {
        Report(proto, line, kRuleFrameSymmetry,
               "payload codec Decode" + base + " has no Encode" + base +
                   " counterpart; a frame that can be parsed but not built "
                   "loses its send side");
      }
    }
    std::vector<std::string> fuzz_targets;
    for (const auto& [base, line] : decoders) {
      fuzz_targets.push_back("Decode" + base);
    }
    if (HasIdent(proto, "FrameDecoder")) {
      fuzz_targets.emplace_back("FrameDecoder");
    }
    for (const std::string& target : fuzz_targets) {
      bool fuzzed = false;
      for (int fi = 0; fi < static_cast<int>(model_.files.size()) && !fuzzed;
           ++fi) {
        const FileModel& f = model_.files[static_cast<size_t>(fi)];
        if (StartsWith(f.path, kTestDir) &&
            f.path.find(kFuzzMarker) != std::string::npos &&
            HasIdent(fi, target)) {
          fuzzed = true;
        }
      }
      if (!fuzzed) {
        int line = enum_line;
        auto it = decoders.find(target.size() > 6 ? target.substr(6) : "");
        if (it != decoders.end()) line = it->second;
        Report(proto, line, kRuleFrameSymmetry,
               target +
                   " is not exercised by any fuzz test (tests/**/*" +
                   kFuzzMarker +
                   "*); every wire decoder chews untrusted bytes");
      }
    }
  }

  // -- metrics-registry -----------------------------------------------------

  void CheckMetricsRegistry() {
    struct Use {
      std::string name;
      int file;
      int line;
    };
    std::vector<Use> uses;
    for (int fi = 0; fi < static_cast<int>(model_.files.size()); ++fi) {
      const FileModel& f = model_.files[static_cast<size_t>(fi)];
      // The metrics subsystem itself (registry lookup implementation) and
      // the registry header are not call sites.
      if (EndsWith(f.path, "util/metrics.h") ||
          EndsWith(f.path, "util/metrics.cc") ||
          EndsWith(f.path, kRegistryHeader)) {
        continue;
      }
      const int n = static_cast<int>(f.tokens.size());
      for (int i = 0; i + 1 < n; ++i) {
        const Token& t = f.tokens[i];
        if (t.kind != TokenKind::kIdent ||
            (t.text != "GetCounter" && t.text != "GetHistogram" &&
             t.text != "SetInfo")) {
          continue;
        }
        if (f.tokens[i + 1].text != "(") continue;
        const int close = MatchParen(f.tokens, i + 1);
        if (close < 0) continue;
        // The argument literal sits between the parens in the original
        // text (the stripper blanked it out of the token stream).
        for (const StringLiteral& lit : f.literals) {
          if (lit.offset > f.tokens[static_cast<size_t>(i) + 1].offset &&
              lit.offset < f.tokens[static_cast<size_t>(close)].offset) {
            uses.push_back({lit.text, fi, t.line});
            break;
          }
        }
      }
    }
    const int reg = model_.FindFileBySuffix(kRegistryHeader);
    if (reg < 0) {
      // A tree with no metrics use needs no registry; one with uses does.
      if (!uses.empty()) {
        Report(uses[0].file, uses[0].line, kRuleMetricsRegistry,
               std::string("metric names are used but the model has no ") +
                   kRegistryHeader + " registry header (DESIGN §16)");
      }
      return;
    }
    std::map<std::string, int> registered;  // name -> registry line
    for (const StringLiteral& lit :
         model_.files[static_cast<size_t>(reg)].literals) {
      registered.emplace(lit.text, lit.line);
    }

    std::set<std::string> used_names;
    for (const Use& use : uses) {
      if (StartsWith(use.name, kMetricExemptPrefix)) continue;
      used_names.insert(use.name);
      if (registered.count(use.name) > 0) continue;
      // Typo'd near-duplicate? Suggest the closest registered name.
      std::string best;
      int best_dist = 4;  // suggest only within edit distance 3
      for (const auto& [name, line] : registered) {
        const int d = EditDistance(use.name, name);
        if (d < best_dist) {
          best_dist = d;
          best = name;
        }
      }
      Report(use.file, use.line, kRuleMetricsRegistry,
             "metric name \"" + use.name + "\" is not in " +
                 kRegistryHeader +
                 (best.empty() ? "; register it there (one header owns "
                                 "every metric name)"
                               : "; did you mean \"" + best + "\"?"));
    }
    for (const auto& [name, line] : registered) {
      if (used_names.count(name) == 0) {
        Report(reg, line, kRuleMetricsRegistry,
               "registered metric \"" + name +
                   "\" has no GetCounter/GetHistogram/SetInfo call site; "
                   "remove it or wire it up");
      }
    }
  }

  // -- hot-path-alloc -------------------------------------------------------

  struct FunctionDef {
    std::string name;
    int file;
    int body_begin;  // token index of '{'
    int body_end;    // token index of matching '}'
    int line;
  };

  bool InHotPathModules(const FileModel& f) const {
    for (const std::string_view m : kHotPathModules) {
      if (f.module == m) return true;
    }
    return false;
  }

  bool IsExemptPath(const FileModel& f) const {
    for (const std::string_view p : kHotPathExemptPaths) {
      if (f.path.find(p) != std::string::npos) return true;
    }
    return false;
  }

  /// Collects function definitions (name + body token range) from one
  /// file's token stream. Deliberately approximate: constructors (their
  /// init lists defeat shallow parsing) and trailing-return-type functions
  /// are skipped — neither sits on the encoder forward path.
  void CollectFunctionDefs(int fi, std::vector<FunctionDef>* out) const {
    const auto& toks = model_.files[static_cast<size_t>(fi)].tokens;
    const int n = static_cast<int>(toks.size());
    for (int i = 0; i + 1 < n; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdent || IsStatementKeyword(t.text)) continue;
      if (toks[i + 1].text != "(") continue;
      const int close = MatchParen(toks, i + 1);
      if (close < 0 || close + 1 >= n) continue;
      int open = close + 1;
      while (open < n &&
             (toks[open].text == "const" || toks[open].text == "noexcept" ||
              toks[open].text == "override" || toks[open].text == "final")) {
        ++open;
      }
      if (open >= n || toks[open].text != "{") continue;
      // `name(...) {` directly after another ident could still be a
      // declaration with a braced initializer (`int x(1); {`) — the paren
      // close is followed by `{` only for definitions and compound
      // statements, and keywords were excluded above.
      int depth = 0;
      int end = -1;
      for (int j = open; j < n; ++j) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) {
          end = j;
          break;
        }
      }
      if (end < 0) continue;
      out->push_back({std::string(t.text), fi, open, end, t.line});
    }
  }

  /// True when the identifier at `i` is called: `name(` or, for a
  /// template, `name<...>(` (the AVX-512 GEMM tile is reached that way).
  static bool IsCall(const std::vector<Token>& toks, int i) {
    const int n = static_cast<int>(toks.size());
    if (i + 1 < n && toks[i + 1].text == "(") return true;
    if (i + 1 >= n || toks[i + 1].text != "<") return false;
    int depth = 0;
    for (int j = i + 1; j < n; ++j) {
      const std::string_view t = toks[j].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">" && --depth == 0) {
        return j + 1 < n && toks[j + 1].text == "(";
      } else if (t == ";" || t == "{" || t == "}" || t == "(") {
        return false;  // a comparison, not a template argument list
      }
    }
    return false;
  }

  void CheckHotPathAllocs() {
    // Index every function definition in the hot-path modules.
    std::vector<FunctionDef> defs;
    for (int fi = 0; fi < static_cast<int>(model_.files.size()); ++fi) {
      if (InHotPathModules(model_.files[static_cast<size_t>(fi)])) {
        CollectFunctionDefs(fi, &defs);
      }
    }
    std::map<std::string, std::vector<int>, std::less<>> defs_by_name;
    for (int d = 0; d < static_cast<int>(defs.size()); ++d) {
      defs_by_name[defs[static_cast<size_t>(d)].name].push_back(d);
    }

    // Seed the worklist with the roots (Encoder::Forward and the int8
    // kernel-table targets) and walk the name-resolved call graph. Name
    // resolution over-approximates (every definition of a called name is
    // reachable), which errs toward auditing more code — the safe
    // direction for a zero-alloc contract.
    std::vector<int> worklist;
    std::vector<int> parent(defs.size(), -2);  // -2 unreached, -1 root
    for (const HotPathRoot& root : kHotPathRoots) {
      bool defined = false;
      for (int d = 0; d < static_cast<int>(defs.size()); ++d) {
        const FunctionDef& def = defs[static_cast<size_t>(d)];
        if (def.name == root.function &&
            EndsWith(model_.files[static_cast<size_t>(def.file)].path,
                     root.file)) {
          defined = true;
          if (parent[static_cast<size_t>(d)] == -2) {
            parent[static_cast<size_t>(d)] = -1;
            worklist.push_back(d);
          }
        }
      }
      const int root_file = model_.FindFileBySuffix(root.file);
      if (!defined && root_file >= 0) {
        Report(root_file, 1, kRuleHotPathAlloc,
               "hot-path root '" + std::string(root.function) +
                   "' has no definition in " + std::string(root.file) +
                   ", so the allocation audit no longer covers it; update "
                   "kHotPathRoots in tools/lint/graph_rules.cc");
      }
    }
    for (size_t w = 0; w < worklist.size(); ++w) {
      const int d = worklist[w];
      const FunctionDef& def = defs[static_cast<size_t>(d)];
      const auto& toks =
          model_.files[static_cast<size_t>(def.file)].tokens;
      for (int i = def.body_begin; i < def.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdent || IsStatementKeyword(t.text)) {
          continue;
        }
        if (!IsCall(toks, i)) continue;
        auto it = defs_by_name.find(t.text);
        if (it == defs_by_name.end()) continue;
        for (int callee : it->second) {
          if (parent[static_cast<size_t>(callee)] == -2) {
            parent[static_cast<size_t>(callee)] = d;
            worklist.push_back(callee);
          }
        }
      }
    }

    // Audit every reachable body for allocation and growing-container
    // calls. nn::Tensor / nn::Workspace are exempt: they ARE the audited
    // allocation choke points (ResizeUninitialized reuses capacity; the
    // counting-operator-new tests count the rest at runtime).
    static constexpr std::string_view kAllocCalls[] = {
        "make_unique", "make_shared", "malloc", "calloc", "realloc"};
    static constexpr std::string_view kGrowthCalls[] = {
        "push_back", "emplace_back", "emplace", "resize",
        "reserve",   "insert",       "assign",  "append"};
    for (int d = 0; d < static_cast<int>(defs.size()); ++d) {
      if (parent[static_cast<size_t>(d)] == -2) continue;
      const FunctionDef& def = defs[static_cast<size_t>(d)];
      const FileModel& f = model_.files[static_cast<size_t>(def.file)];
      if (IsExemptPath(f)) continue;
      const auto& toks = f.tokens;
      for (int i = def.body_begin; i < def.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdent) continue;
        std::string_view what;
        if (t.text == "new") {
          what = "new";
        } else {
          const bool next_call =
              i + 1 < static_cast<int>(toks.size()) &&
              (toks[i + 1].text == "(" || toks[i + 1].text == "<");
          if (next_call) {
            for (std::string_view name : kAllocCalls) {
              if (t.text == name) what = name;
            }
            const bool member =
                i > 0 &&
                (toks[i - 1].text == "." || toks[i - 1].text == "->");
            if (member && toks[i + 1].text == "(") {
              for (std::string_view name : kGrowthCalls) {
                if (t.text == name) what = name;
              }
            }
          }
        }
        if (what.empty()) continue;
        Report(def.file, t.line, kRuleHotPathAlloc,
               "'" + std::string(what) + "' in '" + def.name +
                   "', reachable from the encoder forward path (" +
                   CallChain(defs, parent, d) +
                   "); the steady-state hot path is zero-alloc (DESIGN §9) "
                   "— use nn::Workspace arenas or "
                   "Tensor::ResizeUninitialized");
      }
    }
  }

  std::string CallChain(const std::vector<FunctionDef>& defs,
                        const std::vector<int>& parent, int d) const {
    std::vector<std::string> names;
    for (int cur = d; cur >= 0 && names.size() < 8;
         cur = parent[static_cast<size_t>(cur)]) {
      names.push_back(defs[static_cast<size_t>(cur)].name);
    }
    std::string chain;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (!chain.empty()) chain += " -> ";
      chain += *it;
    }
    return chain;
  }

  const ProjectModel& model_;
  /// Module -> layer rank; includes may only point strictly downward.
  const std::map<std::string, int, std::less<>> layer_ranks_ =
      DefaultLayerRanks();
  std::vector<Violation> violations_;
};

}  // namespace

std::vector<Violation> RunGraphRules(const ProjectModel& model) {
  return GraphLinter(model).Run();
}

}  // namespace doduo::lint
