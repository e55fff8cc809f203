#ifndef DODUO_TOOLS_LINT_LINT_ENGINE_H_
#define DODUO_TOOLS_LINT_LINT_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

// The rule engine behind doduo_lint (DESIGN §11, §16): a dependency-free,
// token/line-based checker for project invariants that the compiler cannot
// see (determinism contract, workspace-arena discipline, cached-metric
// pattern). Discarded util::Status / util::Result<T> is the compiler's job:
// both are [[nodiscard]] types and the build promotes unused-result to an
// error.
// It is deliberately not a real C++ parser: every rule is written so that a
// shallow token scan — comment- and string-literal-aware — has no false
// positives on this codebase, and the `// NOLINT(rule-id)` escape hatch
// covers the rest.
//
// The engine lives in its own small library (no doduo_util dependency) so
// tests/tools/doduo_lint_test.cc can feed crafted snippets straight through
// LintSource without touching the filesystem. The lexer (StripSource /
// Tokenize) is exposed here because the whole-program layer
// (project_model.h, graph_rules.h) builds its per-file token streams with
// the exact same preparation — one lexer, one set of comment/string/NOLINT
// semantics.

namespace doduo::lint {

/// One rule violation. `line` is 1-based.
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// Rule identifiers (the `rule-id` printed in diagnostics and accepted by
// `// NOLINT(rule-id)`). See DESIGN §11 for each per-file rule's rationale
// and DESIGN §16 for the whole-program rules in graph_rules.h.
inline constexpr char kRuleNoAbort[] = "no-abort";
inline constexpr char kRuleNoRawRandom[] = "no-raw-random";
inline constexpr char kRuleNoNakedNew[] = "no-naked-new";
inline constexpr char kRuleHeaderGuard[] = "header-guard";
inline constexpr char kRuleIncludeOrder[] = "include-order";
inline constexpr char kRuleMetricsInLoop[] = "metrics-in-loop";
inline constexpr char kRuleServeRawIo[] = "serve-raw-io";
inline constexpr char kRuleRawMutex[] = "raw-mutex";
inline constexpr char kRuleDetachedThread[] = "detached-thread";
inline constexpr char kRuleSleepSync[] = "sleep-sync";
inline constexpr char kRuleQuantNoFloat[] = "quant-no-float-in-int8-kernel";

// ---------------------------------------------------------------------------
// Lexer (shared with the whole-program layer).
// ---------------------------------------------------------------------------

/// Per-line suppressions: line -> rule ids silenced there. An empty set
/// means every rule is silenced on that line (bare `// NOLINT`).
using Suppressions = std::map<int, std::set<std::string, std::less<>>>;

/// Replaces comment bodies and string/char-literal contents with spaces
/// (newlines kept, so offsets and line numbers survive), collecting NOLINT
/// annotations along the way. Handles //, /* */, "...", '...', and
/// R"delim(...)delim" raw strings.
std::string StripSource(std::string_view src, Suppressions* suppressions);

/// True when `rule` is silenced on `line` (bare NOLINT or a matching
/// rule list).
bool IsSuppressed(const Suppressions& suppressions, int line,
                  std::string_view rule);

enum class TokenKind { kIdent, kNumber, kPunct };

/// One token of stripped source. `text` views into the stripped string the
/// token was produced from; `offset` is the byte offset there (identical to
/// the offset in the original source, since stripping is length-preserving).
struct Token {
  std::string_view text;
  TokenKind kind;
  int line;
  size_t offset;
};

/// Tokenizes stripped source. Preprocessor directive lines (and their
/// backslash continuations) are excluded: directives are not statements,
/// and the include rules parse them line-wise instead.
std::vector<Token> Tokenize(std::string_view stripped);

/// Index of the token closing the paren opened at `open` (tokens[open] must
/// be "("), or -1 when unbalanced.
int MatchParen(const std::vector<Token>& toks, int open);

/// One string literal of the original source (content without quotes).
struct StringLiteral {
  std::string text;
  int line = 0;
  size_t offset = 0;  // byte offset of the opening quote
};

/// Collects every "..." string literal (comment-aware; raw strings
/// included, char literals excluded) from the original source.
std::vector<StringLiteral> CollectStringLiterals(std::string_view source);

// ---------------------------------------------------------------------------
// Per-file linting.
// ---------------------------------------------------------------------------

/// Lints one translation unit. `path` should be repo-relative (it is both
/// the reported location and the input to path-scoped rules such as
/// no-naked-new, which only applies under nn/ and transformer/). Reports
/// are deduplicated: one (file, line, rule) triple appears at most once.
std::vector<Violation> LintSource(std::string_view path,
                                  std::string_view source);

/// Formats a violation as "file:line: rule-id message".
std::string FormatViolation(const Violation& v);

// ---------------------------------------------------------------------------
// Mechanical fixes (`doduo_lint --fix`).
// ---------------------------------------------------------------------------

/// Applies the mechanical fixes — include-order (regroups the include block
/// into own header, <system>, "project") and header-guard (inserts an
/// #ifndef/#define/#endif guard derived from the path) — and returns the
/// fixed source. `*fixes_applied` (optional) counts the fixes. Idempotent:
/// ApplyFixes(ApplyFixes(s)) == ApplyFixes(s). Sources whose include block
/// is interleaved with conditional compilation or code are returned
/// unchanged (those need a human).
std::string ApplyFixes(std::string_view path, std::string_view source,
                       int* fixes_applied);

}  // namespace doduo::lint

#endif  // DODUO_TOOLS_LINT_LINT_ENGINE_H_
