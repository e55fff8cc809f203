#include "lint/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace doduo::lint {

namespace {

// ---------------------------------------------------------------------------
// Source preparation: comment/string stripping and NOLINT extraction.
// ---------------------------------------------------------------------------

/// Parses the body of one comment for NOLINT annotations and records them
/// against `line` (the line the comment starts on, which is where the
/// offending code sits by convention).
void RecordNolint(std::string_view comment, int line, Suppressions* out) {
  size_t pos = comment.find("NOLINT");
  if (pos == std::string_view::npos) return;
  size_t after = pos + 6;  // past "NOLINT"
  if (after < comment.size() && comment[after] == '(') {
    size_t close = comment.find(')', after);
    std::string_view list = comment.substr(
        after + 1,
        close == std::string_view::npos ? comment.size() - after - 1
                                        : close - after - 1);
    auto& rules = (*out)[line];
    size_t start = 0;
    while (start <= list.size()) {
      size_t comma = list.find(',', start);
      std::string_view item = list.substr(
          start, comma == std::string_view::npos ? list.size() - start
                                                 : comma - start);
      while (!item.empty() && std::isspace(static_cast<unsigned char>(
                                  item.front()))) {
        item.remove_prefix(1);
      }
      while (!item.empty() &&
             std::isspace(static_cast<unsigned char>(item.back()))) {
        item.remove_suffix(1);
      }
      if (!item.empty()) rules.emplace(item);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
  } else {
    (*out)[line];  // bare NOLINT: empty set = silence everything
  }
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool PathContains(std::string_view path, std::string_view needle) {
  return path.find(needle) != std::string_view::npos;
}

/// Stem of a path: "src/doduo/nn/ops.cc" -> "ops".
std::string_view PathStem(std::string_view path) {
  size_t slash = path.find_last_of('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string_view::npos ? base : base.substr(0, dot);
}

}  // namespace

std::string StripSource(std::string_view src, Suppressions* suppressions) {
  std::string out(src);
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  auto blank = [&out](size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = n;
      RecordNolint(src.substr(i, end - i), line, suppressions);
      blank(i, end);
      i = end;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      const int start_line = line;
      end = (end == std::string_view::npos) ? n : end + 2;
      RecordNolint(src.substr(i, end - i), start_line, suppressions);
      line += static_cast<int>(
          std::count(src.begin() + static_cast<long>(i),
                     src.begin() + static_cast<long>(end), '\n'));
      blank(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string: R"delim( ... )delim"
      size_t open = src.find('(', i + 2);
      if (open == std::string_view::npos) {
        ++i;
        continue;
      }
      std::string closer = ")";
      closer.append(src.substr(i + 2, open - i - 2));
      closer.push_back('"');
      size_t end = src.find(closer, open + 1);
      end = (end == std::string_view::npos) ? n : end + closer.size();
      line += static_cast<int>(
          std::count(src.begin() + static_cast<long>(i),
                     src.begin() + static_cast<long>(end), '\n'));
      blank(i + 1, end);  // keep the leading R so tokens don't merge
      i = end;
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;  // unterminated literal; stay sane
        ++j;
      }
      if (j < n) ++j;  // past closing quote
      blank(i + 1, j > i + 1 ? j - 1 : j);
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

bool IsSuppressed(const Suppressions& suppressions, int line,
                  std::string_view rule) {
  auto it = suppressions.find(line);
  return it != suppressions.end() &&
         (it->second.empty() || it->second.count(rule) > 0);
}

std::vector<Token> Tokenize(std::string_view stripped) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = stripped.size();
  bool at_line_start = true;
  while (i < n) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      // Skip the directive, including continuation lines.
      while (i < n) {
        size_t end = stripped.find('\n', i);
        if (end == std::string_view::npos) {
          i = n;
          break;
        }
        size_t last = end;
        while (last > i &&
               std::isspace(static_cast<unsigned char>(stripped[last - 1]))) {
          --last;
        }
        const bool continued = last > i && stripped[last - 1] == '\\';
        ++line;
        i = end + 1;
        if (!continued) break;
      }
      at_line_start = true;
      continue;
    }
    at_line_start = false;
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(stripped[j])) ++j;
      tokens.push_back(
          {stripped.substr(i, j - i), TokenKind::kIdent, line, i});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i + 1;  // pp-number: digits, letters, dots, exponent signs
      while (j < n && (IsIdentChar(stripped[j]) || stripped[j] == '.' ||
                       ((stripped[j] == '+' || stripped[j] == '-') &&
                        (stripped[j - 1] == 'e' || stripped[j - 1] == 'E' ||
                         stripped[j - 1] == 'p' || stripped[j - 1] == 'P')))) {
        ++j;
      }
      tokens.push_back(
          {stripped.substr(i, j - i), TokenKind::kNumber, line, i});
      i = j;
    } else {
      size_t len = 1;
      if (i + 1 < n) {
        const char d = stripped[i + 1];
        if ((c == ':' && d == ':') || (c == '-' && d == '>')) len = 2;
      }
      tokens.push_back({stripped.substr(i, len), TokenKind::kPunct, line, i});
      i += len;
    }
  }
  return tokens;
}

int MatchParen(const std::vector<Token>& toks, int open) {
  int depth = 0;
  for (int i = open; i < static_cast<int>(toks.size()); ++i) {
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return -1;
}

std::vector<StringLiteral> CollectStringLiterals(std::string_view source) {
  std::vector<StringLiteral> literals;
  int line = 1;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      size_t end = source.find('\n', i);
      i = (end == std::string_view::npos) ? n : end;
    } else if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      size_t end = source.find("*/", i + 2);
      end = (end == std::string_view::npos) ? n : end + 2;
      line += static_cast<int>(
          std::count(source.begin() + static_cast<long>(i),
                     source.begin() + static_cast<long>(end), '\n'));
      i = end;
    } else if (c == 'R' && i + 1 < n && source[i + 1] == '"') {
      size_t open = source.find('(', i + 2);
      if (open == std::string_view::npos) {
        ++i;
        continue;
      }
      std::string closer = ")";
      closer.append(source.substr(i + 2, open - i - 2));
      closer.push_back('"');
      size_t end = source.find(closer, open + 1);
      const size_t body_end = (end == std::string_view::npos) ? n : end;
      literals.push_back({std::string(source.substr(open + 1,
                                                    body_end - open - 1)),
                          line, i});
      end = (end == std::string_view::npos) ? n : end + closer.size();
      line += static_cast<int>(
          std::count(source.begin() + static_cast<long>(i),
                     source.begin() + static_cast<long>(end), '\n'));
      i = end;
    } else if (c == '"') {
      const size_t start = i;
      const int start_line = line;
      std::string text;
      size_t j = i + 1;
      while (j < n && source[j] != '"') {
        if (source[j] == '\\' && j + 1 < n) {
          text.push_back(source[j]);
          ++j;
        }
        if (source[j] == '\n') ++line;
        text.push_back(source[j]);
        ++j;
      }
      if (j < n) ++j;
      literals.push_back({std::move(text), start_line, start});
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < n && source[j] != '\'') {
        if (source[j] == '\\' && j + 1 < n) ++j;
        if (source[j] == '\n') ++line;
        ++j;
      }
      i = (j < n) ? j + 1 : j;
    } else {
      ++i;
    }
  }
  return literals;
}

namespace {

// ---------------------------------------------------------------------------
// Rule engine.
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string_view path, std::string_view source)
      : path_(path), source_(source) {
    stripped_ = StripSource(source, &suppressions_);
    tokens_ = Tokenize(stripped_);
  }

  std::vector<Violation> Run() {
    CheckCallTokens();
    CheckMetricsInLoop();
    CheckInt8Kernels();
    CheckHeaderGuard();
    CheckIncludeOrder();
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return std::pair(a.line, a.rule) < std::pair(b.line, b.rule);
              });
    // One report per (file, line, rule): a line with two offending tokens
    // is one finding, not two identical diagnostics.
    violations_.erase(
        std::unique(violations_.begin(), violations_.end(),
                    [](const Violation& a, const Violation& b) {
                      return a.line == b.line && a.rule == b.rule;
                    }),
        violations_.end());
    return std::move(violations_);
  }

 private:
  /// Reports at `line` unless a NOLINT on any line of [line, end_line]
  /// covers the rule — statements that span lines accept the escape hatch
  /// wherever the statement's text actually is (typically its last line).
  void ReportSpan(int line, int end_line, std::string_view rule,
                  std::string message) {
    for (int l = line; l <= std::max(line, end_line); ++l) {
      if (IsSuppressed(suppressions_, l, rule)) return;
    }
    violations_.push_back(
        {std::string(path_), line, std::string(rule), std::move(message)});
  }

  void Report(int line, std::string_view rule, std::string message) {
    ReportSpan(line, line, rule, std::move(message));
  }

  /// Last line of the call whose name token sits at `i` (the line of the
  /// matching close paren), or the name's own line when unbalanced.
  int CallEndLine(int i) const {
    if (i + 1 < static_cast<int>(tokens_.size()) &&
        tokens_[i + 1].text == "(") {
      const int close = MatchParen(tokens_, i + 1);
      if (close >= 0) return tokens_[close].line;
    }
    return tokens_[i].line;
  }

  const Token* Prev(int i) const { return i > 0 ? &tokens_[i - 1] : nullptr; }

  bool IsMemberAccess(int i) const {
    const Token* p = Prev(i);
    return p != nullptr && (p->text == "." || p->text == "->");
  }

  // no-abort, no-raw-random, no-naked-new, serve-raw-io, raw-mutex,
  // detached-thread, sleep-sync: one pass over the token stream.
  void CheckCallTokens() {
    // util/mutex joins the exempt set: the lock-order deadlock detector is
    // itself a fatal-assertion site (it aborts with the inversion cycle).
    const bool abort_exempt = PathContains(path_, "util/logging") ||
                              PathContains(path_, "util/status") ||
                              PathContains(path_, "util/check") ||
                              PathContains(path_, "util/mutex");
    const bool random_exempt = PathContains(path_, "util/rng") ||
                               PathContains(path_, "util/logging");
    const bool arena_scoped =
        PathContains(path_, "nn/") || PathContains(path_, "transformer/");
    // serve-raw-io: raw POSIX socket/fd calls are confined to
    // serve/socket_io.{h,cc}, whose [[nodiscard]] wrappers carry the
    // Status contract.
    const bool serve_scoped = PathContains(path_, "serve/") &&
                              !PathContains(path_, "serve/socket_io");
    // raw-mutex: std synchronization primitives are confined to
    // doduo/util/ (mutex.{h,cc} wrap them with thread-safety annotations
    // and the deadlock detector; thread_pool predates Mutex's CondVar).
    // Everything else must use util::Mutex/MutexLock/CondVar so locks are
    // named, annotated, and order-checked (DESIGN §13).
    const bool mutex_exempt = PathContains(path_, "doduo/util/");
    static constexpr std::string_view kRawMutexNames[] = {
        "mutex",         "timed_mutex",        "recursive_mutex",
        "recursive_timed_mutex",               "shared_mutex",
        "shared_timed_mutex",                  "lock_guard",
        "unique_lock",   "scoped_lock",        "shared_lock",
        "condition_variable",                  "condition_variable_any"};
    // sleep-sync: in serve tests, sleeping is never synchronization — it
    // trades flake for latency. Wait on the observable condition instead
    // (client reply, metrics snapshot, Server::WaitFor).
    const bool sleep_scoped = PathContains(path_, "tests/serve");
    static constexpr std::string_view kRawIoNames[] = {
        "socket",  "bind",     "listen",   "accept",      "accept4",
        "connect", "send",     "recv",     "sendto",      "recvfrom",
        "read",    "write",    "close",    "shutdown",    "setsockopt",
        "getsockopt",          "getsockname",             "getpeername",
        "poll",    "select",   "epoll_wait"};
    const int n = static_cast<int>(tokens_.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = tokens_[i];
      if (t.kind != TokenKind::kIdent) continue;
      const bool call = i + 1 < n && tokens_[i + 1].text == "(";

      if (!abort_exempt && call && !IsMemberAccess(i) &&
          (t.text == "abort" || t.text == "exit" || t.text == "_Exit" ||
           t.text == "quick_exit" || t.text == "assert")) {
        ReportSpan(t.line, CallEndLine(i), kRuleNoAbort,
                   "call to '" + std::string(t.text) +
                       "' outside util/logging|status; return util::Status "
                       "or use DODUO_CHECK");
      }

      if (!random_exempt && !IsMemberAccess(i)) {
        if ((call && (t.text == "rand" || t.text == "srand" ||
                      t.text == "time")) ||
            t.text == "random_device") {
          ReportSpan(t.line, CallEndLine(i), kRuleNoRawRandom,
                     "'" + std::string(t.text) +
                         "' breaks the determinism contract; use util::Rng "
                         "(seeded) instead");
        }
      }

      if (arena_scoped) {
        if (t.text == "new") {
          Report(t.line, kRuleNoNakedNew,
                 "naked 'new' in kernel code; use nn::Workspace arenas or "
                 "containers");
        } else if (t.text == "delete") {
          const Token* p = Prev(i);
          if (p == nullptr || p->text != "=") {
            Report(t.line, kRuleNoNakedNew,
                   "naked 'delete' in kernel code; use nn::Workspace arenas "
                   "or containers");
          }
        } else if (call && !IsMemberAccess(i) &&
                   (t.text == "malloc" || t.text == "calloc" ||
                    t.text == "realloc" || t.text == "free")) {
          Report(t.line, kRuleNoNakedNew,
                 "raw '" + std::string(t.text) +
                     "' in kernel code; use nn::Workspace arenas or "
                     "containers");
        }
      }

      if (serve_scoped && call && !IsMemberAccess(i)) {
        for (const std::string_view raw : kRawIoNames) {
          if (t.text == raw) {
            ReportSpan(t.line, CallEndLine(i), kRuleServeRawIo,
                       "raw POSIX I/O call '" + std::string(t.text) +
                           "' outside serve/socket_io; use the "
                           "Status-returning wrappers in serve/socket_io.h");
            break;
          }
        }
      }

      if (!mutex_exempt && i >= 2 && tokens_[i - 1].text == "::" &&
          tokens_[i - 2].text == "std") {
        for (const std::string_view name : kRawMutexNames) {
          if (t.text == name) {
            Report(t.line, kRuleRawMutex,
                   "raw 'std::" + std::string(t.text) +
                       "' outside doduo/util; use util::Mutex / "
                       "util::MutexLock / util::CondVar (annotated + "
                       "deadlock-checked, DESIGN §13)");
            break;
          }
        }
      }

      if (call && IsMemberAccess(i) && t.text == "detach") {
        Report(t.line, kRuleDetachedThread,
               "detached thread outlives its owner and skips shutdown "
               "ordering; keep a handle and join() it");
      }

      if (sleep_scoped && call &&
          (t.text == "sleep_for" || t.text == "sleep_until")) {
        ReportSpan(t.line, CallEndLine(i), kRuleSleepSync,
                   "'" + std::string(t.text) +
                       "' as synchronization in a serve test is a race "
                       "hidden behind a timer; wait on the observable "
                       "condition instead");
      }
    }
  }

  // metrics-in-loop: registry lookups (GetCounter/GetHistogram) must be
  // hoisted out of loops into cached pointers (DESIGN §10).
  void CheckMetricsInLoop() {
    const int n = static_cast<int>(tokens_.size());
    // Pass 1: find the brace token indices that open loop bodies, and the
    // token ranges of brace-less loop body statements.
    std::vector<bool> loop_brace(tokens_.size(), false);
    std::vector<std::pair<int, int>> stmt_ranges;
    for (int i = 0; i < n; ++i) {
      const std::string_view t = tokens_[i].text;
      if (tokens_[i].kind == TokenKind::kIdent && t == "do") {
        if (i + 1 < n && tokens_[i + 1].text == "{") loop_brace[i + 1] = true;
        continue;
      }
      if (tokens_[i].kind != TokenKind::kIdent || (t != "for" && t != "while"))
        continue;
      if (i + 1 >= n || tokens_[i + 1].text != "(") continue;
      const int close = MatchParen(tokens_, i + 1);
      if (close < 0 || close + 1 >= n) continue;
      if (tokens_[close + 1].text == "{") {
        loop_brace[close + 1] = true;
      } else if (tokens_[close + 1].text != ";") {
        // Brace-less body: runs to the next ';' at paren depth zero.
        int depth = 0;
        for (int j = close + 1; j < n; ++j) {
          if (tokens_[j].text == "(") ++depth;
          if (tokens_[j].text == ")") --depth;
          if (tokens_[j].text == ";" && depth <= 0) {
            stmt_ranges.emplace_back(close + 1, j);
            break;
          }
        }
      }
    }
    // Pass 2: walk with a loop-depth stack and flag lookups inside.
    std::vector<int> loop_depths;
    int depth = 0;
    size_t range = 0;
    for (int i = 0; i < n; ++i) {
      const std::string_view t = tokens_[i].text;
      if (t == "{") {
        ++depth;
        if (loop_brace[i]) loop_depths.push_back(depth);
      } else if (t == "}") {
        if (!loop_depths.empty() && loop_depths.back() == depth) {
          loop_depths.pop_back();
        }
        --depth;
      } else if (tokens_[i].kind == TokenKind::kIdent &&
                 (t == "GetCounter" || t == "GetHistogram")) {
        while (range < stmt_ranges.size() && stmt_ranges[range].second < i) {
          ++range;
        }
        const bool in_stmt = range < stmt_ranges.size() &&
                             stmt_ranges[range].first <= i &&
                             i <= stmt_ranges[range].second;
        if (!loop_depths.empty() || in_stmt) {
          ReportSpan(tokens_[i].line, CallEndLine(i), kRuleMetricsInLoop,
                     "metrics registry lookup '" + std::string(t) +
                         "' inside a loop; resolve the pointer once outside "
                         "(cached-pointer pattern, DESIGN §10)");
        }
      }
    }
  }

  // quant-no-float-in-int8-kernel: the int8 GEMM contract (DESIGN §14) is
  // that accumulation is pure integer math — that is what makes the kernels
  // bit-identical across ISAs and thread counts. A function whose name
  // matches *Int8*Kernel* must therefore contain no float/double types, no
  // floating-point literals, and no *_ps/*_pd SIMD intrinsics; the dequant
  // epilogue belongs in a differently-named caller.
  void CheckInt8Kernels() {
    const int n = static_cast<int>(tokens_.size());
    auto is_kernel_name = [](std::string_view name) {
      const size_t int8 = name.find("Int8");
      return int8 != std::string_view::npos &&
             name.find("Kernel", int8 + 4) != std::string_view::npos;
    };
    for (int i = 0; i < n; ++i) {
      const Token& t = tokens_[i];
      if (t.kind != TokenKind::kIdent || !is_kernel_name(t.text)) continue;
      if (i + 1 >= n || tokens_[i + 1].text != "(") continue;
      const int close = MatchParen(tokens_, i + 1);
      if (close < 0) continue;
      // Skip trailing specifiers to the body brace; a ';' means this was
      // only a declaration (or a call — either way, no body to check).
      int open = close + 1;
      while (open < n && (tokens_[open].text == "const" ||
                          tokens_[open].text == "noexcept" ||
                          tokens_[open].text == "override")) {
        ++open;
      }
      if (open >= n || tokens_[open].text != "{") continue;
      int depth = 0;
      for (int j = open; j < n; ++j) {
        const Token& b = tokens_[j];
        if (b.text == "{") ++depth;
        if (b.text == "}" && --depth == 0) break;
        if (b.kind == TokenKind::kIdent) {
          const bool fp_intrinsic =
              b.text.size() > 3 && (b.text.ends_with("_ps") ||
                                    b.text.ends_with("_pd"));
          if (b.text == "float" || b.text == "double" || fp_intrinsic) {
            Report(b.line, kRuleQuantNoFloat,
                   "'" + std::string(b.text) + "' inside int8 kernel '" +
                       std::string(t.text) +
                       "'; int8 kernels are integer-only (the dequant "
                       "epilogue lives in the caller)");
          }
        } else if (b.kind == TokenKind::kNumber &&
                   b.text.find('.') != std::string_view::npos) {
          Report(b.line, kRuleQuantNoFloat,
                 "floating-point literal '" + std::string(b.text) +
                     "' inside int8 kernel '" + std::string(t.text) +
                     "'; int8 kernels are integer-only");
        }
      }
    }
  }

  void CheckHeaderGuard() {
    if (path_.size() < 2 || path_.substr(path_.size() - 2) != ".h") return;
    // First meaningful stripped line must be `#pragma once` or an
    // `#ifndef` guard immediately followed by its `#define`.
    std::vector<std::pair<int, std::string>> lines;  // (line number, text)
    int line = 1;
    size_t pos = 0;
    while (pos <= stripped_.size() && lines.size() < 2) {
      size_t end = stripped_.find('\n', pos);
      if (end == std::string::npos) end = stripped_.size();
      std::string text = stripped_.substr(pos, end - pos);
      const bool blank =
          std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isspace(c);
          });
      if (!blank) lines.emplace_back(line, std::move(text));
      if (end == stripped_.size()) break;
      pos = end + 1;
      ++line;
    }
    if (lines.empty()) return;  // empty header: nothing to guard
    auto starts_with = [](const std::string& s, std::string_view prefix) {
      size_t i = s.find_first_not_of(" \t");
      return i != std::string::npos && s.compare(i, prefix.size(), prefix) == 0;
    };
    if (starts_with(lines[0].second, "#pragma once")) return;
    if (starts_with(lines[0].second, "#ifndef") && lines.size() > 1 &&
        starts_with(lines[1].second, "#define")) {
      return;
    }
    Report(lines[0].first, kRuleHeaderGuard,
           "header must open with '#pragma once' or an #ifndef/#define "
           "include guard");
  }

  void CheckIncludeOrder() {
    // Line-wise over the ORIGINAL text: the quote form's path is a string
    // literal, which the stripper blanked. A line must start (modulo
    // whitespace) with '#', so `// #include` commented-out includes cannot
    // match.
    const std::string_view stem = PathStem(path_);
    // Test files open with the header under test (whose stem is the
    // test's minus "_test", or an unrelated fixture header), so under
    // tests/ any first quoted include counts as the own header.
    const bool test_file = path_.size() >= 6 && path_.substr(0, 6) == "tests/";
    int line = 1;
    size_t pos = 0;
    bool first_include = true;
    bool seen_project_include = false;
    while (pos <= source_.size()) {
      size_t end = source_.find('\n', pos);
      if (end == std::string_view::npos) end = source_.size();
      std::string_view text = source_.substr(pos, end - pos);
      size_t hash = text.find_first_not_of(" \t");
      if (hash != std::string_view::npos && text[hash] == '#') {
        size_t kw = text.find_first_not_of(" \t", hash + 1);
        if (kw != std::string_view::npos &&
            text.compare(kw, 7, "include") == 0) {
          size_t open = text.find_first_not_of(" \t", kw + 7);
          if (open != std::string_view::npos &&
              (text[open] == '<' || text[open] == '"')) {
            const bool system = text[open] == '<';
            bool own_header = false;
            if (first_include && !system) {
              // The first include of a .cc/.cpp should be its own header;
              // that include is exempt from group ordering.
              const char close_ch = '"';
              size_t close = text.find(close_ch, open + 1);
              if (close != std::string_view::npos) {
                own_header =
                    test_file ||
                    PathStem(text.substr(open + 1, close - open - 1)) == stem;
              }
            }
            if (!system && !own_header) seen_project_include = true;
            if (system && seen_project_include) {
              Report(line, kRuleIncludeOrder,
                     "system include after a project include; order is: own "
                     "header, <system>, then \"project\" headers");
            }
            first_include = false;
          }
        }
      }
      if (end == source_.size()) break;
      pos = end + 1;
      ++line;
    }
  }

  std::string_view path_;
  std::string_view source_;
  std::string stripped_;
  Suppressions suppressions_;
  std::vector<Token> tokens_;
  std::vector<Violation> violations_;
};

// ---------------------------------------------------------------------------
// Mechanical fixes.
// ---------------------------------------------------------------------------

std::vector<std::string> SplitLines(std::string_view source) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= source.size()) {
    size_t end = source.find('\n', pos);
    if (end == std::string_view::npos) {
      if (pos < source.size()) lines.emplace_back(source.substr(pos));
      break;
    }
    lines.emplace_back(source.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool IsBlankLine(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// True when the line is an #include directive; sets `*system` and the
/// included path.
bool ParseIncludeLine(std::string_view line, bool* system,
                      std::string* inc_path) {
  size_t hash = line.find_first_not_of(" \t");
  if (hash == std::string_view::npos || line[hash] != '#') return false;
  size_t kw = line.find_first_not_of(" \t", hash + 1);
  if (kw == std::string_view::npos || line.compare(kw, 7, "include") != 0) {
    return false;
  }
  size_t open = line.find_first_not_of(" \t", kw + 7);
  if (open == std::string_view::npos ||
      (line[open] != '<' && line[open] != '"')) {
    return false;
  }
  *system = line[open] == '<';
  const char close_ch = *system ? '>' : '"';
  size_t close = line.find(close_ch, open + 1);
  if (close == std::string_view::npos) return false;
  *inc_path = std::string(line.substr(open + 1, close - open - 1));
  return true;
}

/// Regroups the contiguous include block into own header / <system> /
/// "project", preserving relative order within each group. Returns false
/// (leaving `lines` untouched) when the block is interleaved with code,
/// comments, or conditional compilation — that reordering needs a human.
bool FixIncludeOrder(std::string_view path, std::vector<std::string>* lines) {
  const bool test_file = path.size() >= 6 && path.substr(0, 6) == "tests/";
  const std::string_view stem = PathStem(path);
  int first = -1, last = -1;
  for (int i = 0; i < static_cast<int>(lines->size()); ++i) {
    bool system = false;
    std::string inc;
    if (ParseIncludeLine((*lines)[i], &system, &inc)) {
      if (first < 0) first = i;
      last = i;
    }
  }
  if (first < 0) return false;
  std::vector<std::string> own, systems, projects;
  bool first_include = true;
  for (int i = first; i <= last; ++i) {
    const std::string& line = (*lines)[i];
    bool system = false;
    std::string inc;
    if (ParseIncludeLine(line, &system, &inc)) {
      bool is_own = false;
      if (first_include && !system) {
        is_own = test_file || PathStem(inc) == stem;
      } else if (!system && own.empty() && !test_file &&
                 PathStem(inc) == stem) {
        // Own header buried mid-block: hoist it to the front.
        is_own = true;
      }
      first_include = false;
      (is_own ? own : system ? systems : projects).push_back(line);
    } else if (!IsBlankLine(line)) {
      return false;  // code, a comment, or an #if inside the block
    }
  }
  std::vector<std::string> block;
  auto append_group = [&block](const std::vector<std::string>& group) {
    if (group.empty()) return;
    if (!block.empty()) block.emplace_back();
    block.insert(block.end(), group.begin(), group.end());
  };
  append_group(own);
  append_group(systems);
  append_group(projects);
  std::vector<std::string> out(lines->begin(), lines->begin() + first);
  out.insert(out.end(), block.begin(), block.end());
  out.insert(out.end(), lines->begin() + last + 1, lines->end());
  *lines = std::move(out);
  return true;
}

/// DODUO_-style guard name: "src/doduo/nn/ops.h" -> DODUO_NN_OPS_H_,
/// "tools/lint/lint_engine.h" -> DODUO_TOOLS_LINT_LINT_ENGINE_H_.
std::string GuardNameForPath(std::string_view path) {
  std::string_view p = path;
  if (p.substr(0, 10) == "src/doduo/") p.remove_prefix(10);
  std::string guard = "DODUO_";
  for (char c : p) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(
                              std::toupper(static_cast<unsigned char>(c)))
                        : '_');
  }
  guard.push_back('_');
  return guard;
}

/// Inserts an #ifndef/#define/#endif guard after any leading comment
/// block.
void FixHeaderGuard(std::string_view path, std::vector<std::string>* lines) {
  const std::string guard = GuardNameForPath(path);
  int insert_at = 0;
  bool in_block_comment = false;
  for (int i = 0; i < static_cast<int>(lines->size()); ++i) {
    const std::string& line = (*lines)[i];
    const size_t start = line.find_first_not_of(" \t");
    if (in_block_comment) {
      insert_at = i + 1;
      if (line.find("*/") != std::string::npos) in_block_comment = false;
      continue;
    }
    if (start == std::string::npos) {
      insert_at = i + 1;  // blank
    } else if (line.compare(start, 2, "//") == 0) {
      insert_at = i + 1;
    } else if (line.compare(start, 2, "/*") == 0) {
      insert_at = i + 1;
      if (line.find("*/", start + 2) == std::string::npos) {
        in_block_comment = true;
      }
    } else {
      break;
    }
  }
  lines->insert(lines->begin() + insert_at,
                {"#ifndef " + guard, "#define " + guard, ""});
  while (!lines->empty() && IsBlankLine(lines->back())) lines->pop_back();
  lines->push_back("");
  lines->push_back("#endif  // " + guard);
}

}  // namespace

std::vector<Violation> LintSource(std::string_view path,
                                  std::string_view source) {
  return Linter(path, source).Run();
}

std::string FormatViolation(const Violation& v) {
  return v.file + ":" + std::to_string(v.line) + ": " + v.rule + " " +
         v.message;
}

std::string ApplyFixes(std::string_view path, std::string_view source,
                       int* fixes_applied) {
  int applied = 0;
  std::string text(source);
  bool needs_include_fix = false;
  bool needs_guard_fix = false;
  for (const Violation& v : LintSource(path, text)) {
    if (v.rule == kRuleIncludeOrder) needs_include_fix = true;
    if (v.rule == kRuleHeaderGuard) needs_guard_fix = true;
  }
  std::vector<std::string> lines = SplitLines(text);
  if (needs_include_fix && FixIncludeOrder(path, &lines)) ++applied;
  if (needs_guard_fix) {
    FixHeaderGuard(path, &lines);
    ++applied;
  }
  if (fixes_applied != nullptr) *fixes_applied = applied;
  return applied > 0 ? JoinLines(lines) : text;
}

}  // namespace doduo::lint
