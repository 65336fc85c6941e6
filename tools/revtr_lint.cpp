// revtr-lint: repo-specific invariants that -Wall/-Wextra cannot express.
//
// Runs as a normal build target and as a ctest entry (`revtr_lint <repo
// root>`), so `ctest` alone enforces the rules. The checks are lexical: each
// file is stripped of comments and string/char literals first, so rule text
// inside documentation or log messages never trips a rule. A line can opt
// out of one rule with a trailing comment `lint:allow(<rule>)` — the marker
// is searched on the *raw* line, keeping suppressions greppable.
//
// Rules (see README.md "Correctness tooling" for how to add one):
//   raw-new-delete   Raw `new`/`delete` anywhere; owners use RAII
//                    (std::unique_ptr, containers). `= delete` is fine.
//   narrowing-cast   `static_cast` to a narrow integer type inside src/net/,
//                    the wire trust boundary; use util::checked_cast (abort
//                    on loss) or util::truncate_cast (intentional wrap).
//   header-hygiene   Every header under src/ carries `#pragma once` and
//                    lives in the `revtr` namespace.
//   std-endl         `std::endl` in src/ or bench/ (hot paths): it forces a
//                    flush per line; use '\n'.
//   layering         src/ include edges must follow the module DAG below:
//                    a module may include only strictly lower-ranked
//                    modules (or itself). Cycles are therefore impossible;
//                    a generic cycle detector still runs as a backstop.
//   enum-switch-default
//                    A switch in src/ whose cases name qualified
//                    enumerators (`case Foo::kBar:`) must not carry a
//                    `default:` label: it would swallow new enumerators
//                    that -Wswitch would otherwise force every switch to
//                    handle (pins HopSource/RevtrStatus exhaustiveness).
//   const-cast       `const_cast` anywhere in src/. Casting away const to
//                    mutate from a const accessor hid a data race in
//                    Distribution::quantile (lazy sort under readers) until
//                    TSan caught it; mutable members + a mutex make the
//                    sharing explicit. Genuinely const-adding casts are
//                    rare enough to justify a lint:allow(const-cast).
//   bare-output      `std::cout` or a bare `printf(` in src/: library code
//                    must not write to stdout — route data through the obs
//                    exporters (src/obs/) or return it to the caller.
//                    fprintf/snprintf stay legal (stderr diagnostics,
//                    formatting into buffers); tools/, tests/, bench/ and
//                    examples/ own their stdout and are exempt.
//   core-probe-issue Direct probe-issuing Prober calls (ping/rr_ping/
//                    ts_ping/traceroute/last_hop_scan) inside src/core/:
//                    the staged engine yields sched::ProbeDemand sets and
//                    all wire probes funnel through sched::execute_demand,
//                    so scheduler coalescing and pacing cannot be
//                    bypassed. Non-issuing Prober methods
//                    (offline_counters, OfflineScope) stay legal, and so
//                    does IngressDiscovery::discover: the on-demand survey
//                    is offline work on the discovery prober, never a wire
//                    probe of the request.
//   mutex-capability Raw std synchronization types (std::mutex,
//                    std::shared_mutex, std::lock_guard, std::unique_lock,
//                    std::shared_lock, std::scoped_lock, plain
//                    std::condition_variable) in src/: shared state uses
//                    the annotated util::Mutex / util::SharedMutex wrappers
//                    and their RAII guards (src/util/annotate.h) so clang
//                    -Wthread-safety can track every acquisition.
//                    std::condition_variable_any stays legal (it parks on
//                    the annotated MutexLock). annotate.h itself, which
//                    wraps the std types, is exempt.
//   guarded-member   Every non-atomic, non-const data member of a class
//                    that owns a util::Mutex/util::SharedMutex must carry
//                    REVTR_GUARDED_BY / REVTR_PT_GUARDED_BY, or waive with
//                    a `// lint: lock-free(<reason>)` comment on its
//                    declaration line. Mutex members, references, statics,
//                    std::atomic members and condition variables are exempt
//                    by construction.
//   raii-guard       Manual .lock()/.unlock()/.try_lock() calls in src/:
//                    critical sections are scoped by the RAII guards of
//                    annotate.h, so no early return or exception can leak a
//                    held mutex.
//   lock-order       Every RAII-guard acquisition in src/ must name a mutex
//                    with a declared rank (lock_order_table() below), and
//                    nested acquisitions must take strictly increasing
//                    ranks — util < obs < sched < vpselect/atlas — making
//                    the process-wide acquisition order deadlock-free by
//                    construction (DESIGN.md §11).
//
// Dataflow passes (DESIGN.md §12). These go beyond single-line regexes:
// they share the stripped-token model above plus a lexical scope tracker
// (brace depth), a function-definition scanner, and a cross-file collect
// phase that runs over every file before any file is judged.
//   taint            Untrusted-input taint, scoped to src/net/ and
//                    src/probing/ (the wire trust boundary). A local whose
//                    initializer reads network bytes (ByteReader .u8/.u16/
//                    .u32/.peek_u8, or any `reply` field of a probe result)
//                    is tainted; taint propagates through assignment.
//                    Tainted values must not reach a sink — subscript,
//                    .resize/.reserve/.assign/.substr/.subspan/.first/.last,
//                    or a loop bound — until sanitized by checked_cast/
//                    truncate_cast or an adjacent comparison against a bound
//                    (if/while/REVTR_CHECK/REVTR_DCHECK on the value).
//                    Bounds-checked ByteReader accessors (.bytes/.skip) are
//                    not sinks. Waive with `// lint: trusted(<reason>)`.
//   guard-escape     Methods of a mutex-owning class must not return
//                    references, pointers, iterators, spans or string_views
//                    into REVTR_GUARDED_BY members (or locals derived from
//                    them): the guard is gone when the caller dereferences.
//                    Return by value or std::shared_ptr<const T> snapshots
//                    instead (the PR 6 atlas fix, now an enforced contract).
//                    REVTR_REQUIRES-annotated internal accessors are exempt
//                    (the caller holds the lock by contract). Waive a
//                    deliberately stable handle with
//                    `// lint: stable-ref(<reason>)` on or above the
//                    definition, or on the return line.
//   stage-graph      The RequestTask stage machine must match its declared
//                    DAG: each `// lint: stage(kFrom -> kTo, ...)` comment
//                    next to the Stage enum declares the legal successors
//                    of one stage (empty list = terminal). Every enumerator
//                    must be declared, every declared node must exist,
//                    every switch over Stage must name every enumerator,
//                    and every `stage_ = ...` assignment reachable from a
//                    stage's dispatch handler (transitively, through the
//                    call graph) must target a declared successor.
//   stage-span       open_stage/close_stage balance, checked by abstract
//                    interpretation of the handler bodies (branch/loop/call
//                    aware): no double open, no close without an open, a
//                    consistent span balance at every stage entry, and no
//                    open span left when a terminal stage is reached.
//
// Module DAG (rank order; an include edge must point strictly downward):
//   util(0) → net(1), obs(1) → topology(2) → routing(3) → sim(4)
//   → probing(5) → alias(6), asmap(6), sched(6) → atlas(7), vpselect(7)
//   → core(8) → analysis(9) → eval(10), service(10)
// tools/, tests/, bench/ and examples/ sit on top and may include anything.
//
// `revtr_lint --self-test` exercises both accept and reject paths of the
// layering and enum-switch rules on synthetic inputs; it is registered in
// ctest so the analyzer itself cannot silently rot.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  std::size_t line = 0;  // 0 = whole-file finding.
  std::string rule;
  std::string message;
  bool waived = false;  // Suppressed by an in-source waiver; kept for JSON.
};

bool has_extension(const fs::path& path, std::string_view ext) {
  return path.extension() == ext;
}

bool is_source(const fs::path& path) {
  return has_extension(path, ".cpp") || has_extension(path, ".h");
}

// Removes comments and the contents of string/char literals while keeping
// line structure, so later regex passes see only code. This is a lexer-level
// approximation (no raw strings in this codebase), which is exactly the
// fidelity a lexical linter wants: cheap and predictable.
std::string strip_comments_and_literals(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out.push_back(c);
        } else if (c == '\'') {
          state = State::kChar;
          out.push_back(c);
        } else {
          out.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back(c);  // Unterminated; keep line numbers aligned.
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back(c);
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(text);
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

bool allows(const std::string& raw_line, std::string_view rule) {
  const std::string marker = "lint:allow(" + std::string(rule) + ")";
  return raw_line.find(marker) != std::string::npos;
}

// --- Layering. -------------------------------------------------------------

// The module DAG, as ranks. An include edge src/<A>/… → "<B>/…" is legal
// iff A == B or rank[B] < rank[A]. Adding a module under src/ requires
// adding it here, which forces a layering decision in review.
const std::map<std::string, int, std::less<>>& module_ranks() {
  static const std::map<std::string, int, std::less<>> kRanks = {
      {"util", 0},  {"net", 1},      {"obs", 1},      {"topology", 2},
      {"routing", 3}, {"sim", 4},    {"probing", 5},  {"alias", 6},
      {"asmap", 6}, {"sched", 6},    {"atlas", 7},    {"vpselect", 7},
      {"core", 8},  {"analysis", 9}, {"eval", 10},    {"service", 10},
      {"server", 11},  // The daemon sits on the whole stack.
      {"agent", 12},   // The VP agent speaks the server's frames and owns
                       // its own eval stack, so it sits above both.
  };
  return kRanks;
}

// Module of a repo-relative path, or "" when the file is not under a
// src/<module>/ directory (tools, tests, bench sit above the DAG).
std::string module_of(const std::string& rel) {
  constexpr std::string_view kPrefix = "src/";
  if (rel.rfind(kPrefix, 0) != 0) return "";
  const std::size_t slash = rel.find('/', kPrefix.size());
  if (slash == std::string::npos) return "";
  return rel.substr(kPrefix.size(), slash - kPrefix.size());
}

// Generic cycle finder over the collected module graph. With strictly
// decreasing ranks a cycle cannot pass the rank check, so this only fires
// if the rank table itself is edited into an inconsistency — or in the
// self-test, which feeds it synthetic graphs.
std::optional<std::vector<std::string>> find_cycle(
    const std::set<std::pair<std::string, std::string>>& edges) {
  std::map<std::string, std::vector<std::string>> adjacent;
  for (const auto& [from, to] : edges) adjacent[from].push_back(to);

  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::string> stack;
  std::optional<std::vector<std::string>> cycle;

  const std::function<bool(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = Color::kGray;
        stack.push_back(node);
        for (const auto& next : adjacent[node]) {
          const Color c = color.count(next) ? color[next] : Color::kWhite;
          if (c == Color::kGray) {
            // Slice the stack from the first occurrence of `next`.
            std::vector<std::string> path;
            bool in_cycle = false;
            for (const auto& n : stack) {
              if (n == next) in_cycle = true;
              if (in_cycle) path.push_back(n);
            }
            path.push_back(next);
            cycle = std::move(path);
            return true;
          }
          if (c == Color::kWhite && visit(next)) return true;
        }
        stack.pop_back();
        color[node] = Color::kBlack;
        return false;
      };

  for (const auto& [from, to] : edges) {
    if (!color.count(from) && visit(from)) break;
  }
  return cycle;
}

// --- Switch scanning. ------------------------------------------------------

struct SwitchSpan {
  std::size_t keyword = 0;  // Position of the `switch` token.
  std::size_t open = 0;     // Its block's '{'.
  std::size_t close = 0;    // The matching '}'.
};

std::vector<SwitchSpan> find_switches(const std::string& code) {
  std::vector<SwitchSpan> out;
  static const std::regex kSwitch(R"(\bswitch\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kSwitch);
       it != std::sregex_iterator(); ++it) {
    SwitchSpan span;
    span.keyword = static_cast<std::size_t>(it->position());
    span.open = code.find('{', span.keyword);
    if (span.open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = std::string::npos;
    for (std::size_t i = span.open; i < code.size(); ++i) {
      if (code[i] == '{') ++depth;
      if (code[i] == '}' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) continue;
    span.close = close;
    out.push_back(span);
  }
  return out;
}

// The switch body with nested switch statements excised, so an inner
// switch's `default:` cannot be attributed to the outer one.
std::string own_body(const std::string& code, const SwitchSpan& span,
                     const std::vector<SwitchSpan>& all) {
  std::string own;
  std::size_t i = span.open + 1;
  while (i < span.close) {
    bool skipped = false;
    for (const auto& nested : all) {
      if (nested.keyword == i && nested.open > span.open &&
          nested.close < span.close) {
        i = nested.close + 1;
        skipped = true;
        break;
      }
    }
    if (!skipped) own.push_back(code[i++]);
  }
  return own;
}

// --- Lock discipline. ------------------------------------------------------

// Process-wide lock-acquisition order (DESIGN.md §11). Keyed by
// (module, mutex name); ranks follow the module DAG (module rank x 10), so
// the declared order is exactly the layering order: a thread holding a
// higher-ranked lock never acquires a lower-ranked one. Adding a mutex to
// src/ requires adding it here, which forces an ordering decision in review.
const std::map<std::pair<std::string, std::string>, int>& lock_order_table() {
  static const std::map<std::pair<std::string, std::string>, int> kOrder = {
      {{"util", "mu"}, 0},             // StripedMap stripe mutexes.
      {{"util", "mu_"}, 0},            // Distribution.
      {{"util", "order_mu"}, 0},       // ordered_fan_out's result slots;
                                       // never held while a commit runs.
      {{"obs", "mu_"}, 10},            // MetricsRegistry, TraceSink.
      {{"sched", "mu_"}, 60},          // ProbeScheduler.
      {{"vpselect", "mu_"}, 70},       // IngressDiscovery.
      {{"atlas", "sources_mu_"}, 70},  // TracerouteAtlas source map.
      {{"atlas", "stripe_of"}, 71},    // A stripe nests inside sources_mu_;
                                       // never two stripes at once.
      {{"server", "mu_"}, 110},        // ServerDaemon: above everything —
                                       // registry lookups and scheduler
                                       // reads happen before, never under.
      {{"agent", "mu_"}, 120},         // AgentDaemon counters. Never nests
                                       // with the server's mu_ in one
                                       // process; ranked above it because
                                       // in-process tests run both.
      {{"server", "mu"}, 130},         // ServerDaemon::Outbox, one per
                                       // connection: a leaf, taken under
                                       // the daemon's mu_ at most.
  };
  return kOrder;
}

// A mutex expression as it appears in a guard construction, normalized to
// its lock_order_table() key: `other.mu_` -> "mu_", `s.mu` -> "mu",
// `stripe_of(source)` -> "stripe_of".
std::string normalize_mutex_expr(const std::string& arg) {
  if (arg.find("stripe_of") != std::string::npos) return "stripe_of";
  std::string name;
  static const std::regex kIdent(R"((\w+))");
  for (auto it = std::sregex_iterator(arg.begin(), arg.end(), kIdent);
       it != std::sregex_iterator(); ++it) {
    name = it->str();
  }
  return name;
}

struct ClassSpan {
  std::size_t keyword = 0;  // Position of the `class`/`struct` token.
  std::size_t open = 0;     // The body's '{'.
  std::size_t close = 0;    // The matching '}'.
  std::string name;
};

// Every class/struct *definition* in the stripped code, nested ones
// included (each nested type is judged as its own class). Forward
// declarations, template parameters and elaborated-type uses are skipped.
std::vector<ClassSpan> find_classes(const std::string& code) {
  std::vector<ClassSpan> out;
  static const std::regex kClass(R"(\b(class|struct)\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kClass);
       it != std::sregex_iterator(); ++it) {
    const auto pos = static_cast<std::size_t>(it->position());
    {  // `enum class` / `enum struct` are enums, not classes.
      std::size_t p = pos;
      while (p > 0 && std::isspace(static_cast<unsigned char>(code[p - 1]))) {
        --p;
      }
      if (p >= 4 && code.compare(p - 4, 4, "enum") == 0) continue;
    }
    // Scan ahead for the body's '{'. A ';' first means a forward
    // declaration; ',' '>' '=' ')' mean a template parameter or an
    // elaborated-type mention. Balanced parens (attribute macros like
    // REVTR_CAPABILITY("...")) are skipped.
    std::size_t open = std::string::npos;
    for (std::size_t i = pos + static_cast<std::size_t>(it->length());
         i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') {
        int depth = 1;
        while (++i < code.size() && depth > 0) {
          if (code[i] == '(') ++depth;
          if (code[i] == ')') --depth;
        }
        --i;
        continue;
      }
      if (c == '{') {
        open = i;
        break;
      }
      if (c == ';' || c == ',' || c == '>' || c == '=' || c == ')') break;
    }
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
      if (code[i] == '{') ++depth;
      if (code[i] == '}' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) continue;
    ClassSpan span;
    span.keyword = pos;
    span.open = open;
    span.close = close;
    const std::string head = code.substr(pos, open - pos);
    static const std::regex kName(
        R"(^(class|struct)\s+(?:REVTR_\w+\s*(?:\([^)]*\))?\s*)*(\w+))");
    std::smatch name;
    span.name = std::regex_search(head, name, kName) ? name[2].str()
                                                     : std::string("(anon)");
    out.push_back(span);
  }
  return out;
}

struct MemberStmt {
  std::string text;            // Stripped statement, whitespace-collapsed.
  std::string top;             // `text` outside template angle brackets.
  std::size_t line_begin = 0;  // 1-based, inclusive.
  std::size_t line_end = 0;
};

// The class body split into top-level statements with nested brace groups
// (function bodies, nested types, brace initializers) excised. A statement
// ends at ';', or at a brace group not followed by ';' (a function body).
std::vector<MemberStmt> class_statements(const std::string& code,
                                         const ClassSpan& span) {
  std::vector<MemberStmt> out;
  std::string text;
  std::size_t stmt_start = span.open + 1;
  const auto line_of = [&code](std::size_t pos) {
    return 1 + static_cast<std::size_t>(
                   std::count(code.begin(),
                              code.begin() + static_cast<long>(pos), '\n'));
  };
  const auto flush = [&](std::size_t end_pos) {
    std::string collapsed;
    bool in_space = true;
    for (const char c : text) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) collapsed.push_back(' ');
        in_space = true;
      } else {
        collapsed.push_back(c);
        in_space = false;
      }
    }
    while (!collapsed.empty() && collapsed.back() == ' ') collapsed.pop_back();
    // Access specifiers prefix the statement they precede; drop them.
    static const std::regex kAccess(R"(^\s*(public|private|protected)\s*:\s*)");
    collapsed = std::regex_replace(collapsed, kAccess, "");
    text.clear();
    if (collapsed.empty()) return;
    MemberStmt stmt;
    stmt.text = collapsed;
    int angle = 0;
    for (const char c : collapsed) {
      if (c == '<') {
        ++angle;
        continue;
      }
      if (c == '>') {
        if (angle > 0) --angle;
        continue;
      }
      if (angle == 0) stmt.top.push_back(c);
    }
    stmt.line_begin = line_of(stmt_start);
    stmt.line_end = line_of(end_pos < code.size() ? end_pos : code.size() - 1);
    out.push_back(std::move(stmt));
  };

  std::size_t i = span.open + 1;
  int parens = 0;  // A '{' inside parens is a default argument, not a body.
  while (i < span.close) {
    const char c = code[i];
    if (c == '(') ++parens;
    if (c == ')' && parens > 0) --parens;
    if (c == '{') {
      int depth = 1;
      ++i;
      while (i < span.close && depth > 0) {
        if (code[i] == '{') ++depth;
        if (code[i] == '}') --depth;
        ++i;
      }
      text += "{}";
      if (parens > 0) continue;  // `f(std::span<T> xs = {})` and the like.
      std::size_t peek = i;
      while (peek < span.close &&
             std::isspace(static_cast<unsigned char>(code[peek]))) {
        ++peek;
      }
      if (peek < span.close && code[peek] == ';') continue;  // Brace init.
      flush(i);  // Function body: the statement ends here.
      stmt_start = i;
      continue;
    }
    if (c == ';' && parens == 0) {
      flush(i);
      ++i;
      stmt_start = i;
      continue;
    }
    text += c;
    ++i;
  }
  flush(span.close);
  return out;
}

// True when the statement declares data, not a function, type alias, nested
// type, or static. Operates on the angle-stripped `top` so parentheses in
// template arguments (std::function<void()>) do not read as functions.
bool is_data_member(const MemberStmt& stmt) {
  if (stmt.top.empty()) return false;
  if (stmt.top.find('(') != std::string::npos ||
      stmt.top.find(')') != std::string::npos) {
    return false;
  }
  static const std::regex kOperator(R"(\boperator\b)");
  if (std::regex_search(stmt.text, kOperator)) return false;
  static const std::regex kNonData(
      R"(^\s*(static|constexpr|using|typedef|friend|template|enum|class|struct|union)\b)");
  return !std::regex_search(stmt.top, kNonData);
}

// --- Shared token/scope helpers for the dataflow passes. --------------------

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Start of the identifier whose last character is code[end - 1], or npos
// when the preceding token is not an identifier.
std::size_t ident_begin(const std::string& code, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && is_ident_char(code[b - 1])) --b;
  return b == end ? std::string::npos : b;
}

std::size_t skip_space_backward(const std::string& code, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(code[pos - 1]))) {
    --pos;
  }
  return pos;
}

std::size_t line_of_pos(const std::string& code, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(code.begin(),
                            code.begin() + static_cast<long>(
                                               std::min(pos, code.size())),
                            '\n'));
}

// Whole-word containment: `name` appears in `text` with no identifier
// character on either side.
bool word_in(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

struct FuncDef {
  std::string name;
  std::string qualifier;    // `Class` for `Class::name`, empty otherwise.
  std::string return_type;  // Text before the (qualified) name.
  std::string trailer;      // Tokens between ')' and '{': const, REVTR_*...
  std::size_t name_pos = 0;
  std::size_t open = 0;   // The body's '{'.
  std::size_t close = 0;  // The matching '}'.
};

// Parses backward from a '{' to decide whether it opens a function body.
// Returns nullopt for control statements, lambdas, class/namespace bodies,
// brace initializers, and constructor initializer lists (filtered by the
// caller via return_type heuristics).
std::optional<FuncDef> function_at(const std::string& code,
                                   std::size_t brace) {
  static const std::set<std::string, std::less<>> kNotNames = {
      "if", "for", "while", "switch", "catch", "return",
      "sizeof", "alignof", "decltype", "new"};
  static const std::set<std::string, std::less<>> kTrailerWords = {
      "const", "noexcept", "override", "final", "try"};
  std::string trailer;
  std::size_t p = brace;
  while (true) {
    p = skip_space_backward(code, p);
    if (p == 0) return std::nullopt;
    const char c = code[p - 1];
    if (c == ')') {
      int depth = 0;
      std::size_t i = p;
      while (i > 0) {
        --i;
        if (code[i] == ')') ++depth;
        if (code[i] == '(' && --depth == 0) break;
      }
      if (code[i] != '(' || depth != 0) return std::nullopt;
      const std::size_t q = skip_space_backward(code, i);
      const std::size_t nb = ident_begin(code, q);
      if (nb == std::string::npos) return std::nullopt;  // Lambda etc.
      const std::string name = code.substr(nb, q - nb);
      if (name.rfind("REVTR_", 0) == 0) {
        trailer += name + " ";  // Attribute macro; keep walking back.
        p = nb;
        continue;
      }
      if (kNotNames.count(name)) return std::nullopt;
      FuncDef def;
      def.name = name;
      def.name_pos = nb;
      def.trailer = trailer;
      // `Class::` qualifiers (innermost one names the owner).
      std::size_t r = skip_space_backward(code, nb);
      if (r >= 2 && code[r - 1] == ':' && code[r - 2] == ':') {
        const std::size_t qe = skip_space_backward(code, r - 2);
        const std::size_t qb = ident_begin(code, qe);
        if (qb != std::string::npos) {
          def.qualifier = code.substr(qb, qe - qb);
          r = qb;
          // Swallow any outer `ns::` qualifiers into the boundary scan.
          while (true) {
            const std::size_t r2 = skip_space_backward(code, r);
            if (r2 < 2 || code[r2 - 1] != ':' || code[r2 - 2] != ':') break;
            const std::size_t e2 = skip_space_backward(code, r2 - 2);
            const std::size_t b2 = ident_begin(code, e2);
            if (b2 == std::string::npos) break;
            r = b2;
          }
        }
      }
      // Return type: back to the statement boundary. `::` passes through;
      // a single ':' (access specifier, ctor init list) stops the scan.
      std::size_t b = r;
      while (b > 0) {
        const char bc = code[b - 1];
        if (bc == ';' || bc == '{' || bc == '}') break;
        if (bc == ':') {
          if (b >= 2 && code[b - 2] == ':') {
            b -= 2;
            continue;
          }
          break;
        }
        --b;
      }
      def.return_type = code.substr(b, r - b);
      int d = 0;
      std::size_t close = std::string::npos;
      for (std::size_t j = brace; j < code.size(); ++j) {
        if (code[j] == '{') ++d;
        if (code[j] == '}' && --d == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) return std::nullopt;
      def.open = brace;
      def.close = close;
      return def;
    }
    if (is_ident_char(c)) {
      const std::size_t b = ident_begin(code, p);
      const std::string word = code.substr(b, p - b);
      if (kTrailerWords.count(word)) {
        trailer += word + " ";
        p = b;
        continue;
      }
      return std::nullopt;  // class X {, namespace x {, do {, else {, X x{.
    }
    return std::nullopt;
  }
}

// Every function definition in the stripped code, filtered down to things
// that plausibly have a return type (constructors, destructors, operators
// and initializer-list fragments are dropped).
std::vector<FuncDef> find_functions(const std::string& code) {
  std::vector<FuncDef> out;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '{') continue;
    auto def = function_at(code, i);
    if (!def) continue;
    const std::string& rt = def->return_type;
    const bool blank =
        rt.find_first_not_of(" \t\n") == std::string::npos;
    if (blank || rt.find('(') != std::string::npos ||
        rt.find(')') != std::string::npos ||
        rt.find('~') != std::string::npos ||
        rt.find("operator") != std::string::npos) {
      continue;
    }
    out.push_back(std::move(*def));
  }
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::size_t skip_space_forward(const std::string& code, std::size_t pos,
                               std::size_t end) {
  while (pos < end && std::isspace(static_cast<unsigned char>(code[pos]))) {
    ++pos;
  }
  return pos;
}

// Matching close brace/paren for the opener at `open`, bounded by `end`.
std::size_t match_group(const std::string& code, std::size_t open,
                        std::size_t end, char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (code[i] == open_c) ++depth;
    if (code[i] == close_c && --depth == 0) return i;
  }
  return end;
}

// Reads one plain statement starting at `from`: returns the index of its
// terminating ';' (or `end`) and the statement text with the contents of
// brace groups (lambda bodies, init lists) excised — those run elsewhere.
std::pair<std::size_t, std::string> read_statement(const std::string& code,
                                                   std::size_t from,
                                                   std::size_t end) {
  std::string text;
  int parens = 0;
  std::size_t i = from;
  while (i < end) {
    const char c = code[i];
    if (c == '{') {
      i = match_group(code, i, end, '{', '}') + 1;
      text += "{}";
      continue;
    }
    if (c == '(') ++parens;
    if (c == ')' && parens > 0) --parens;
    if (c == ';' && parens == 0) return {i, text};
    text.push_back(c);
    ++i;
  }
  return {end, text};
}

class Linter {
 public:
  // A collected RequestTask method body for the stage passes.
  struct StageMethod {
    std::string file;
    std::string body;           // Stripped text between the braces.
    std::size_t body_line = 0;  // 1-based line of the opening '{'.
  };

  explicit Linter(fs::path root) : root_(std::move(root)) {}

  void lint_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      report(relative_path(path), 0, "io", "cannot open file");
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lint_source(relative_path(path), buffer.str());
  }

  void collect_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;  // lint_file reports the IO failure.
    std::ostringstream buffer;
    buffer << in.rdbuf();
    collect_source(relative_path(path), buffer.str());
  }

  // Cross-file collect phase: guarded-member registries for the escape
  // pass and the stage enum / DAG / method bodies for the stage passes.
  // main() runs it over every file before linting any; lint_source also
  // invokes it (idempotently) so single-source self-test fixtures work.
  void collect_source(const std::string& rel, const std::string& raw) {
    if (!collected_.insert(rel).second) return;
    if (rel.rfind("src/", 0) != 0) return;
    const std::string code = strip_comments_and_literals(raw);
    const auto raw_lines = split_lines(raw);

    // Mutex-owning classes and their REVTR_GUARDED_BY members.
    static const std::regex kMutexType(
        R"(\b(util\s*::\s*)?(Mutex|SharedMutex)\b)");
    static const std::regex kGuardedName(
        R"((\w+)\s+REVTR_(PT_)?GUARDED_BY\s*\()");
    for (const auto& span : find_classes(code)) {
      const auto statements = class_statements(code, span);
      bool owns_mutex = false;
      for (const auto& stmt : statements) {
        if (is_data_member(stmt) && std::regex_search(stmt.text, kMutexType)) {
          owns_mutex = true;
          break;
        }
      }
      if (!owns_mutex) continue;
      mutex_classes_.insert(span.name);
      for (const auto& stmt : statements) {
        // Not filtered through is_data_member: the annotation's own parens
        // make annotated members look like function declarations to it.
        std::smatch m;
        if (std::regex_search(stmt.text, m, kGuardedName)) {
          guarded_members_[span.name].insert(m[1].str());
        }
      }
    }

    // Stage enum enumerators (first `enum class Stage` definition wins).
    static const std::regex kStageEnum(R"(\benum\s+class\s+Stage\b)");
    std::smatch enum_match;
    if (stage_enum_.empty() &&
        std::regex_search(code, enum_match, kStageEnum)) {
      const auto pos = static_cast<std::size_t>(enum_match.position());
      const std::size_t open = code.find('{', pos);
      const std::size_t close =
          open == std::string::npos ? std::string::npos : code.find('}', open);
      if (close != std::string::npos) {
        const std::string body = code.substr(open + 1, close - open - 1);
        static const std::regex kEnumerator(R"(\b(k\w+)\b)");
        for (auto it = std::sregex_iterator(body.begin(), body.end(),
                                            kEnumerator);
             it != std::sregex_iterator(); ++it) {
          if (stage_enum_order_.empty()) stage_initial_ = it->str(1);
          stage_enum_order_.push_back(it->str(1));
          stage_enum_[it->str(1)] =
              line_of_pos(code, open + static_cast<std::size_t>(
                                          it->position()));
        }
        stage_enum_file_ = rel;
      }
    }

    // Declared stage DAG: `// lint: stage(kFrom -> kTo, ...)` on raw lines
    // (the declarations live in comments next to the enum).
    static const std::regex kStageDecl(
        R"re(lint:\s*stage\(\s*(\w+)\s*->([^)]*)\))re");
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(raw_lines[i], m, kStageDecl)) continue;
      const std::string node = m[1].str();
      std::set<std::string>& succ = stage_dag_[node];
      const std::string rest = m[2].str();
      static const std::regex kIdent(R"((\w+))");
      for (auto it = std::sregex_iterator(rest.begin(), rest.end(), kIdent);
           it != std::sregex_iterator(); ++it) {
        succ.insert(it->str());
      }
      stage_decl_site_[node] = {rel, i + 1};
    }

    // RequestTask method bodies (out-of-line `RequestTask::f` definitions
    // and inline methods of a class named RequestTask), for the stage
    // transition closure and the span interpreter.
    const auto classes = find_classes(code);
    for (const auto& def : find_functions(code)) {
      std::string owner = def.qualifier;
      if (owner.empty()) {
        for (const auto& span : classes) {
          if (span.open < def.name_pos && def.name_pos < span.close) {
            owner = span.name;  // Innermost enclosing class wins.
          }
        }
      }
      if (owner != "RequestTask") continue;
      StageMethod method;
      method.file = rel;
      method.body = code.substr(def.open + 1, def.close - def.open - 1);
      method.body_line = line_of_pos(code, def.open);
      stage_methods_[def.name] = std::move(method);
    }
    collected_raw_[rel] = raw_lines;
  }

  // The actual pass, separated from file IO so --self-test can feed
  // synthetic sources.
  void lint_source(const std::string& rel, const std::string& raw) {
    collect_source(rel, raw);
    const std::string code = strip_comments_and_literals(raw);
    const auto raw_lines = split_lines(raw);
    const auto code_lines = split_lines(code);

    const bool in_net = rel.rfind("src/net/", 0) == 0;
    const bool in_src = rel.rfind("src/", 0) == 0;
    const bool in_hot = in_src || rel.rfind("bench/", 0) == 0;
    // annotate.h wraps the raw std types and owns the only legal manual
    // lock/unlock calls; every other src/ file obeys the lock rules.
    const bool lock_rules = in_src && rel != "src/util/annotate.h";
    const std::string module = module_of(rel);

    if (in_src && has_extension(fs::path(rel), ".h")) check_header(rel, code);

    // clang-format off
    static const std::regex kRawNew(
        R"((^|[^\w.>])new\s+[\w:<(])");
    static const std::regex kRawDelete(
        R"((^|[^\w])delete(\s*\[\s*\])?\s+[\w:*(])");
    static const std::regex kNarrowingCast(
        R"(static_cast<\s*(std::)?(u?int(8|16|32)_t|(un)?signed\s+char|char|short|(un)?signed\s+short)\s*>)");
    static const std::regex kStdEndl(R"(std\s*::\s*endl)");
    static const std::regex kConstCast(R"(\bconst_cast\s*<)");
    static const std::regex kStdCout(R"(\bstd\s*::\s*cout\b)");
    // Bare printf only: the [^\w] guard keeps fprintf/snprintf/vsnprintf
    // legal, the optional std:: prefix catches <cstdio>'s qualified form.
    static const std::regex kBarePrintf(
        R"((^|[^\w])(std\s*::\s*)?printf\s*\()");
    // Probe-issuing Prober methods called on any identifier naming a prober
    // (prober_, engine_.prober_, a local `probing::Prober& prober`, ...).
    // Non-issuing members (offline_counters, counters) do not match.
    static const std::regex kProbeIssue(
        R"re((\b\w*[Pp]rober\w*\s*(\.|->)|\bProber\s*::\s*)(ping|rr_ping|ts_ping|traceroute|last_hop_scan)\s*\()re");
    // The stripper blanks string contents, so the include *path* must come
    // from the raw line; the stripped line still proves the directive is
    // not inside a comment.
    static const std::regex kIncludeStripped(R"(^\s*#\s*include\s*"")");
    static const std::regex kIncludeRaw(R"re(^\s*#\s*include\s*"([^"]+)")re");
    // Raw std synchronization vocabulary. condition_variable_any is legal
    // (the \b after condition_variable does not match before '_').
    static const std::regex kStdSync(
        R"(\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b)");
    // Manual lock-management calls on any object.
    static const std::regex kManualLock(
        R"((\.|->)\s*(unlock_shared|lock_shared|try_lock_shared|try_lock|unlock|lock)\s*\()");
    // clang-format on

    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const std::string& line = code_lines[i];
      const std::string& raw_line = i < raw_lines.size() ? raw_lines[i] : line;
      const std::size_t lineno = i + 1;

      if (std::regex_search(line, kRawNew) && !allows(raw_line, "raw-new-delete")) {
        report(rel, lineno, "raw-new-delete",
               "raw new; use std::make_unique or a container");
      }
      if (std::regex_search(line, kRawDelete) &&
          !allows(raw_line, "raw-new-delete")) {
        report(rel, lineno, "raw-new-delete",
               "raw delete; owners must use RAII");
      }
      if (in_net && std::regex_search(line, kNarrowingCast) &&
          !allows(raw_line, "narrowing-cast")) {
        report(rel, lineno, "narrowing-cast",
               "unchecked narrowing static_cast in src/net/; use "
               "util::checked_cast or util::truncate_cast");
      }
      if (in_hot && std::regex_search(line, kStdEndl) &&
          !allows(raw_line, "std-endl")) {
        report(rel, lineno, "std-endl",
               "std::endl flushes per line; use '\\n'");
      }
      if (in_src && std::regex_search(line, kConstCast) &&
          !allows(raw_line, "const-cast")) {
        report(rel, lineno, "const-cast",
               "const_cast in src/; mutation behind a const interface hides "
               "data races (see Distribution) — use mutable members with "
               "explicit synchronization");
      }
      if (in_src &&
          (std::regex_search(line, kStdCout) ||
           std::regex_search(line, kBarePrintf)) &&
          !allows(raw_line, "bare-output")) {
        report(rel, lineno, "bare-output",
               "bare stdout write in src/; library code returns data or "
               "exports it via src/obs/ — printing belongs to tools/");
      }
      if (module == "core" && std::regex_search(line, kProbeIssue) &&
          !allows(raw_line, "core-probe-issue")) {
        report(rel, lineno, "core-probe-issue",
               "direct probe-issuing Prober call in src/core/; the staged "
               "engine must yield a sched::ProbeDemand so the scheduler can "
               "coalesce and pace it (all wire probes funnel through "
               "sched::execute_demand)");
      }
      if (!module.empty() && std::regex_search(line, kIncludeStripped)) {
        std::smatch match;
        if (std::regex_search(raw_line, match, kIncludeRaw)) {
          check_include(rel, lineno, module, match[1].str(), raw_line);
        }
      }
      if (lock_rules && std::regex_search(line, kStdSync) &&
          !allows(raw_line, "mutex-capability")) {
        report(rel, lineno, "mutex-capability",
               "raw std synchronization type in src/; use the annotated "
               "util::Mutex / util::SharedMutex and the RAII guards of "
               "util/annotate.h so -Wthread-safety can track the capability");
      }
      if (lock_rules && std::regex_search(line, kManualLock) &&
          !allows(raw_line, "raii-guard")) {
        report(rel, lineno, "raii-guard",
               "manual lock()/unlock() call in src/; scope the critical "
               "section with MutexLock/SharedLock/ExclusiveLock so no "
               "early return or exception can leak a held mutex");
      }
    }

    if (in_src) check_switches(rel, code, raw_lines);
    if (lock_rules) {
      check_guarded_members(rel, code, raw_lines);
      check_lock_order(rel, code, raw_lines, module);
      check_guard_escape(rel, code, raw_lines);
    }
    if (module == "net" || module == "probing") {
      check_taint(rel, code_lines, raw_lines);
    }
    static const std::regex kStageDispatch(R"(\bcase\s+Stage\s*::)");
    if (in_src && std::regex_search(code, kStageDispatch)) {
      check_stage_machine();
    }
  }

  int finish(bool json = false) {
    // Backstop: a cycle among modules can only appear if the rank table is
    // edited into inconsistency, but it is cheap to prove there is none.
    if (const auto cycle = find_cycle(module_edges_)) {
      std::string path;
      for (const auto& node : *cycle) {
        if (!path.empty()) path += " -> ";
        path += node;
      }
      report("src", 0, "layering", "module include cycle: " + path);
    }
    std::size_t unwaived = 0;
    for (const auto& v : violations_) {
      if (!v.waived) ++unwaived;
    }
    if (json) {
      // Machine-readable findings (waived ones included, marked) so CI can
      // annotate diffs; the exit code still reflects unwaived only.
      std::printf("[");
      const char* sep = "\n";
      for (const auto& v : violations_) {
        std::printf(
            "%s  {\"file\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
            "\"message\": \"%s\", \"waived\": %s}",
            sep, json_escape(v.file).c_str(), v.line,
            json_escape(v.rule).c_str(), json_escape(v.message).c_str(),
            v.waived ? "true" : "false");
        sep = ",\n";
      }
      std::printf("%s]\n", violations_.empty() ? "" : "\n");
      return unwaived == 0 ? 0 : 1;
    }
    if (unwaived == 0) {
      std::printf("revtr-lint: ok (%zu files)\n", files_checked_);
      return 0;
    }
    for (const auto& v : violations_) {
      if (v.waived) continue;
      if (v.line == 0) {
        std::fprintf(stderr, "%s: [%s] %s\n", v.file.c_str(), v.rule.c_str(),
                     v.message.c_str());
      } else {
        std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                     v.rule.c_str(), v.message.c_str());
      }
    }
    std::fprintf(stderr, "revtr-lint: %zu violation(s) in %zu files\n",
                 unwaived, files_checked_);
    return 1;
  }

  void note_file() { ++files_checked_; }
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  void check_header(const std::string& rel, const std::string& code) {
    if (code.find("#pragma once") == std::string::npos) {
      report(rel, 0, "header-hygiene", "missing #pragma once");
    }
    static const std::regex kRevtrNamespace(R"(namespace\s+revtr\b)");
    if (!std::regex_search(code, kRevtrNamespace)) {
      report(rel, 0, "header-hygiene",
             "public header must declare the revtr namespace");
    }
  }

  void check_include(const std::string& rel, std::size_t lineno,
                     const std::string& module, const std::string& target,
                     const std::string& raw_line) {
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) return;  // Not a module-qualified path.
    const std::string to_module = target.substr(0, slash);
    if (to_module == module) return;
    module_edges_.insert({module, to_module});
    if (allows(raw_line, "layering")) return;

    const auto& ranks = module_ranks();
    const auto from_rank = ranks.find(module);
    const auto to_rank = ranks.find(to_module);
    if (from_rank == ranks.end()) {
      report(rel, lineno, "layering",
             "module '" + module +
                 "' is not in the module DAG; add it to module_ranks() in "
                 "tools/revtr_lint.cpp");
      return;
    }
    if (to_rank == ranks.end()) {
      report(rel, lineno, "layering",
             "included module '" + to_module + "' is not in the module DAG");
      return;
    }
    if (to_rank->second >= from_rank->second) {
      report(rel, lineno, "layering",
             "upward include: " + module + " (rank " +
                 std::to_string(from_rank->second) + ") must not include " +
                 to_module + " (rank " + std::to_string(to_rank->second) +
                 "); the module DAG is util -> net -> topology -> routing -> "
                 "sim -> probing -> alias/asmap/sched -> atlas/vpselect -> "
                 "core -> analysis -> eval/service");
    }
  }

  void check_switches(const std::string& rel, const std::string& code,
                      const std::vector<std::string>& raw_lines) {
    static const std::regex kEnumCase(R"(\bcase\s+\w+\s*::)");
    static const std::regex kDefaultLabel(R"(\bdefault\s*:)");
    const auto switches = find_switches(code);
    for (const auto& span : switches) {
      const std::string body = own_body(code, span, switches);
      if (!std::regex_search(body, kEnumCase) ||
          !std::regex_search(body, kDefaultLabel)) {
        continue;
      }
      const std::size_t lineno =
          1 + static_cast<std::size_t>(
                  std::count(code.begin(),
                             code.begin() + static_cast<long>(span.keyword),
                             '\n'));
      const std::string& raw_line =
          lineno - 1 < raw_lines.size() ? raw_lines[lineno - 1] : std::string();
      if (allows(raw_line, "enum-switch-default")) continue;
      report(rel, lineno, "enum-switch-default",
             "switch over an enum class has a default: label, which would "
             "swallow new enumerators; enumerate every case so -Wswitch "
             "stays exhaustive");
    }
  }

  // guarded-member: within every class that owns a util::Mutex /
  // util::SharedMutex, each mutable data member must be attributed to its
  // mutex with REVTR_GUARDED_BY or carry an explicit lock-free waiver.
  void check_guarded_members(const std::string& rel, const std::string& code,
                             const std::vector<std::string>& raw_lines) {
    static const std::regex kMutexType(
        R"(\b(util\s*::\s*)?(Mutex|SharedMutex)\b)");
    static const std::regex kAtomicTop(R"(\batomic\b)");
    static const std::regex kConstTop(R"(\bconst\b)");
    static const std::regex kMutable(R"(^\s*mutable\b)");
    static const std::regex kGuardedAnno(R"(\bREVTR_(PT_)?GUARDED_BY\s*\()");
    static const std::regex kLastName(R"((\w+)[^\w]*$)");

    for (const auto& span : find_classes(code)) {
      const auto statements = class_statements(code, span);
      bool owns_mutex = false;
      for (const auto& stmt : statements) {
        if (is_data_member(stmt) && std::regex_search(stmt.text, kMutexType)) {
          owns_mutex = true;
          break;
        }
      }
      if (!owns_mutex) continue;
      for (const auto& stmt : statements) {
        if (!is_data_member(stmt)) continue;
        if (std::regex_search(stmt.text, kMutexType)) continue;  // The locks.
        if (stmt.text.find("condition_variable_any") != std::string::npos) {
          continue;  // Parks on the guard; stateless on its own.
        }
        if (std::regex_search(stmt.top, kAtomicTop)) continue;
        if (stmt.top.find('&') != std::string::npos) continue;  // Reference.
        // const members are immutable after construction — unless marked
        // mutable, which reopens the race.
        if (std::regex_search(stmt.top, kConstTop) &&
            !std::regex_search(stmt.top, kMutable)) {
          continue;
        }
        if (std::regex_search(stmt.text, kGuardedAnno)) continue;
        bool waived = false;
        for (std::size_t l = stmt.line_begin;
             l <= stmt.line_end && l <= raw_lines.size(); ++l) {
          const std::string& raw = raw_lines[l - 1];
          if (raw.find("lint: lock-free(") != std::string::npos ||
              allows(raw, "guarded-member")) {
            waived = true;
            break;
          }
        }
        if (waived) continue;
        // Name = last identifier once initializers are cut away.
        std::string top = stmt.top;
        if (const auto eq = top.find('='); eq != std::string::npos) {
          top.resize(eq);
        }
        if (const auto brace = top.find('{'); brace != std::string::npos) {
          top.resize(brace);
        }
        std::smatch name;
        const std::string member =
            std::regex_search(top, name, kLastName) ? name[1].str() : top;
        report(rel, stmt.line_begin, "guarded-member",
               "member '" + member + "' of mutex-owning class '" + span.name +
                   "' has no REVTR_GUARDED_BY annotation; attribute it to "
                   "its mutex or waive with `// lint: lock-free(<reason>)`");
      }
    }
  }

  // lock-order: every RAII-guard acquisition must name a mutex with a
  // declared rank, and while a guard is live any further acquisition must
  // take a strictly higher rank. Guard lifetimes are tracked lexically by
  // brace depth — exactly the RAII scoping the raii-guard rule enforces.
  void check_lock_order(const std::string& rel, const std::string& code,
                        const std::vector<std::string>& raw_lines,
                        const std::string& module) {
    static const std::regex kGuard(
        R"(\b(MutexLock|SharedLock|ExclusiveLock|ScopedLock2)\s+\w+\s*(\(|\{))");
    std::vector<std::pair<std::size_t, std::size_t>> sites;  // pos, open.
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kGuard);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position());
      sites.push_back(
          {pos, pos + static_cast<std::size_t>(it->length()) - 1});
    }
    if (sites.empty()) return;

    struct Held {
      int depth = 0;
      int rank = 0;
      std::string name;
    };
    std::vector<Held> held;
    std::size_t next = 0;
    int depth = 0;
    std::size_t line = 1;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '\n') {
        ++line;
        continue;
      }
      if (next < sites.size() && i == sites[next].first) {
        const std::size_t open = sites[next].second;
        ++next;
        // Argument list up to the matching close (parens or brace init).
        const char open_c = code[open];
        const char close_c = open_c == '(' ? ')' : '}';
        int arg_depth = 1;
        std::size_t close = open;
        std::vector<std::string> args(1);
        for (std::size_t j = open + 1; j < code.size() && arg_depth > 0; ++j) {
          const char c = code[j];
          if (c == open_c) ++arg_depth;
          if (c == close_c && --arg_depth == 0) {
            close = j;
            break;
          }
          if (c == ',' && arg_depth == 1) {
            args.emplace_back();
          } else {
            args.back().push_back(c);
          }
        }
        const std::size_t site_line = line;
        line += static_cast<std::size_t>(
            std::count(code.begin() + static_cast<long>(i),
                       code.begin() + static_cast<long>(close), '\n'));
        i = close;  // Skip the argument list (incl. any init braces).

        const std::string& raw_line = site_line - 1 < raw_lines.size()
                                          ? raw_lines[site_line - 1]
                                          : std::string();
        if (allows(raw_line, "lock-order")) continue;

        const auto& order = lock_order_table();
        int rank = -1;
        std::string name;
        bool known = true;
        for (const auto& arg : args) {
          const std::string mutex_name = normalize_mutex_expr(arg);
          const auto entry = order.find({module, mutex_name});
          if (entry == order.end()) {
            report(rel, site_line, "lock-order",
                   "mutex '" + mutex_name + "' in module '" + module +
                       "' has no declared rank; add it to lock_order_table() "
                       "in tools/revtr_lint.cpp (the declared order is "
                       "util < obs < sched < vpselect/atlas)");
            known = false;
            continue;
          }
          if (entry->second > rank) {
            rank = entry->second;
            name = mutex_name;
          }
        }
        if (!known) continue;
        if (!held.empty() && rank <= held.back().rank) {
          report(rel, site_line, "lock-order",
                 "acquiring '" + name + "' (rank " + std::to_string(rank) +
                     ") while holding '" + held.back().name + "' (rank " +
                     std::to_string(held.back().rank) +
                     "); nested acquisitions must take strictly increasing "
                     "ranks — util < obs < sched < vpselect/atlas (see "
                     "lock_order_table())");
          continue;
        }
        held.push_back(Held{depth, rank, name});
        continue;
      }
      if (code[i] == '{') ++depth;
      if (code[i] == '}') {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
    }
  }

  // --- Untrusted-input taint (src/net, src/probing). -----------------------
  //
  // Per-line forward scan with brace-depth scoping. Sources taint a local;
  // checked_cast/truncate_cast on the right-hand side or an adjacent bounds
  // comparison (if/while/REVTR_CHECK) sanitizes it; using a still-tainted
  // value as an index, allocation size, or loop bound is a violation.
  void check_taint(const std::string& rel,
                   const std::vector<std::string>& code_lines,
                   const std::vector<std::string>& raw_lines) {
    static const std::regex kSource(
        R"(\.\s*(u8|u16|u32|peek_u8)\s*\(|\breply\b\s*(->|\.))");
    static const std::regex kCast(R"(\b(checked_cast|truncate_cast)\s*<)");
    static const std::regex kAssign(R"((^|[^.\w>])([A-Za-z_]\w*)\s*=(?!=))");
    static const std::regex kSanitizerCtx(
        R"(\bif\s*\(|\bwhile\s*\(|\bREVTR_D?CHECK\s*\()");
    static const std::regex kForHead(R"(\bfor\s*\()");
    std::map<std::string, int> tainted;  // name -> declaration depth
    int depth = 0;
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const std::string& line = code_lines[i];
      const std::string& raw = i < raw_lines.size() ? raw_lines[i] : line;
      const std::size_t lineno = i + 1;
      int opens = 0;
      int closes = 0;
      for (const char c : line) {
        if (c == '{') ++opens;
        if (c == '}') ++closes;
      }
      const int decl_depth = depth + opens;

      // Assignments: the left-hand side inherits the right-hand side's
      // taint state (a sanitizing cast anywhere on the RHS clears it).
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kAssign);
           it != std::sregex_iterator(); ++it) {
        const std::string lhs = (*it)[2].str();
        const std::string rhs =
            line.substr(static_cast<std::size_t>(it->position()) +
                        static_cast<std::size_t>(it->length()));
        bool taint = false;
        if (!std::regex_search(rhs, kCast)) {
          if (std::regex_search(rhs, kSource)) {
            taint = true;
          } else {
            for (const auto& [name, d] : tainted) {
              if (word_in(rhs, name)) {
                taint = true;
                break;
              }
            }
          }
        }
        if (taint) {
          tainted[lhs] = decl_depth;
        } else {
          tainted.erase(lhs);
        }
      }

      // A bounds comparison adjacent to the value sanitizes it from here
      // on. `<<`/`>>`/`->` are stripped first so stream operators and
      // member arrows cannot fake a comparator (std::regex has no
      // lookbehind to do this in the pattern itself).
      if (!tainted.empty() && std::regex_search(line, kSanitizerCtx)) {
        std::string flat = line;
        for (const char* op : {"<<", ">>", "->"}) {
          std::size_t p = 0;
          while ((p = flat.find(op, p)) != std::string::npos) flat.erase(p, 2);
        }
        for (auto it = tainted.begin(); it != tainted.end();) {
          const std::string& name = it->first;
          const std::regex left(
              "\\b" + name +
              R"(\b(\s*\.\s*\w+\s*\(\s*\))?\s*(==|!=|<=|>=|<|>))");
          const std::regex right(R"((==|!=|<=|>=|<|>)\s*)" + name + "\\b");
          if (std::regex_search(flat, left) ||
              std::regex_search(flat, right)) {
            it = tainted.erase(it);
          } else {
            ++it;
          }
        }
      }

      // Sinks: subscript, size-taking container calls, loop bounds.
      for (const auto& [name, d] : tainted) {
        const std::regex subscript("\\[[^\\[\\]]*\\b" + name +
                                   "\\b[^\\[\\]]*\\]");
        const std::regex alloc(
            R"(\.\s*(resize|reserve|assign|substr|subspan|first|last)\s*\([^()]*\b)" +
            name + "\\b");
        const std::regex loop_bound(R"(;[^;]*[<>]=?\s*\b)" + name + "\\b");
        const bool sink =
            std::regex_search(line, subscript) ||
            std::regex_search(line, alloc) ||
            (std::regex_search(line, kForHead) &&
             std::regex_search(line, loop_bound));
        if (!sink) continue;
        const bool waived = allows(raw, "taint") ||
                            raw.find("lint: trusted(") != std::string::npos;
        report(rel, lineno, "taint",
               "network-derived value '" + name +
                   "' used as an index, length, or loop bound without a "
                   "bounds check; sanitize with checked_cast/truncate_cast "
                   "or an adjacent comparison (if/REVTR_CHECK), or waive "
                   "with `// lint: trusted(<reason>)`",
               waived);
      }

      depth += opens - closes;
      for (auto it = tainted.begin(); it != tainted.end();) {
        if (it->second > depth) {
          it = tainted.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // --- Guarded-state escape (all mutex-owning classes). ---------------------
  //
  // A method of a mutex-owning class must not return a reference, pointer,
  // iterator, or view into a REVTR_GUARDED_BY member (or a local derived
  // from one): the lock is released on return, so the caller dereferences
  // unguarded state. Methods annotated REVTR_REQUIRES shift that duty to
  // the caller and are exempt; `// lint: stable-ref(<reason>)` waives a
  // return whose target is documented as stable (e.g. node-based map
  // values never moved or erased).
  void check_guard_escape(const std::string& rel, const std::string& code,
                          const std::vector<std::string>& raw_lines) {
    if (mutex_classes_.empty()) return;
    static const std::regex kAssign(R"((^|[^.\w>])([A-Za-z_]\w*)\s*=(?!=))");
    static const std::regex kReturn(R"(\breturn\b)");
    const auto classes = find_classes(code);
    for (const auto& def : find_functions(code)) {
      std::string owner = def.qualifier;
      if (owner.empty()) {
        for (const auto& span : classes) {
          if (span.open < def.name_pos && def.name_pos < span.close) {
            owner = span.name;  // Innermost enclosing class wins.
          }
        }
      }
      if (owner.empty() || mutex_classes_.count(owner) == 0) continue;
      const auto members_it = guarded_members_.find(owner);
      if (members_it == guarded_members_.end()) continue;
      const std::string& rt = def.return_type;
      const bool flaggy = rt.find('&') != std::string::npos ||
                          rt.find('*') != std::string::npos ||
                          word_in(rt, "iterator") || word_in(rt, "span") ||
                          word_in(rt, "string_view");
      if (!flaggy) continue;
      if (def.trailer.find("REVTR_REQUIRES") != std::string::npos ||
          def.trailer.find("REVTR_SHARED_REQUIRES") != std::string::npos) {
        continue;  // The caller holds the lock by annotated contract.
      }
      const auto line_waived = [&](std::size_t lineno) {
        if (lineno == 0 || lineno > raw_lines.size()) return false;
        const std::string& raw = raw_lines[lineno - 1];
        return raw.find("lint: stable-ref(") != std::string::npos ||
               allows(raw, "guard-escape");
      };
      const std::size_t sig_line = line_of_pos(code, def.name_pos);
      const bool sig_waived =
          line_waived(sig_line) || (sig_line > 1 && line_waived(sig_line - 1));

      const std::string body =
          code.substr(def.open + 1, def.close - def.open - 1);
      // Guarded members plus locals assigned from them (auto it =
      // map_.find(...) is as much an escape hatch as map_ itself).
      std::set<std::string> derived = members_it->second;
      for (auto it = std::sregex_iterator(body.begin(), body.end(), kAssign);
           it != std::sregex_iterator(); ++it) {
        const auto rhs_begin = static_cast<std::size_t>(it->position()) +
                               static_cast<std::size_t>(it->length());
        std::size_t rhs_end = body.find(';', rhs_begin);
        if (rhs_end == std::string::npos) rhs_end = body.size();
        const std::string rhs = body.substr(rhs_begin, rhs_end - rhs_begin);
        for (const auto& name : derived) {
          if (word_in(rhs, name)) {
            derived.insert((*it)[2].str());
            break;
          }
        }
      }
      for (auto it = std::sregex_iterator(body.begin(), body.end(), kReturn);
           it != std::sregex_iterator(); ++it) {
        const auto pos = static_cast<std::size_t>(it->position());
        std::size_t end = body.find(';', pos);
        if (end == std::string::npos) end = body.size();
        const std::string expr = body.substr(pos, end - pos);
        std::string leaked;
        for (const auto& name : derived) {
          if (word_in(expr, name)) {
            leaked = name;
            break;
          }
        }
        if (leaked.empty()) continue;
        const std::size_t lineno = line_of_pos(code, def.open + 1 + pos);
        report(rel, lineno, "guard-escape",
               "'" + owner + "::" + def.name +
                   "' returns a reference/pointer into guarded state ('" +
                   leaked +
                   "' is REVTR_GUARDED_BY-protected or derived from it); "
                   "the lock is released when the caller uses it — return "
                   "a copy or a shared_ptr<const T> snapshot, annotate "
                   "REVTR_REQUIRES, or waive with "
                   "`// lint: stable-ref(<reason>)`",
               sig_waived || line_waived(lineno));
      }
    }
  }

  // --- Stage-graph conformance + span balance (RequestTask). ----------------

  // Live abstract states for the span interpreter: (open-span balance,
  // current stage).
  using SpanStates = std::set<std::pair<int, std::string>>;

  struct SpanSimCtx {
    std::set<std::string> call_stack;  // Recursion guard for inlining.
    std::set<std::string> reported;    // Dedup across the fixpoint.
  };

  void span_violation(const StageMethod& m, std::size_t pos,
                      const std::string& msg, SpanSimCtx& ctx) {
    const std::size_t lineno =
        m.body_line +
        static_cast<std::size_t>(std::count(
            m.body.begin(), m.body.begin() + static_cast<long>(pos), '\n'));
    const std::string key = m.file + ":" + std::to_string(lineno) + ":" + msg;
    if (!ctx.reported.insert(key).second) return;
    const bool waived = allows(collected_raw_line(m.file, lineno),
                               "stage-span");
    report(m.file, lineno, "stage-span", msg, waived);
  }

  // Applies one statement's effects: open_stage/close_stage adjust the
  // balance, calls to collected RequestTask methods are inlined, and a
  // `stage_ = Stage::kX` assignment re-targets the stage component.
  SpanStates sim_stmt(const StageMethod& m, const std::string& text,
                      std::size_t pos, SpanStates cur, SpanSimCtx& ctx) {
    static const std::regex kCall(R"((^|[^.\w:>])([A-Za-z_]\w*)\s*\()");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[2].str();
      if (name == "open_stage") {
        SpanStates next;
        for (const auto& state : cur) {
          if (state.first >= 1) {
            span_violation(m, pos,
                           "open_stage while a stage span is already open; "
                           "close_stage the previous span first",
                           ctx);
            next.insert(state);
          } else {
            next.insert({state.first + 1, state.second});
          }
        }
        cur = std::move(next);
      } else if (name == "close_stage") {
        SpanStates next;
        for (const auto& state : cur) {
          if (state.first <= 0) {
            span_violation(m, pos, "close_stage without an open stage span",
                           ctx);
            next.insert(state);
          } else {
            next.insert({state.first - 1, state.second});
          }
        }
        cur = std::move(next);
      } else if (name != "annotate_stage" && stage_methods_.count(name) > 0) {
        cur = sim_method(name, cur, ctx);
      }
    }
    static const std::regex kStageAssign(R"(\bstage_\s*=(?!=))");
    std::smatch am;
    if (std::regex_search(text, am, kStageAssign)) {
      const std::string rhs =
          text.substr(static_cast<std::size_t>(am.position()) +
                      static_cast<std::size_t>(am.length()));
      static const std::regex kStageToken(R"(\bStage\s*::\s*(k\w+))");
      std::set<std::string> targets;
      for (auto it = std::sregex_iterator(rhs.begin(), rhs.end(),
                                          kStageToken);
           it != std::sregex_iterator(); ++it) {
        targets.insert(it->str(1));
      }
      if (!targets.empty()) {
        SpanStates next;
        for (const auto& state : cur) {
          for (const auto& target : targets) {
            next.insert({state.first, target});
          }
        }
        cur = std::move(next);
      }
    }
    return cur;
  }

  // Interprets exactly one statement or control construct starting at `i`
  // in m.body (bounded by `e`), updating `cur`; `return` moves the live
  // states into `exits`. Returns the index just past the construct.
  std::size_t sim_one(const StageMethod& m, std::size_t i, std::size_t e,
                      SpanStates& cur, SpanStates& exits, SpanSimCtx& ctx) {
    const std::string& body = m.body;
    i = skip_space_forward(body, i, e);
    if (i >= e) return e;
    const char c = body[i];
    if (c == '{') {
      const std::size_t close = match_group(body, i, e, '{', '}');
      std::size_t j = i + 1;
      while (j < close) j = sim_one(m, j, close, cur, exits, ctx);
      return close + 1;
    }
    if (c == '}' || c == ';') return i + 1;
    if (is_ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t we = i;
      while (we < e && is_ident_char(body[we])) ++we;
      const std::string word = body.substr(i, we - i);
      if (word == "if") {
        const std::size_t po = body.find('(', we);
        if (po == std::string::npos || po >= e) return e;
        const std::size_t pc = match_group(body, po, e, '(', ')');
        cur = sim_stmt(m, body.substr(po + 1, pc - po - 1), i, cur, ctx);
        SpanStates then_out;
        std::size_t j = sim_unit(m, pc + 1, e, cur, then_out, exits, ctx);
        const std::size_t k = skip_space_forward(body, j, e);
        if (k + 4 <= e && body.compare(k, 4, "else") == 0 &&
            (k + 4 == e || !is_ident_char(body[k + 4]))) {
          SpanStates else_out;
          j = sim_unit(m, k + 4, e, cur, else_out, exits, ctx);
          then_out.insert(else_out.begin(), else_out.end());
        } else {
          then_out.insert(cur.begin(), cur.end());  // Not-taken branch.
        }
        cur = std::move(then_out);
        return j;
      }
      if (word == "while" || word == "for" || word == "switch") {
        const std::size_t po = body.find('(', we);
        if (po == std::string::npos || po >= e) return e;
        const std::size_t pc = match_group(body, po, e, '(', ')');
        cur = sim_stmt(m, body.substr(po + 1, pc - po - 1), i, cur, ctx);
        SpanStates body_out;
        const std::size_t j =
            sim_unit(m, pc + 1, e, cur, body_out, exits, ctx);
        if (word == "switch") {
          cur = std::move(body_out);  // Linear over the labelled body.
        } else {
          cur.insert(body_out.begin(), body_out.end());  // 0-or-1 iteration.
        }
        return j;
      }
      if (word == "do") {
        SpanStates body_out;
        std::size_t j = sim_unit(m, we, e, cur, body_out, exits, ctx);
        cur = std::move(body_out);
        const std::size_t k = skip_space_forward(body, j, e);
        if (k + 5 <= e && body.compare(k, 5, "while") == 0) {
          const std::size_t sc = body.find(';', k);
          j = sc == std::string::npos || sc >= e ? e : sc + 1;
        }
        return j;
      }
      if (word == "return") {
        const auto stmt = read_statement(body, i, e);
        cur = sim_stmt(m, stmt.second, i, cur, ctx);
        exits.insert(cur.begin(), cur.end());
        cur.clear();
        return stmt.first + 1;
      }
      if (word == "case") {
        std::size_t j = we;
        while (j < e) {
          if (body[j] == ':') {
            if (j + 1 < e && body[j + 1] == ':') {
              j += 2;
              continue;
            }
            break;
          }
          ++j;
        }
        return j + 1;
      }
      if (word == "default") {
        const std::size_t j = body.find(':', we);
        return j == std::string::npos || j >= e ? e : j + 1;
      }
      if (word == "break" || word == "continue") {
        const std::size_t j = body.find(';', we);
        return j == std::string::npos || j >= e ? e : j + 1;
      }
    }
    const auto stmt = read_statement(body, i, e);
    cur = sim_stmt(m, stmt.second, i, cur, ctx);
    return stmt.first + 1;
  }

  // One unit for an if/else/loop body: a braced block or a single
  // statement (which may itself be another `if`, giving else-if chains).
  std::size_t sim_unit(const StageMethod& m, std::size_t i, std::size_t e,
                       const SpanStates& in, SpanStates& out,
                       SpanStates& exits, SpanSimCtx& ctx) {
    const std::string& body = m.body;
    i = skip_space_forward(body, i, e);
    if (i >= e) {
      out = in;
      return e;
    }
    SpanStates cur = in;
    std::size_t j;
    if (body[i] == '{') {
      const std::size_t close = match_group(body, i, e, '{', '}');
      j = i + 1;
      while (j < close) j = sim_one(m, j, close, cur, exits, ctx);
      j = close + 1;
    } else {
      j = sim_one(m, i, e, cur, exits, ctx);
    }
    out = std::move(cur);
    return j;
  }

  // Inlines a collected method: returns the union of its return-exits and
  // fall-off states. Unknown or recursive callees pass states through.
  SpanStates sim_method(const std::string& name, const SpanStates& in,
                        SpanSimCtx& ctx) {
    const auto it = stage_methods_.find(name);
    if (it == stage_methods_.end() || !ctx.call_stack.insert(name).second) {
      return in;
    }
    const StageMethod& m = it->second;
    SpanStates exits;
    SpanStates cur = in;
    std::size_t i = 0;
    const std::size_t e = m.body.size();
    while (i < e) i = sim_one(m, i, e, cur, exits, ctx);
    ctx.call_stack.erase(name);
    exits.insert(cur.begin(), cur.end());
    return exits;
  }

  // Runs once per tree: checks the declared stage DAG against the enum,
  // Stage-switch exhaustiveness, every stage_ assignment reachable from a
  // stage's handler against the DAG, and open/close span balance over all
  // paths via an abstract interpretation from the initial stage.
  void check_stage_machine() {
    if (stage_checked_) return;
    stage_checked_ = true;
    if (stage_enum_.empty()) return;

    // (a) Declared DAG <-> enum conformance, both directions.
    if (stage_dag_.empty()) {
      report(stage_enum_file_, 0, "stage-graph",
             "enum class Stage has no declared stage DAG; declare the legal "
             "transitions with `// lint: stage(kFrom -> kTo, ...)` comments "
             "next to the enumerators");
      return;
    }
    for (const auto& [name, line] : stage_enum_) {
      if (stage_dag_.count(name) > 0) continue;
      report(stage_enum_file_, line, "stage-graph",
             "stage '" + name + "' has no `// lint: stage(" + name +
                 " -> ...)` declaration (terminal stages declare an empty "
                 "successor list)");
    }
    for (const auto& [node, succ] : stage_dag_) {
      const auto& site = stage_decl_site_[node];
      if (stage_enum_.count(node) == 0) {
        report(site.first, site.second, "stage-graph",
               "declared stage '" + node + "' is not a Stage enumerator");
      }
      for (const auto& s : succ) {
        if (stage_enum_.count(s) == 0) {
          report(site.first, site.second, "stage-graph",
                 "declared successor '" + s + "' of '" + node +
                     "' is not a Stage enumerator");
        }
      }
    }

    // (b) Dispatch switches: exhaustiveness + the stage -> handler map.
    static const std::regex kCaseStage(R"(\bcase\s+Stage\s*::\s*(k\w+)\s*:)");
    std::map<std::string, std::string> handler;
    for (const auto& [mname, method] : stage_methods_) {
      const auto switches = find_switches(method.body);
      for (const auto& span : switches) {
        const std::string sbody = own_body(method.body, span, switches);
        if (!std::regex_search(sbody, kCaseStage)) continue;
        struct Label {
          std::string name;
          std::size_t end = 0;    // Just past the label's ':'.
          std::size_t start = 0;  // The label's own position.
        };
        std::vector<Label> labels;
        std::set<std::string> named;
        for (auto it =
                 std::sregex_iterator(sbody.begin(), sbody.end(), kCaseStage);
             it != std::sregex_iterator(); ++it) {
          Label label;
          label.name = (*it)[1].str();
          label.start = static_cast<std::size_t>(it->position());
          label.end = label.start + static_cast<std::size_t>(it->length());
          named.insert(label.name);
          labels.push_back(std::move(label));
        }
        const std::size_t switch_line =
            method.body_line +
            static_cast<std::size_t>(std::count(
                method.body.begin(),
                method.body.begin() + static_cast<long>(span.keyword), '\n'));
        if (!allows(collected_raw_line(method.file, switch_line),
                    "stage-graph")) {
          for (const auto& [ename, eline] : stage_enum_) {
            if (named.count(ename) > 0) continue;
            report(method.file, switch_line, "stage-graph",
                   "switch over Stage in '" + mname + "' does not handle '" +
                       ename + "'; Stage switches must be exhaustive");
          }
        }
        // Fall-through label groups map to the first collected-method call
        // in their shared segment; REVTR_CHECK/break-only segments (the
        // wrong-phase guards) map to nothing.
        static const std::regex kCall(R"((^|[^.\w:>])([A-Za-z_]\w*)\s*\()");
        std::vector<std::string> pending;
        for (std::size_t li = 0; li < labels.size(); ++li) {
          pending.push_back(labels[li].name);
          const std::size_t seg_end =
              li + 1 < labels.size() ? labels[li + 1].start : sbody.size();
          const std::string segment =
              sbody.substr(labels[li].end, seg_end - labels[li].end);
          if (segment.find_first_not_of(" \t\n") == std::string::npos) {
            continue;  // Pure fall-through.
          }
          for (auto it = std::sregex_iterator(segment.begin(), segment.end(),
                                              kCall);
               it != std::sregex_iterator(); ++it) {
            const std::string callee = (*it)[2].str();
            if (stage_methods_.count(callee) > 0) {
              for (const auto& p : pending) handler[p] = callee;
              break;
            }
          }
          pending.clear();
        }
      }
    }

    // (c) Transition conformance: every `stage_ =` assignment reachable
    // from a stage's handler (call-graph closure) must target a declared
    // successor of that stage.
    static const std::regex kCall(R"((^|[^.\w:>])([A-Za-z_]\w*)\s*\()");
    static const std::regex kStageAssign(R"(\bstage_\s*=(?!=))");
    static const std::regex kStageToken(R"(\bStage\s*::\s*(k\w+))");
    std::set<std::string> transition_reported;
    for (const auto& [stage, hname] : handler) {
      const auto succ_it = stage_dag_.find(stage);
      static const std::set<std::string> kNoSucc;
      const std::set<std::string>& succ =
          succ_it == stage_dag_.end() ? kNoSucc : succ_it->second;
      std::set<std::string> seen;
      std::vector<std::string> work{hname};
      while (!work.empty()) {
        const std::string mname = work.back();
        work.pop_back();
        if (!seen.insert(mname).second) continue;
        const auto mit = stage_methods_.find(mname);
        if (mit == stage_methods_.end()) continue;
        const std::string& mbody = mit->second.body;
        for (auto it =
                 std::sregex_iterator(mbody.begin(), mbody.end(), kCall);
             it != std::sregex_iterator(); ++it) {
          const std::string callee = (*it)[2].str();
          if (stage_methods_.count(callee) > 0) work.push_back(callee);
        }
        for (auto it = std::sregex_iterator(mbody.begin(), mbody.end(),
                                            kStageAssign);
             it != std::sregex_iterator(); ++it) {
          const auto pos = static_cast<std::size_t>(it->position());
          std::size_t end = mbody.find(';', pos);
          if (end == std::string::npos) end = mbody.size();
          const std::string stmt = mbody.substr(pos, end - pos);
          const std::size_t lineno =
              mit->second.body_line +
              static_cast<std::size_t>(std::count(
                  mbody.begin(), mbody.begin() + static_cast<long>(pos),
                  '\n'));
          if (allows(collected_raw_line(mit->second.file, lineno),
                     "stage-graph")) {
            continue;
          }
          for (auto t = std::sregex_iterator(stmt.begin(), stmt.end(),
                                             kStageToken);
               t != std::sregex_iterator(); ++t) {
            const std::string target = (*t)[1].str();
            if (succ.count(target) > 0) continue;
            const std::string key = stage + ">" + target + "@" +
                                    mit->second.file + ":" +
                                    std::to_string(lineno);
            if (!transition_reported.insert(key).second) continue;
            report(mit->second.file, lineno, "stage-graph",
                   "transition " + stage + " -> " + target + " (via '" +
                       mname + "') is not declared in the stage DAG; add "
                       "it to the `// lint: stage(...)` declaration or fix "
                       "the transition");
          }
        }
      }
    }

    // (d) Span balance: abstract interpretation from the initial stage.
    // Every path through a stage's handler must leave the same number of
    // open spans, and no path may reach a terminal stage with one open.
    if (!stage_initial_.empty()) {
      std::map<std::string, std::set<int>> entry;
      entry[stage_initial_].insert(0);
      std::vector<std::string> work{stage_initial_};
      SpanSimCtx ctx;
      std::size_t steps = 0;
      while (!work.empty() && steps++ < 10000) {
        const std::string stage = work.back();
        work.pop_back();
        const auto h = handler.find(stage);
        if (h == handler.end()) continue;
        SpanStates in;
        for (const int bal : entry[stage]) in.insert({bal, stage});
        ctx.call_stack.clear();
        const SpanStates out = sim_method(h->second, in, ctx);
        for (const auto& [bal, next] : out) {
          const auto succ_it = stage_dag_.find(next);
          const bool terminal =
              succ_it != stage_dag_.end() && succ_it->second.empty();
          if (terminal) {
            if (bal != 0 &&
                ctx.reported.insert("terminal:" + next).second) {
              report(stage_enum_file_, stage_enum_[next], "stage-span",
                     "terminal stage '" + next + "' is reachable (from '" +
                         stage + "') with an open stage span; some path "
                         "has an open_stage without a matching "
                         "close_stage");
            }
            continue;
          }
          if (entry[next].insert(bal).second) work.push_back(next);
        }
      }
      for (const auto& [stage, bals] : entry) {
        if (bals.size() <= 1) continue;
        report(stage_enum_file_, stage_enum_[stage], "stage-span",
               "stage '" + stage + "' is entered with inconsistent "
               "open-span balances; every path into a stage must leave "
               "the same number of stage spans open");
      }
    }
  }

  const std::string& collected_raw_line(const std::string& file,
                                        std::size_t lineno) const {
    static const std::string kEmpty;
    const auto it = collected_raw_.find(file);
    if (it == collected_raw_.end() || lineno == 0 ||
        lineno > it->second.size()) {
      return kEmpty;
    }
    return it->second[lineno - 1];
  }

  std::string relative_path(const fs::path& path) const {
    return fs::relative(path, root_).generic_string();
  }

  void report(std::string file, std::size_t line, std::string rule,
              std::string message, bool waived = false) {
    violations_.push_back(Violation{std::move(file), line, std::move(rule),
                                    std::move(message), waived});
  }

  fs::path root_;
  std::vector<Violation> violations_;
  std::set<std::pair<std::string, std::string>> module_edges_;
  std::size_t files_checked_ = 0;

  // Cross-file registries built by collect_source().
  std::set<std::string> collected_;
  std::set<std::string> mutex_classes_;
  std::map<std::string, std::set<std::string>> guarded_members_;
  std::map<std::string, std::size_t> stage_enum_;  // enumerator -> line
  std::vector<std::string> stage_enum_order_;
  std::string stage_initial_;
  std::string stage_enum_file_;
  std::map<std::string, std::set<std::string>> stage_dag_;
  std::map<std::string, std::pair<std::string, std::size_t>> stage_decl_site_;
  std::map<std::string, StageMethod> stage_methods_;
  std::map<std::string, std::vector<std::string>> collected_raw_;
  bool stage_checked_ = false;
};

// --- Self-test. ------------------------------------------------------------

int run_self_test() {
  std::size_t checks = 0;
  std::size_t failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "revtr-lint self-test FAIL: %s\n", what);
    }
  };
  const auto count_rule = [](const Linter& linter, std::string_view rule) {
    std::size_t n = 0;
    for (const auto& v : linter.violations()) {
      if (v.rule == rule && !v.waived) ++n;
    }
    return n;
  };
  const auto count_waived = [](const Linter& linter, std::string_view rule) {
    std::size_t n = 0;
    for (const auto& v : linter.violations()) {
      if (v.rule == rule && v.waived) ++n;
    }
    return n;
  };

  {  // A downward include edge conforms to the DAG.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/revtr.cpp", "#include \"atlas/atlas.h\"\n");
    expect(count_rule(linter, "layering") == 0, "downward include accepted");
  }
  {  // An artificially introduced upward include fails.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/rng.cpp", "#include \"core/revtr.h\"\n");
    expect(count_rule(linter, "layering") == 1, "upward include rejected");
  }
  {  // Same-rank cross-module includes are upward edges too.
    Linter linter{fs::path(".")};
    linter.lint_source("src/alias/alias.cpp", "#include \"asmap/asmap.h\"\n");
    expect(count_rule(linter, "layering") == 1, "lateral include rejected");
  }
  {  // Intra-module includes are always fine.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/serialize.cpp", "#include \"core/revtr.h\"\n");
    expect(count_rule(linter, "layering") == 0, "intra-module include accepted");
  }
  {  // A module missing from the rank table must be declared.
    Linter linter{fs::path(".")};
    linter.lint_source("src/newmod/thing.cpp", "#include \"util/rng.h\"\n");
    expect(count_rule(linter, "layering") == 1, "unknown module rejected");
  }
  {  // Commented-out includes do not create edges.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/rng.cpp",
                       "// #include \"core/revtr.h\"\n");
    expect(count_rule(linter, "layering") == 0, "commented include ignored");
  }
  {  // Suppression marker works for layering.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/util/rng.cpp",
        "#include \"core/revtr.h\"  // lint:allow(layering)\n");
    expect(count_rule(linter, "layering") == 0, "layering suppression honored");
  }
  {  // The generic cycle detector finds a 3-cycle and accepts a chain.
    const std::set<std::pair<std::string, std::string>> cyclic = {
        {"a", "b"}, {"b", "c"}, {"c", "a"}};
    expect(find_cycle(cyclic).has_value(), "3-cycle detected");
    const std::set<std::pair<std::string, std::string>> chain = {
        {"a", "b"}, {"b", "c"}};
    expect(!find_cycle(chain).has_value(), "acyclic chain accepted");
  }
  {  // default: in an enum-class switch is flagged.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "void f(E e) {\n"
                       "  switch (e) {\n"
                       "    case E::kA: break;\n"
                       "    default: break;\n"
                       "  }\n"
                       "}\n");
    expect(count_rule(linter, "enum-switch-default") == 1,
           "enum switch with default flagged");
  }
  {  // A switch over plain values keeps its default.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "int f(char c) {\n"
                       "  switch (c) {\n"
                       "    case 'a': return 1;\n"
                       "    default: return 0;\n"
                       "  }\n"
                       "}\n");
    expect(count_rule(linter, "enum-switch-default") == 0,
           "non-enum switch with default accepted");
  }
  {  // An exhaustive enum switch without default is clean.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "int f(E e) {\n"
                       "  switch (e) {\n"
                       "    case E::kA: return 1;\n"
                       "    case E::kB: return 2;\n"
                       "  }\n"
                       "  return 0;\n"
                       "}\n");
    expect(count_rule(linter, "enum-switch-default") == 0,
           "exhaustive enum switch accepted");
  }
  {  // An inner char-switch default is not attributed to the outer
     // enum switch.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "int f(E e, char c) {\n"
                       "  switch (e) {\n"
                       "    case E::kA:\n"
                       "      switch (c) {\n"
                       "        case 'x': return 1;\n"
                       "        default: return 2;\n"
                       "      }\n"
                       "    case E::kB: return 3;\n"
                       "  }\n"
                       "  return 0;\n"
                       "}\n");
    expect(count_rule(linter, "enum-switch-default") == 0,
           "nested switch default not misattributed");
  }
  {  // Suppression marker works for the switch rule.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "void f(E e) {\n"
                       "  switch (e) {  // lint:allow(enum-switch-default)\n"
                       "    case E::kA: break;\n"
                       "    default: break;\n"
                       "  }\n"
                       "}\n");
    expect(count_rule(linter, "enum-switch-default") == 0,
           "switch suppression honored");
  }
  {  // const_cast in src/ is flagged.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/stats.cpp",
                       "void f(const T& t) {\n"
                       "  const_cast<T&>(t).mutate();\n"
                       "}\n");
    expect(count_rule(linter, "const-cast") == 1, "const_cast flagged");
  }
  {  // ...but a commented const_cast or one in tests/ is not.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/stats.cpp",
                       "// const_cast<T&>(t) was the old racy approach\n");
    linter.lint_source("tests/x_test.cpp",
                       "auto& m = const_cast<T&>(t);\n");
    expect(count_rule(linter, "const-cast") == 0,
           "const-cast scoped to src/ code");
  }
  {  // Suppression marker works for const-cast.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/util/stats.cpp",
        "auto& m = const_cast<T&>(t);  // lint:allow(const-cast)\n");
    expect(count_rule(linter, "const-cast") == 0,
           "const-cast suppression honored");
  }
  {  // std::cout and bare printf in src/ are flagged.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/revtr.cpp",
                       "void f() { std::cout << 1; }\n");
    linter.lint_source("src/atlas/atlas.cpp",
                       "void g() { printf(\"%d\", 1); }\n");
    linter.lint_source("src/sim/network.cpp",
                       "void h() { std::printf(\"x\"); }\n");
    expect(count_rule(linter, "bare-output") == 3,
           "std::cout / bare printf flagged in src/");
  }
  {  // fprintf(stderr) and snprintf stay legal; tools/ owns its stdout.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/check.cpp",
                       "void f() { fprintf(stderr, \"x\"); }\n");
    linter.lint_source("src/util/json.cpp",
                       "void g(char* b) { snprintf(b, 4, \"x\"); }\n");
    linter.lint_source("tools/revtr_cli.cpp",
                       "int h() { std::printf(\"ok\"); return 0; }\n");
    expect(count_rule(linter, "bare-output") == 0,
           "fprintf/snprintf and tools/ output accepted");
  }
  {  // Suppression marker works for bare-output.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/core/revtr.cpp",
        "std::cout << debug;  // lint:allow(bare-output)\n");
    expect(count_rule(linter, "bare-output") == 0,
           "bare-output suppression honored");
  }
  {  // obs sits at rank 1: usable from probing and above, barred from
     // reaching laterally into net.
    Linter linter{fs::path(".")};
    linter.lint_source("src/probing/prober.cpp",
                       "#include \"obs/metrics.h\"\n");
    expect(count_rule(linter, "layering") == 0, "probing -> obs accepted");
    Linter lateral{fs::path(".")};
    lateral.lint_source("src/obs/metrics.cpp", "#include \"net/ipv4.h\"\n");
    expect(count_rule(lateral, "layering") == 1, "obs -> net rejected");
  }
  {  // sched sits at rank 6: usable from core, barred from reaching up
     // into vpselect or core.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/request_task.cpp",
                       "#include \"sched/scheduler.h\"\n");
    linter.lint_source("src/sched/scheduler.cpp",
                       "#include \"probing/prober.h\"\n");
    expect(count_rule(linter, "layering") == 0,
           "core -> sched -> probing accepted");
    Linter upward{fs::path(".")};
    upward.lint_source("src/sched/scheduler.cpp",
                       "#include \"vpselect/ingress.h\"\n");
    upward.lint_source("src/sched/scheduler.h", "#include \"core/revtr.h\"\n");
    expect(count_rule(upward, "layering") == 2,
           "sched -> vpselect/core rejected");
  }
  {  // Probe-issuing Prober calls are barred from src/core/.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "void f() { prober_.rr_ping(a, b); }\n");
    linter.lint_source("src/core/y.cpp",
                       "void g() { engine_.prober_->traceroute(a, b); }\n");
    expect(count_rule(linter, "core-probe-issue") == 2,
           "direct probe call in src/core/ flagged");
  }
  {  // The symmetry step's last-hop scan issues probes too.
    Linter linter{fs::path(".")};
    linter.lint_source("src/core/x.cpp",
                       "void f() { prober_.last_hop_scan(a, b); }\n");
    expect(count_rule(linter, "core-probe-issue") == 1,
           "last_hop_scan in src/core/ flagged");
  }
  {  // ...but the demand funnel, non-issuing members, and other modules
     // are fine.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/core/x.cpp",
        "auto o = sched::execute_demand(prober_, demand);\n"
        "auto c = engine_.prober_.offline_counters();\n");
    linter.lint_source("src/sched/scheduler.cpp",
                       "auto r = prober.rr_ping(a, b, spoof);\n");
    linter.lint_source("tests/x_test.cpp",
                       "auto r = prober.rr_ping(a, b);\n");
    expect(count_rule(linter, "core-probe-issue") == 0,
           "core-probe-issue scoped to issuing calls in src/core/");
  }
  {  // Suppression marker works for core-probe-issue.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/core/x.cpp",
        "prober_.ping(a, b);  // lint:allow(core-probe-issue)\n");
    expect(count_rule(linter, "core-probe-issue") == 0,
           "core-probe-issue suppression honored");
  }
  {  // Raw std synchronization types are barred from src/.
    Linter linter{fs::path(".")};
    linter.lint_source("src/obs/trace.h", "mutable std::mutex mu_;\n");
    linter.lint_source("src/atlas/atlas.cpp",
                       "const std::shared_lock<std::shared_mutex> l(mu_);\n");
    linter.lint_source("src/server/daemon.h",
                       "std::condition_variable cv_;\n");
    expect(count_rule(linter, "mutex-capability") == 3,
           "raw std sync types flagged in src/");
  }
  {  // The annotated wrappers, condition_variable_any, annotate.h itself
     // (which wraps the std types), and tests are all fine.
    Linter linter{fs::path(".")};
    linter.lint_source("src/server/daemon.h",
                       "util::Mutex mu_;\n"
                       "std::condition_variable_any not_empty_;\n");
    linter.lint_source("src/util/annotate.h", "std::mutex mu_;\n");
    linter.lint_source("tests/x_test.cpp", "std::mutex mu;\n");
    expect(count_rule(linter, "mutex-capability") == 0,
           "wrappers, cv_any, annotate.h and tests accepted");
  }
  {  // Suppression marker works for mutex-capability.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/obs/trace.h",
        "std::mutex legacy_;  // lint:allow(mutex-capability)\n");
    expect(count_rule(linter, "mutex-capability") == 0,
           "mutex-capability suppression honored");
  }
  {  // An unannotated mutable member of a mutex-owning class is flagged.
    Linter linter{fs::path(".")};
    linter.lint_source("src/obs/sink.cpp",
                       "class Sink {\n"
                       " private:\n"
                       "  mutable util::Mutex mu_;\n"
                       "  std::deque<int> ring_;\n"
                       "};\n");
    expect(count_rule(linter, "guarded-member") == 1,
           "unannotated guarded member flagged");
  }
  {  // GUARDED_BY, atomics, const, references, statics, the mutexes
     // themselves and condition variables all satisfy the rule.
    Linter linter{fs::path(".")};
    linter.lint_source("src/obs/sink.cpp",
                       "class Sink {\n"
                       "  mutable util::SharedMutex mu_;\n"
                       "  util::Mutex aux_mu_;\n"
                       "  std::condition_variable_any cv_;\n"
                       "  std::deque<int> ring_ REVTR_GUARDED_BY(mu_);\n"
                       "  std::atomic<const M*> metrics_{nullptr};\n"
                       "  const std::size_t capacity_;\n"
                       "  probing::Prober& prober_;\n"
                       "  static constexpr std::size_t kN = 4;\n"
                       "};\n");
    expect(count_rule(linter, "guarded-member") == 0,
           "annotated/exempt members accepted");
  }
  {  // The lock-free waiver and lint:allow both work; member functions and
     // classes without a mutex are never judged.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/util/pool.cpp",
        "class Pool {\n"
        "  util::Mutex mu_;\n"
        "  std::vector<std::thread> threads_;  // lint: lock-free(ctor/dtor "
        "only)\n"
        "  bool quirk_;  // lint:allow(guarded-member)\n"
        "  void drain() { std::size_t local = 0; use(local); }\n"
        "};\n"
        "class Plain {\n"
        "  std::deque<int> unguarded_;\n"
        "};\n");
    expect(count_rule(linter, "guarded-member") == 0,
           "waivers honored; functions and mutex-free classes skipped");
  }
  {  // A mutable member is a race even when const-qualified... it is not
     // const, so the exemption must not fire on `mutable`.
    Linter linter{fs::path(".")};
    linter.lint_source("src/util/stats2.cpp",
                       "class D {\n"
                       "  mutable util::Mutex mu_;\n"
                       "  mutable bool sorted_ = true;\n"
                       "};\n");
    expect(count_rule(linter, "guarded-member") == 1,
           "mutable member without annotation flagged");
  }
  {  // Manual lock management in src/ is flagged; waits on the guard and
     // code outside src/ are not.
    Linter linter{fs::path(".")};
    linter.lint_source("src/sched/x.cpp",
                       "void f() { mu_.lock(); work(); mu_.unlock(); }\n");
    expect(count_rule(linter, "raii-guard") == 1,  // Both on one line.
           "manual lock/unlock flagged");
    Linter clean{fs::path(".")};
    clean.lint_source("src/server/daemon.cpp",
                      "work_cv_.wait(lock);\n");
    clean.lint_source("tests/x_test.cpp", "mu.lock();\nmu.unlock();\n");
    clean.lint_source(
        "src/util/once.cpp",
        "if (mu_.try_lock()) { }  // lint:allow(raii-guard)\n");
    expect(count_rule(clean, "raii-guard") == 0,
           "cv wait, tests, and suppressed try_lock accepted");
  }
  {  // sources_mu_ before a stripe follows the declared order.
    Linter linter{fs::path(".")};
    linter.lint_source("src/atlas/x.cpp",
                       "void f() {\n"
                       "  const util::SharedLock a(sources_mu_);\n"
                       "  {\n"
                       "    const util::ExclusiveLock b(stripe_of(source));\n"
                       "  }\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 0,
           "increasing-rank nesting accepted");
  }
  {  // The inversion — a stripe held while taking the source map — is
     // rejected, as is re-acquiring the same rank (self-deadlock).
    Linter linter{fs::path(".")};
    linter.lint_source("src/atlas/x.cpp",
                       "void f() {\n"
                       "  const util::ExclusiveLock b(stripe_of(source));\n"
                       "  {\n"
                       "    const util::SharedLock a(sources_mu_);\n"
                       "  }\n"
                       "}\n");
    linter.lint_source("src/sched/y.cpp",
                       "void g() {\n"
                       "  const util::MutexLock a(mu_);\n"
                       "  { const util::MutexLock b(mu_); }\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 2,
           "rank inversion and same-rank re-acquisition rejected");
  }
  {  // Sibling scopes do not overlap; a released guard is not held.
    Linter linter{fs::path(".")};
    linter.lint_source("src/obs/x.cpp",
                       "void f() {\n"
                       "  { const util::SharedLock a(mu_); }\n"
                       "  const util::ExclusiveLock b(mu_);\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 0,
           "sequential guards in sibling scopes accepted");
  }
  {  // Every guarded mutex must have a declared rank.
    Linter linter{fs::path(".")};
    linter.lint_source("src/obs/x.cpp",
                       "void f() { const util::MutexLock l(weird_mu_); }\n");
    expect(count_rule(linter, "lock-order") == 1,
           "undeclared mutex rank rejected");
  }
  {  // Suppression marker works for lock-order; guards outside src/ are
     // not tracked.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/obs/x.cpp",
        "void f() { const util::MutexLock l(weird_mu_); }  "
        "// lint:allow(lock-order)\n");
    linter.lint_source("tests/x_test.cpp",
                       "void f() { const util::MutexLock l(anything_); }\n");
    expect(count_rule(linter, "lock-order") == 0,
           "lock-order suppression honored and scoped to src/");
  }
  {  // Outside src/, neither rule applies (tests may include anything and
     // keep defensive defaults).
    Linter linter{fs::path(".")};
    linter.lint_source("tests/x_test.cpp",
                       "#include \"core/revtr.h\"\n"
                       "void f(E e) {\n"
                       "  switch (e) {\n"
                       "    case E::kA: break;\n"
                       "    default: break;\n"
                       "  }\n"
                       "}\n");
    expect(linter.violations().empty(), "rules scoped to src/");
  }

  // --- Taint pass fixtures. -------------------------------------------------

  {  // A ByteReader-derived length used as an allocation size is flagged.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = r.u8();\n"
                       "  out.resize(len);\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 1, "unchecked wire length flagged");
  }
  {  // checked_cast on the right-hand side sanitizes the value.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = util::checked_cast<std::size_t>("
                       "r.u8());\n"
                       "  out.resize(len);\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 0, "checked_cast sanitizes");
  }
  {  // An adjacent REVTR_CHECK bounds comparison sanitizes, including
     // through a member call like .size().
    Linter linter{fs::path(".")};
    linter.lint_source("src/probing/x.cpp",
                       "void f(const Result& result) {\n"
                       "  const auto entries = result.reply->ts->entries();\n"
                       "  REVTR_CHECK(entries.size() <= kMax);\n"
                       "  out.reserve(entries.size());\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 0,
           "REVTR_CHECK adjacency sanitizes via .size()");
  }
  {  // The same code without the check is the real prober.cpp defect.
    Linter linter{fs::path(".")};
    linter.lint_source("src/probing/x.cpp",
                       "void f(const Result& result) {\n"
                       "  const auto entries = result.reply->ts->entries();\n"
                       "  out.reserve(entries.size());\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 1,
           "reply-derived size without bounds check flagged");
  }
  {  // `// lint: trusted(<reason>)` waives but keeps the finding for JSON.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = r.u8();\n"
                       "  out.resize(len);  // lint: trusted(capped by "
                       "wire format)\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 0, "trusted waiver suppresses");
    expect(count_waived(linter, "taint") == 1, "waived finding kept");
  }
  {  // Taint propagates through arithmetic into a loop bound.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = r.u8();\n"
                       "  const auto words = (len - 3) / 4;\n"
                       "  for (std::size_t i = 0; i < words; ++i) use(i);\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 1,
           "derived loop bound still tainted");
  }
  {  // Scope exit pops a tainted local; an inner redeclaration does not
     // leak taint into the enclosing scope.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  {\n"
                       "    const auto len = r.u8();\n"
                       "    use(len);\n"
                       "  }\n"
                       "  const auto len = kFixed;\n"
                       "  out.resize(len);\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 0, "scope exit clears taint");
  }
  {  // Member assignments and bulk-copy calls are not sinks, and the pass
     // only runs for src/net and src/probing.
    Linter linter{fs::path(".")};
    linter.lint_source("src/net/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = r.u8();\n"
                       "  out.len = len;\n"
                       "}\n");
    linter.lint_source("src/core/x.cpp",
                       "void f(ByteReader& r) {\n"
                       "  const auto len = r.u8();\n"
                       "  out.resize(len);\n"
                       "}\n");
    expect(count_rule(linter, "taint") == 0,
           "member stores not sinks; pass scoped to net/probing");
  }

  // --- Guard-escape fixtures. -----------------------------------------------

  {  // The PR 6 atlas defect, verbatim shape: a reference into a guarded
     // vector returned from under a SharedLock.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/atlas/x.h",
        "class TracerouteAtlas {\n"
        " public:\n"
        "  const std::vector<Hop>& hops(HostId source) const {\n"
        "    const util::SharedLock lock(mu_);\n"
        "    return sources_.at(source).hops;\n"
        "  }\n"
        " private:\n"
        "  mutable util::SharedMutex mu_;\n"
        "  std::map<HostId, SourceAtlas> sources_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    expect(count_rule(linter, "guard-escape") == 1,
           "reference into guarded member flagged (PR 6 atlas shape)");
  }
  {  // Returning by value is the sanctioned snapshot pattern.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/atlas/x.h",
        "class TracerouteAtlas {\n"
        " public:\n"
        "  std::vector<Hop> hops(HostId source) const {\n"
        "    const util::SharedLock lock(mu_);\n"
        "    return sources_.at(source).hops;\n"
        "  }\n"
        "  std::shared_ptr<const SourceAtlas> atlas(HostId s) const {\n"
        "    const util::SharedLock lock(mu_);\n"
        "    return sources_.at(s);\n"
        "  }\n"
        " private:\n"
        "  mutable util::SharedMutex mu_;\n"
        "  std::map<HostId, SourceAtlas> sources_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    expect(count_rule(linter, "guard-escape") == 0,
           "by-value and shared_ptr<const> snapshots accepted");
  }
  {  // A local derived from a guarded member leaks just the same.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/obs/x.h",
        "class Registry {\n"
        " public:\n"
        "  Counter* find(std::string_view name) {\n"
        "    const util::MutexLock lock(mu_);\n"
        "    auto it = entries_.find(name);\n"
        "    return it == entries_.end() ? nullptr : &it->second;\n"
        "  }\n"
        " private:\n"
        "  util::Mutex mu_;\n"
        "  std::map<std::string, Counter> entries_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    expect(count_rule(linter, "guard-escape") == 1,
           "derived iterator local flagged");
  }
  {  // REVTR_REQUIRES methods hand the locking duty to the caller.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/sched/x.h",
        "class Queue {\n"
        " public:\n"
        "  Entry& head() REVTR_REQUIRES(mu_) { return entries_.front(); }\n"
        " private:\n"
        "  util::Mutex mu_;\n"
        "  std::deque<Entry> entries_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    expect(count_rule(linter, "guard-escape") == 0,
           "REVTR_REQUIRES accessor exempt");
  }
  {  // `// lint: stable-ref(<reason>)` above the signature waives every
     // return in the method; the finding stays visible as waived.
    Linter linter{fs::path(".")};
    linter.lint_source(
        "src/obs/x.h",
        "class Registry {\n"
        " public:\n"
        "  // lint: stable-ref(map nodes are never erased)\n"
        "  Counter& at(const std::string& name) {\n"
        "    const util::MutexLock lock(mu_);\n"
        "    return entries_[name];\n"
        "  }\n"
        " private:\n"
        "  util::Mutex mu_;\n"
        "  std::map<std::string, Counter> entries_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    expect(count_rule(linter, "guard-escape") == 0, "stable-ref waives");
    expect(count_waived(linter, "guard-escape") == 1,
           "waived escape kept for JSON");
  }
  {  // Cross-file: the class registry comes from the header, the escaping
     // out-of-line definition from the .cpp.
    Linter linter{fs::path(".")};
    linter.collect_source(
        "src/vpselect/x.h",
        "class Discovery {\n"
        " private:\n"
        "  mutable util::SharedMutex mu_;\n"
        "  std::unordered_map<PrefixId, Plan> plans_ REVTR_GUARDED_BY(mu_);\n"
        "};\n");
    linter.lint_source("src/vpselect/x.cpp",
                       "const Plan* Discovery::plan_for(PrefixId p) const {\n"
                       "  const util::SharedLock lock(mu_);\n"
                       "  const auto it = plans_.find(p);\n"
                       "  return it == plans_.end() ? nullptr : &it->second;\n"
                       "}\n");
    expect(count_rule(linter, "guard-escape") == 1,
           "out-of-line definition checked against header registry");
  }

  // --- Stage-graph / stage-span fixtures. -----------------------------------

  const char* kGoodMachineHeader =
      "class RequestTask {\n"
      " public:\n"
      "  enum class Stage : std::uint8_t {\n"
      "    kA,     // lint: stage(kA -> kB, kDone)\n"
      "    kB,     // lint: stage(kB -> kA, kDone)\n"
      "    kDone,  // lint: stage(kDone ->)\n"
      "  };\n"
      "};\n";
  const char* kGoodMachineBody =
      "void RequestTask::advance() {\n"
      "  switch (stage_) {\n"
      "    case Stage::kA:\n"
      "      step_a();\n"
      "      break;\n"
      "    case Stage::kB:\n"
      "      step_b();\n"
      "      break;\n"
      "    case Stage::kDone:\n"
      "      REVTR_CHECK(false);\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "void RequestTask::step_a() {\n"
      "  open_stage(\"a\");\n"
      "  if (fast_path()) {\n"
      "    close_stage();\n"
      "    stage_ = Stage::kDone;\n"
      "    return;\n"
      "  }\n"
      "  close_stage();\n"
      "  stage_ = Stage::kB;\n"
      "}\n"
      "void RequestTask::step_b() {\n"
      "  stage_ = done() ? Stage::kDone : Stage::kA;\n"
      "}\n";
  {  // A conforming machine: declared DAG, exhaustive dispatch, balanced
     // spans on every path.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source("src/core/x.cpp", kGoodMachineBody);
    expect(count_rule(linter, "stage-graph") == 0 &&
               count_rule(linter, "stage-span") == 0,
           "conforming stage machine accepted");
  }
  {  // An undeclared transition (kB -> kB is not in the DAG) is flagged.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source("src/core/x.cpp",
                       "void RequestTask::advance() {\n"
                       "  switch (stage_) {\n"
                       "    case Stage::kA:\n"
                       "      step_a();\n"
                       "      break;\n"
                       "    case Stage::kB:\n"
                       "      step_b();\n"
                       "      break;\n"
                       "    case Stage::kDone:\n"
                       "      break;\n"
                       "  }\n"
                       "}\n"
                       "void RequestTask::step_a() { stage_ = Stage::kB; }\n"
                       "void RequestTask::step_b() { stage_ = Stage::kB; }\n");
    expect(count_rule(linter, "stage-graph") == 1,
           "undeclared transition rejected");
  }
  {  // A path that reaches the terminal stage with an open span (missing
     // close_stage) is a stage-span violation.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source("src/core/x.cpp",
                       "void RequestTask::advance() {\n"
                       "  switch (stage_) {\n"
                       "    case Stage::kA:\n"
                       "      step_a();\n"
                       "      break;\n"
                       "    case Stage::kB:\n"
                       "      step_b();\n"
                       "      break;\n"
                       "    case Stage::kDone:\n"
                       "      break;\n"
                       "  }\n"
                       "}\n"
                       "void RequestTask::step_a() {\n"
                       "  open_stage(\"a\");\n"
                       "  stage_ = Stage::kDone;\n"
                       "}\n"
                       "void RequestTask::step_b() {\n"
                       "  stage_ = Stage::kA;\n"
                       "}\n");
    expect(count_rule(linter, "stage-span") >= 1,
           "open_stage without close_stage on a path rejected");
  }
  {  // Double open without an intervening close.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source("src/core/x.cpp",
                       "void RequestTask::advance() {\n"
                       "  switch (stage_) {\n"
                       "    case Stage::kA:\n"
                       "      step_a();\n"
                       "      break;\n"
                       "    case Stage::kB:\n"
                       "    case Stage::kDone:\n"
                       "      break;\n"
                       "  }\n"
                       "}\n"
                       "void RequestTask::step_a() {\n"
                       "  open_stage(\"a\");\n"
                       "  open_stage(\"b\");\n"
                       "  close_stage();\n"
                       "  close_stage();\n"
                       "  stage_ = Stage::kDone;\n"
                       "}\n");
    expect(count_rule(linter, "stage-span") >= 1, "double open rejected");
  }
  {  // A switch over Stage that misses an enumerator is non-exhaustive.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source("src/core/x.cpp",
                       "void RequestTask::advance() {\n"
                       "  switch (stage_) {\n"
                       "    case Stage::kA:\n"
                       "      step_a();\n"
                       "      break;\n"
                       "    case Stage::kDone:\n"
                       "      break;\n"
                       "  }\n"
                       "}\n"
                       "void RequestTask::step_a() { stage_ = Stage::kB; }\n");
    expect(count_rule(linter, "stage-graph") >= 1,
           "non-exhaustive Stage switch rejected");
  }
  {  // An enumerator with no DAG declaration at all is flagged once.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h",
                          "class RequestTask {\n"
                          " public:\n"
                          "  enum class Stage : std::uint8_t {\n"
                          "    kA,     // lint: stage(kA -> kDone)\n"
                          "    kB,\n"
                          "    kDone,  // lint: stage(kDone ->)\n"
                          "  };\n"
                          "};\n");
    linter.lint_source("src/core/x.cpp",
                       "void RequestTask::advance() {\n"
                       "  switch (stage_) {\n"
                       "    case Stage::kA:\n"
                       "    case Stage::kB:\n"
                       "    case Stage::kDone:\n"
                       "      break;\n"
                       "  }\n"
                       "}\n");
    expect(count_rule(linter, "stage-graph") == 1,
           "enumerator missing from the DAG flagged");
  }
  {  // lint:allow(stage-graph) on the offending assignment waives it.
    Linter linter{fs::path(".")};
    linter.collect_source("src/core/x.h", kGoodMachineHeader);
    linter.lint_source(
        "src/core/x.cpp",
        "void RequestTask::advance() {\n"
        "  switch (stage_) {\n"
        "    case Stage::kA:\n"
        "      step_a();\n"
        "      break;\n"
        "    case Stage::kB:\n"
        "    case Stage::kDone:\n"
        "      break;\n"
        "  }\n"
        "}\n"
        "void RequestTask::step_a() {\n"
        "  stage_ = Stage::kA;  // lint:allow(stage-graph)\n"
        "}\n");
    expect(count_rule(linter, "stage-graph") == 0,
           "stage-graph waiver honored");
  }

  // --- Server module fixtures (DESIGN.md §14). ------------------------------

  {  // The daemon sits above the whole stack: server -> service/sched/eval
     // are all downward edges.
    Linter linter{fs::path(".")};
    linter.lint_source("src/server/daemon.cpp",
                       "#include \"service/service.h\"\n"
                       "#include \"sched/scheduler.h\"\n"
                       "#include \"eval/harness.h\"\n");
    expect(count_rule(linter, "layering") == 0,
           "server includes the stack below it");
  }
  {  // Nothing below may reach back up into the daemon.
    Linter linter{fs::path(".")};
    linter.lint_source("src/service/service.cpp",
                       "#include \"server/frame.h\"\n");
    linter.lint_source("src/eval/harness.cpp",
                       "#include \"server/daemon.h\"\n");
    expect(count_rule(linter, "layering") == 2,
           "includes of server from lower modules rejected");
  }
  {  // The daemon mutex has a declared rank (110); plain sequential use is
     // fine.
    Linter linter{fs::path(".")};
    linter.lint_source("src/server/daemon.cpp",
                       "void f() {\n"
                       "  { const util::MutexLock a(mu_); }\n"
                       "  const util::MutexLock b(mu_);\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 0,
           "server mu_ rank declared; sequential guards accepted");
  }
  {  // Re-acquiring the daemon mutex under itself is a self-deadlock; the
     // rank table makes server mu_ the top rank, so nothing nests inside it.
    Linter linter{fs::path(".")};
    linter.lint_source("src/server/daemon.cpp",
                       "void f() {\n"
                       "  const util::MutexLock a(mu_);\n"
                       "  { const util::MutexLock b(mu_); }\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 1,
           "nesting under server mu_ rejected");
  }

  // --- Agent module fixtures (DESIGN.md §15). -------------------------------

  {  // The VP agent sits above the server (it speaks server/frame.h) and
     // owns its own eval stack: all downward edges.
    Linter linter{fs::path(".")};
    linter.lint_source("src/agent/agent.cpp",
                       "#include \"server/frame.h\"\n"
                       "#include \"eval/harness.h\"\n"
                       "#include \"probing/prober.h\"\n");
    expect(count_rule(linter, "layering") == 0,
           "agent includes server frames and the stack below");
  }
  {  // The controller may not include the agent: the split stays one-way
     // (the daemon knows frames, not the agent's implementation).
    Linter linter{fs::path(".")};
    linter.lint_source("src/server/daemon.cpp",
                       "#include \"agent/agent.h\"\n");
    expect(count_rule(linter, "layering") == 1,
           "server including agent rejected");
  }
  {  // The agent mutex has a declared rank (120); plain sequential use is
     // fine, and nesting under it is a self-deadlock like the daemon's.
    Linter linter{fs::path(".")};
    linter.lint_source("src/agent/agent.cpp",
                       "void f() {\n"
                       "  { const util::MutexLock a(mu_); }\n"
                       "  const util::MutexLock b(mu_);\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 0,
           "agent mu_ rank declared; sequential guards accepted");
  }
  {  // Re-acquiring the agent mutex under itself is a self-deadlock; rank
     // 120 is the top of the table, so nothing nests inside it.
    Linter linter{fs::path(".")};
    linter.lint_source("src/agent/agent.cpp",
                       "void f() {\n"
                       "  const util::MutexLock a(mu_);\n"
                       "  { const util::MutexLock b(mu_); }\n"
                       "}\n");
    expect(count_rule(linter, "lock-order") == 1,
           "nesting under agent mu_ rejected");
  }

  if (failures != 0) {
    std::fprintf(stderr, "revtr-lint self-test: %zu/%zu checks failed\n",
                 failures, checks);
    return 1;
  }
  std::printf("revtr-lint self-test: ok (%zu checks)\n", checks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--format=json") {
      json = true;
    } else if (arg == "--self-test") {
      return run_self_test();
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: revtr_lint [--format=json] <repo-root> | "
                 "--self-test\n");
    return 2;
  }
  const fs::path root = positional.front();
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "revtr_lint: not a directory: %s\n",
                 positional.front().c_str());
    return 2;
  }

  Linter linter(root);
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !is_source(entry.path())) continue;
      files.push_back(entry.path());
    }
  }
  // Collect first so cross-file registries (guarded members, the stage
  // enum/DAG) are complete before any file is linted.
  for (const auto& path : files) linter.collect_file(path);
  for (const auto& path : files) {
    linter.note_file();
    linter.lint_file(path);
  }
  return linter.finish(json);
}
