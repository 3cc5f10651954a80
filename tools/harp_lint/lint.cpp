#include "tools/harp_lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "tools/harp_lint/callgraph.hpp"
#include "tools/harp_lint/lexer.hpp"
#include "tools/harp_lint/lockorder.hpp"
#include "tools/harp_lint/lockset.hpp"
#include "tools/harp_lint/taint.hpp"

namespace harp::lint {

namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

struct Scanned {
  const SourceFile* src = nullptr;
  LexedFile lexed;
};

/// The module dependency DAG (ISSUE/DESIGN: common → json/linalg →
/// platform → model/ipc/mlmodels/energy → sim → sched → harp; libharp sits
/// beside harp on top of ipc). A module may always include itself.
const std::map<std::string, std::set<std::string>>& layering() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"json", {"common"}},
      {"linalg", {"common"}},
      {"telemetry", {"common", "json", "linalg"}},
      {"platform", {"common", "json", "telemetry"}},
      {"model", {"common", "json", "platform", "telemetry"}},
      {"ipc", {"common", "json", "platform", "telemetry"}},
      {"mlmodels", {"common", "linalg", "telemetry"}},
      {"energy", {"common", "json", "platform", "telemetry"}},
      {"sim", {"common", "json", "platform", "model", "telemetry"}},
      {"sched", {"common", "json", "platform", "model", "sim", "telemetry"}},
      {"harp",
       {"common", "json", "linalg", "platform", "model", "ipc", "mlmodels", "energy", "sim",
        "telemetry"}},
      {"libharp", {"common", "json", "platform", "ipc", "telemetry"}},
  };
  return kAllowed;
}

/// "src/ipc/transport.cpp" → "ipc"; empty when not inside a src module.
std::string module_of(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) != 0) return "";
  std::size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel_path.substr(4, slash - 4);
}

// ---------------------------------------------------------------------------
// r1 — unchecked Result/Status
// ---------------------------------------------------------------------------

/// Pass 1 over the whole scanned set (headers give us the API surface):
/// `fallible` holds names of functions declared to return Result<...> or
/// Status; `ambiguous` holds names that ALSO have a void-returning overload
/// somewhere (e.g. RmServer::poll vs Channel::poll) — name-based matching
/// cannot tell those call sites apart, so the discard check skips them.
struct FallibleIndex {
  std::unordered_set<std::string> fallible;
  std::unordered_set<std::string> ambiguous;
};

FallibleIndex collect_fallible(const std::vector<Scanned>& files) {
  FallibleIndex out;
  std::unordered_set<std::string> void_returning;
  for (const Scanned& f : files) {
    const std::vector<Token>& t = f.lexed.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i])) continue;
      bool fallible = t[i].text == "Result" || t[i].text == "Status";
      bool void_ret = t[i].text == "void";
      if (!fallible && !void_ret) continue;
      std::size_t j = i + 1;
      if (t[i].text == "Result") {
        if (j >= t.size() || !is(t[j], "<")) continue;
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (is(t[j], "<")) ++depth;
          if (is(t[j], ">") && --depth == 0) break;
        }
        ++j;
      }
      // Qualified declarator: name (:: name)* followed by '('.
      std::string name;
      while (j + 1 < t.size() && is_ident(t[j]) && t[j].text != "operator") {
        name = t[j].text;
        if (is(t[j + 1], "::")) {
          j += 2;
          continue;
        }
        break;
      }
      if (name.empty() || j + 1 >= t.size() || !is_ident(t[j]) || !is(t[j + 1], "(")) continue;
      if (fallible) out.fallible.insert(name);
      if (void_ret) void_returning.insert(name);
    }
  }
  for (const std::string& name : out.fallible)
    if (void_returning.count(name) != 0) out.ambiguous.insert(name);
  return out;
}

/// One statement-ish token run: [begin, end) bounded by ; { } at paren depth 0.
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool ends_with_semicolon = false;
};

std::vector<Run> split_runs(const std::vector<Token>& t) {
  std::vector<Run> runs;
  std::size_t begin = 0;
  int paren = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is(t[i], "(") || is(t[i], "[")) ++paren;
    if (is(t[i], ")") || is(t[i], "]")) --paren;
    if (paren > 0) continue;
    if (paren < 0) paren = 0;  // tolerate unbalanced input
    if (is(t[i], ";") || is(t[i], "{") || is(t[i], "}")) {
      if (i > begin) runs.push_back(Run{begin, i, is(t[i], ";")});
      begin = i + 1;
    }
  }
  if (t.size() > begin) runs.push_back(Run{begin, t.size(), false});
  return runs;
}

const std::set<std::string>& statement_keywords() {
  static const std::set<std::string> kSkip = {
      "return", "co_return", "throw",  "delete",   "goto",     "break",
      "continue", "using",   "typedef", "namespace", "friend",  "template",
      "extern",  "static_assert", "public", "private", "protected"};
  return kSkip;
}

void check_discarded_calls(const Scanned& f, const FallibleIndex& index,
                           std::vector<Finding>& findings) {
  const std::vector<Token>& t = f.lexed.tokens;
  for (const Run& run : split_runs(t)) {
    if (!run.ends_with_semicolon) continue;
    std::size_t b = run.begin, e = run.end;

    // Strip labels (case x:, default:, access specifiers are keywords).
    while (b < e && (is(t[b], "case") || is(t[b], "default"))) {
      while (b < e && !is(t[b], ":")) ++b;
      if (b < e) ++b;
    }
    // Strip control-flow heads so `if (c) send(x);` still checks the call.
    while (b < e && (is(t[b], "if") || is(t[b], "while") || is(t[b], "for") ||
                     is(t[b], "switch") || is(t[b], "else") || is(t[b], "do"))) {
      ++b;
      if (b < e && is(t[b], "(")) {
        int depth = 0;
        for (; b < e; ++b) {
          if (is(t[b], "(")) ++depth;
          if (is(t[b], ")") && --depth == 0) break;
        }
        if (b < e) ++b;
      }
    }
    if (b >= e) continue;
    if (statement_keywords().count(t[b].text) != 0) continue;
    // Explicit discard: (void)call(...);
    if (e - b >= 3 && is(t[b], "(") && is(t[b + 1], "void") && is(t[b + 2], ")")) continue;

    // A bare call has no top-level operators; assignments, comparisons,
    // streams, ternaries and declarations all disqualify the run.
    int paren = 0;
    bool expression_like = false;
    for (std::size_t i = b; i < e; ++i) {
      if (is(t[i], "(") || is(t[i], "[")) ++paren;
      if (is(t[i], ")") || is(t[i], "]")) --paren;
      if (paren > 0) continue;
      if (is(t[i], "=") || is(t[i], "<") || is(t[i], ">") || is(t[i], "?") || is(t[i], ":")) {
        expression_like = true;
        break;
      }
    }
    if (expression_like) continue;

    // Shape: ... callee ( args ) ;
    if (e - b < 3 || !is(t[e - 1], ")")) continue;
    int depth = 0;
    std::size_t open = e - 1;
    bool balanced = false;
    for (std::size_t i = e; i-- > b;) {
      if (is(t[i], ")")) ++depth;
      if (is(t[i], "(") && --depth == 0) {
        open = i;
        balanced = true;
        break;
      }
    }
    if (!balanced || open == b) continue;
    const Token& callee = t[open - 1];
    if (!is_ident(callee)) continue;
    // A declaration (`Status listen(...);`) has a type token before the
    // name; a call is preceded by nothing, member access, or a scope.
    if (open >= b + 2) {
      const Token& before = t[open - 2];
      if (!is(before, ".") && !is(before, "->") && !is(before, "::")) continue;
    }
    if (index.fallible.count(callee.text) == 0) continue;
    if (index.ambiguous.count(callee.text) != 0) continue;
    findings.push_back(Finding{f.src->rel_path, callee.line, "r1",
                              "return value of '" + callee.text +
                                  "' (Result/Status) is discarded; handle it or cast to "
                                  "(void) with a comment"});
  }
}

/// What a backwards walk from a `.value()` use learned about its variable.
enum class BaseKind {
  kUnknown,        ///< walked out of scope without meeting a check or a decl
  kChecked,        ///< a dominating ok()-style check was found first
  kResultDecl,     ///< declared Result<T>/Status (or auto = fallible call), unchecked
  kOtherDecl,      ///< declared as some other type (Ema, WireWriter, optional…)
};

/// Backwards dominator/declaration scan from `from` (exclusive). Looks for
/// `X.ok(`, `!X`, or `(X)` — a check — or X's declaration, whichever comes
/// first walking up. Closed sibling scopes (earlier functions, earlier
/// blocks) are skipped wholesale, which makes the search ~function scoped
/// without a symbol table.
BaseKind classify_base(const std::vector<Token>& t, std::size_t from, const std::string& var,
                       const FallibleIndex& index) {
  int closed = 0;
  for (std::size_t i = from; i-- > 0;) {
    if (is(t[i], "}")) {
      ++closed;
      continue;
    }
    if (is(t[i], "{")) {
      if (closed > 0) --closed;
      continue;
    }
    if (closed > 0) continue;  // inside a closed sibling scope
    if (!is_ident(t[i]) || t[i].text != var) continue;

    // Check patterns.
    if (i + 2 < t.size() && is(t[i + 1], ".") && is_ident(t[i + 2]) && t[i + 2].text == "ok")
      return BaseKind::kChecked;
    if (i > 0 && is(t[i - 1], "!")) return BaseKind::kChecked;
    if (i > 0 && i + 1 < t.size() && is(t[i - 1], "(") && is(t[i + 1], ")"))
      return BaseKind::kChecked;

    // Declaration patterns: `Status X`, `Result<...>[&] X`, `auto X = f(...)`.
    if (i == 0) continue;
    std::size_t p = i - 1;
    while (p > 0 && (is(t[p], "&") || is(t[p], "*") || is(t[p], "const"))) --p;
    if (is_ident(t[p]) && t[p].text == "Status") return BaseKind::kResultDecl;
    if (is_ident(t[p]) && t[p].text == "auto") {
      if (i + 1 >= t.size() || !is(t[i + 1], "=")) return BaseKind::kOtherDecl;
      std::string callee;
      for (std::size_t j = i + 2; j < t.size() && !is(t[j], ";"); ++j) {
        if (is(t[j], "(")) break;
        if (is_ident(t[j])) callee = t[j].text;
      }
      return index.fallible.count(callee) != 0 ? BaseKind::kResultDecl : BaseKind::kOtherDecl;
    }
    if (is(t[p], ">")) {
      int depth = 0;
      for (std::size_t j = p + 1; j-- > 0;) {
        if (is(t[j], ">")) ++depth;
        if (is(t[j], "<") && --depth == 0) {
          if (j > 0 && is_ident(t[j - 1]) && t[j - 1].text == "Result")
            return BaseKind::kResultDecl;
          break;
        }
      }
      return BaseKind::kOtherDecl;
    }
    // A plain use (argument, assignment target, …): keep walking up.
  }
  return BaseKind::kUnknown;
}

void check_unchecked_access(const Scanned& f, const FallibleIndex& index,
                            std::vector<Finding>& findings) {
  const std::vector<Token>& t = f.lexed.tokens;
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    if (t[i].text != "value" && t[i].text != "error" && t[i].text != "take") continue;
    if (!is(t[i - 1], ".") || !is(t[i + 1], "(")) continue;

    std::size_t base = i - 2;
    std::string var;
    if (is_ident(t[base])) {
      var = t[base].text;  // dominator search starts before the variable use
    } else if (is(t[base], ")")) {
      // Chained call: find the call's opening paren and callee.
      int depth = 0;
      std::size_t open = base;
      for (std::size_t j = base + 1; j-- > 0;) {
        if (is(t[j], ")")) ++depth;
        if (is(t[j], "(") && --depth == 0) {
          open = j;
          break;
        }
      }
      if (open > 0 && is_ident(t[open - 1]) && t[open - 1].text == "move") {
        // `std::move(x).take()` — the sanctioned hand-off; resolve back to x.
        for (std::size_t j = open + 1; j < base; ++j)
          if (is_ident(t[j])) var = t[j].text;  // last identifier inside move(...)
        base = open;
      } else if (open > 0 && is_ident(t[open - 1]) &&
                 index.fallible.count(t[open - 1].text) != 0) {
        findings.push_back(
            Finding{f.src->rel_path, t[i].line, "r1",
                    "'." + t[i].text + "()' directly on fallible '" + t[open - 1].text +
                        "(...)'; bind the Result and check ok() first"});
        continue;
      } else {
        continue;  // chained call on something non-fallible
      }
    } else {
      continue;
    }
    if (var.empty()) continue;
    if (classify_base(t, base, var, index) == BaseKind::kResultDecl)
      findings.push_back(Finding{f.src->rel_path, t[i].line, "r1",
                                "'" + var + "." + t[i].text + "()' without a dominating '" +
                                    var + ".ok()' check in an enclosing scope"});
  }
}

// ---------------------------------------------------------------------------
// r2 — determinism
// ---------------------------------------------------------------------------

void check_determinism(const Scanned& f, std::vector<Finding>& findings) {
  if (f.src->rel_path == "src/common/rng.hpp") return;  // the one sanctioned home
  const std::vector<Token>& t = f.lexed.tokens;
  auto member_access = [&](std::size_t i) {
    return i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->"));
  };
  // `int rand() const` declares a member that merely shares the name; a
  // call is never preceded directly by a plain (non-keyword) identifier.
  auto declaration_like = [&](std::size_t i) {
    if (i == 0 || !is_ident(t[i - 1])) return false;
    static const std::set<std::string> kExprKeywords = {"return", "co_return", "co_await",
                                                        "throw",  "case",      "else", "do"};
    return kExprKeywords.count(t[i - 1].text) == 0;
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& name = t[i].text;
    if (name == "random_device") {
      findings.push_back(Finding{f.src->rel_path, t[i].line, "r2",
                                "std::random_device is nondeterministic; take a seed and use "
                                "harp::Rng (src/common/rng.hpp)"});
      continue;
    }
    if ((name == "rand" || name == "srand") && i + 1 < t.size() && is(t[i + 1], "(") &&
        !member_access(i) && !declaration_like(i)) {
      findings.push_back(Finding{f.src->rel_path, t[i].line, "r2",
                                name + "() breaks seeded reproducibility; use harp::Rng"});
      continue;
    }
    if (name == "time" && i + 2 < t.size() && is(t[i + 1], "(") && !member_access(i) &&
        (is(t[i + 2], "nullptr") || is(t[i + 2], "NULL") || is(t[i + 2], "0"))) {
      findings.push_back(Finding{f.src->rel_path, t[i].line, "r2",
                                "time(nullptr) seeding is nondeterministic; thread a seed "
                                "through harp::Rng"});
      continue;
    }
    if (name == "system_clock" && i + 4 < t.size() && is(t[i + 1], "::") &&
        is_ident(t[i + 2]) && t[i + 2].text == "now" && is(t[i + 3], "(") && is(t[i + 4], ")")) {
      findings.push_back(Finding{f.src->rel_path, t[i].line, "r2",
                                "system_clock::now() is wall-clock; use the caller's "
                                "now_seconds or steady_clock for intervals"});
    }
  }
}

// ---------------------------------------------------------------------------
// r3 — include layering
// ---------------------------------------------------------------------------

void check_layering(const Scanned& f, std::vector<Finding>& findings) {
  std::string mod = module_of(f.src->rel_path);
  if (mod.empty()) return;  // tests/tools/bench/examples may include anything
  auto allowed = layering().find(mod);
  for (const Include& inc : f.lexed.includes) {
    std::string target = module_of(inc.path);
    if (target.empty() || target == mod) continue;
    if (allowed == layering().end()) {
      findings.push_back(Finding{f.src->rel_path, inc.line, "r3",
                                "module '" + mod + "' is not in the layering DAG; add it to "
                                "harp-lint's module map"});
      return;
    }
    if (layering().count(target) == 0) {
      findings.push_back(Finding{f.src->rel_path, inc.line, "r3",
                                "include of unknown module '" + target + "'"});
      continue;
    }
    if (allowed->second.count(target) == 0)
      findings.push_back(Finding{f.src->rel_path, inc.line, "r3",
                                "layering violation: '" + mod + "' may not include '" + target +
                                    "' (allowed: lower layers only)"});
  }
}

// ---------------------------------------------------------------------------
// r4 — MessageType dispatch exhaustiveness
// ---------------------------------------------------------------------------

void check_dispatch(const std::vector<Scanned>& files, const Options& options,
                    std::vector<Finding>& findings) {
  const Scanned* enum_file = nullptr;
  for (const Scanned& f : files)
    if (f.src->rel_path == options.enum_file) enum_file = &f;
  if (enum_file == nullptr) return;  // partial scan: nothing to check against

  // Enumerators of `enum class MessageType { ... }`.
  const std::vector<Token>& t = enum_file->lexed.tokens;
  std::vector<std::pair<std::string, int>> enumerators;
  std::vector<std::string> structs;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is(t[i], "struct") && is_ident(t[i + 1])) structs.push_back(t[i + 1].text);
    if (!is(t[i], "enum") || !is(t[i + 1], "class")) continue;
    if (i + 2 >= t.size() || t[i + 2].text != "MessageType") continue;
    std::size_t j = i + 3;
    while (j < t.size() && !is(t[j], "{")) ++j;
    bool expect_name = true;
    for (++j; j < t.size() && !is(t[j], "}"); ++j) {
      if (is(t[j], ",")) {
        expect_name = true;
        continue;
      }
      if (expect_name && is_ident(t[j])) {
        enumerators.emplace_back(t[j].text, t[j].line);
        expect_name = false;
      }
    }
  }

  for (const auto& [enumerator, line] : enumerators) {
    // kRegisterRequest → RegisterRequest; kActivate → ActivateMsg.
    std::string base = enumerator.rfind('k', 0) == 0 ? enumerator.substr(1) : enumerator;
    std::string payload;
    for (const std::string& s : structs)
      if (s == base || s == base + "Msg") payload = s;
    if (payload.empty()) {
      findings.push_back(Finding{enum_file->src->rel_path, line, "r4",
                                "MessageType::" + enumerator +
                                    " has no payload struct named '" + base + "' or '" + base +
                                    "Msg'"});
      continue;
    }
    for (const std::string& dispatch : options.dispatch_files) {
      for (const Scanned& f : files) {
        if (f.src->rel_path != dispatch) continue;
        bool mentioned = false;
        for (const Token& tok : f.lexed.tokens)
          if (is_ident(tok) && tok.text == payload) mentioned = true;
        if (!mentioned)
          findings.push_back(Finding{f.src->rel_path, 1, "r4",
                                    "dispatch does not handle MessageType::" + enumerator +
                                        " (payload '" + payload +
                                        "'): every message type must be sent or received "
                                        "here"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// r5 — lock annotations
// ---------------------------------------------------------------------------

bool run_contains(const std::vector<Token>& t, std::size_t b, std::size_t e, const char* text) {
  for (std::size_t i = b; i < e; ++i)
    if (t[i].text == text) return true;
  return false;
}

void check_lock_annotations(const Scanned& f, std::vector<Finding>& findings) {
  const std::vector<Token>& t = f.lexed.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is(t[i], "struct") && !is(t[i], "class")) continue;
    if (i > 0 && is(t[i - 1], "enum")) continue;
    if (!is_ident(t[i + 1])) continue;
    // Qualified name (struct RmServer::Client), then optional base clause.
    std::size_t j = i + 1;
    std::string name = t[j].text;
    while (j + 2 < t.size() && is(t[j + 1], "::") && is_ident(t[j + 2])) {
      j += 2;
      name = t[j].text;
    }
    std::size_t k = j + 1;
    while (k < t.size() && !is(t[k], "{") && !is(t[k], ";") && !is(t[k], "(")) ++k;
    if (k >= t.size() || !is(t[k], "{")) continue;  // forward declaration etc.

    // Body range at matching depth.
    int depth = 0;
    std::size_t body_begin = k + 1, body_end = k;
    for (std::size_t m = k; m < t.size(); ++m) {
      if (is(t[m], "{")) ++depth;
      if (is(t[m], "}") && --depth == 0) {
        body_end = m;
        break;
      }
    }
    if (body_end <= body_begin) continue;

    // Member runs at depth 1 (nested classes recurse via the outer loop).
    struct Member {
      std::size_t begin, end;
    };
    std::vector<Member> members;
    int paren = 0;
    std::size_t run_begin = body_begin;
    for (std::size_t m = body_begin; m < body_end; ++m) {
      if (is(t[m], "(") || is(t[m], "[")) ++paren;
      if (is(t[m], ")") || is(t[m], "]")) --paren;
      if (paren > 0) continue;  // braces inside parens are default args etc.
      if (paren < 0) paren = 0;
      if (is(t[m], "{")) {
        // Initializer brace (`= {...}`, `x{0}`) keeps the run alive; a
        // method/ctor body (preceded by `)` etc.) discards it. Either way
        // skip to the matching close; nested classes are visited by the
        // outer struct/class loop on their own.
        bool initializer = m > body_begin && (is(t[m - 1], "=") || is_ident(t[m - 1]) ||
                                              is(t[m - 1], ">"));
        int depth_b = 0;
        for (; m < body_end; ++m) {
          if (is(t[m], "{")) ++depth_b;
          if (is(t[m], "}") && --depth_b == 0) break;
        }
        if (!initializer) run_begin = m + 1;
        continue;
      }
      // `public:` / `private:` / `protected:` starts a fresh run so the
      // first member after a specifier is still seen as a plain member.
      if ((is(t[m], "public") || is(t[m], "private") || is(t[m], "protected")) &&
          m + 1 < body_end && is(t[m + 1], ":")) {
        ++m;
        run_begin = m + 1;
        continue;
      }
      if (is(t[m], ";")) {
        if (m > run_begin) members.push_back(Member{run_begin, m});
        run_begin = m + 1;
      }
    }

    auto is_variable_member = [&](const Member& member) {
      static const std::set<std::string> kSkipTokens = {
          "static", "constexpr", "using",  "typedef", "friend", "template",
          "struct", "class",     "enum",   "operator", "atomic", "public",
          "private", "protected", "explicit", "virtual"};
      int ann_paren = 0;
      for (std::size_t m = member.begin; m < member.end; ++m) {
        if (kSkipTokens.count(t[m].text) != 0) return false;
        if (is_ident(t[m]) && t[m].text.rfind("HARP_", 0) == 0 && m + 1 < member.end &&
            is(t[m + 1], "(")) {
          // Skip the annotation's argument list.
          ++m;
          int depth_a = 0;
          for (; m < member.end; ++m) {
            if (is(t[m], "(")) ++depth_a;
            if (is(t[m], ")") && --depth_a == 0) break;
          }
          continue;
        }
        if (is(t[m], "(")) return false;  // function declaration
        (void)ann_paren;
      }
      return true;
    };
    auto is_mutex_member = [&](const Member& member) {
      for (std::size_t m = member.begin; m < member.end; ++m) {
        if (is_ident(t[m]) &&
            (t[m].text == "Mutex" || t[m].text == "mutex" || t[m].text == "recursive_mutex" ||
             t[m].text == "shared_mutex" || t[m].text == "timed_mutex") &&
            m + 1 < member.end && is_ident(t[m + 1]))
          return true;
      }
      return false;
    };

    bool has_mutex = false;
    for (const Member& member : members)
      if (is_variable_member(member) && is_mutex_member(member)) has_mutex = true;
    if (!has_mutex) continue;

    for (const Member& member : members) {
      if (!is_variable_member(member) || is_mutex_member(member)) continue;
      if (run_contains(t, member.begin, member.end, "HARP_GUARDED_BY") ||
          run_contains(t, member.begin, member.end, "HARP_PT_GUARDED_BY"))
        continue;
      // Top-level `const` members (`const T x_`, `T* const x_`) are
      // immutable after construction and need no lock — the same exemption
      // r8 applies (lockset.cpp). `const` inside template arguments or on a
      // pointee does not make the member itself immutable.
      std::size_t name_tok = member.begin;
      for (std::size_t m = member.begin; m < member.end; ++m) {
        if (is(t[m], "=") || is(t[m], "{")) break;
        if (is_ident(t[m])) name_tok = m;
      }
      if (is(t[member.begin], "const") ||
          (name_tok > member.begin && is(t[name_tok - 1], "const")))
        continue;
      // Member name for the message: last identifier before any initializer.
      std::string member_name;
      for (std::size_t m = member.begin; m < member.end; ++m) {
        if (is(t[m], "=") || is(t[m], "{")) break;
        if (is_ident(t[m])) member_name = t[m].text;
      }
      findings.push_back(Finding{f.src->rel_path, t[member.begin].line, "r5",
                                "member '" + member_name + "' of mutex-holding " + name +
                                    " lacks HARP_GUARDED_BY (see "
                                    "src/common/thread_annotations.hpp)"});
    }
  }
}

// ---------------------------------------------------------------------------
// r6 — hot-path allocations
// ---------------------------------------------------------------------------

/// Opt-in rule: a file carrying a comment that BEGINS with the hot-path
/// marker (`// harp-lint: hot-path ...`) promises its loops are
/// allocation-free. The check flags std::vector / std::string *construction*
/// inside loop heads and braced loop bodies — declarations and temporaries,
/// not references, pointers, or template arguments. Heuristics:
/// single-statement (unbraced) loop bodies are not tracked, and a vector
/// declared in a for-init clause (constructed once, not per iteration) is
/// still flagged; hoist it above the loop or take a reference. The
/// begins-with requirement keeps prose that merely *mentions* the marker
/// (like this comment) from opting its file in.
void check_hot_path_allocations(const Scanned& f, std::vector<Finding>& findings) {
  static const std::string kMarker = "harp-lint: hot-path";
  bool annotated = false;
  for (const Comment& comment : f.lexed.comments) {
    std::size_t start = comment.text.find_first_not_of(" \t");
    if (start != std::string::npos && comment.text.compare(start, kMarker.size(), kMarker) == 0)
      annotated = true;
  }
  if (!annotated) return;

  const std::vector<Token>& t = f.lexed.tokens;

  // Pass 1: mark loop-head token ranges and the braces that open loop bodies.
  std::vector<char> in_loop_head(t.size(), 0);
  std::vector<char> opens_loop_body(t.size(), 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    bool head_loop = t[i].text == "for" || t[i].text == "while";
    bool do_loop = t[i].text == "do";
    if (!head_loop && !do_loop) continue;
    std::size_t j = i + 1;
    if (head_loop) {
      if (j >= t.size() || !is(t[j], "(")) continue;  // `while` member etc.
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (is(t[j], "(")) ++depth;
        if (is(t[j], ")") && --depth == 0) break;
        if (depth > 0) in_loop_head[j] = 1;
      }
      ++j;  // past ')'
    }
    if (j < t.size() && is(t[j], "{")) opens_loop_body[j] = 1;
  }

  // Pass 2: walk braces, flagging constructions while inside a loop body or
  // a loop head. A stack of brace kinds keeps nested non-loop scopes (ifs,
  // lambdas) inside a loop counted as loop context once the loop is entered.
  std::vector<char> brace_kinds;
  int loop_depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is(t[i], "{")) {
      char kind = opens_loop_body[i] != 0 || loop_depth > 0 ? 1 : 0;
      brace_kinds.push_back(kind);
      loop_depth += kind;
      continue;
    }
    if (is(t[i], "}")) {
      if (!brace_kinds.empty()) {
        loop_depth -= brace_kinds.back();
        brace_kinds.pop_back();
      }
      continue;
    }
    if (loop_depth == 0 && in_loop_head[i] == 0) continue;
    if (!is_ident(t[i])) continue;

    if (t[i].text == "vector" && i + 1 < t.size() && is(t[i + 1], "<")) {
      // Find the matching '>' of the template argument list.
      int depth = 0;
      std::size_t close = i + 1;
      bool balanced = false;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (is(t[j], "<")) ++depth;
        if (is(t[j], ">") && --depth == 0) {
          close = j;
          balanced = true;
          break;
        }
      }
      if (!balanced || close + 1 >= t.size()) continue;
      const Token& after = t[close + 1];
      // Construction: a declared name, a ( or { temporary. References,
      // pointers, nested template arguments (>, ,) and scope uses are fine.
      if (is_ident(after) || is(after, "(") || is(after, "{"))
        findings.push_back(Finding{f.src->rel_path, t[i].line, "r6",
                                  "std::vector constructed inside a loop in a hot-path file; "
                                  "hoist the buffer and clear()/assign() it instead"});
      continue;
    }
    if (t[i].text == "string" && i + 1 < t.size()) {
      const Token& after = t[i + 1];
      if (is_ident(after) || is(after, "(") || is(after, "{"))
        findings.push_back(Finding{f.src->rel_path, t[i].line, "r6",
                                  "std::string constructed inside a loop in a hot-path file; "
                                  "hoist it, use string_view, or build outside the loop"});
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Allow {
  int line = 1;
  std::string rule;
  bool has_reason = false;
};

std::vector<Allow> parse_allows(const Scanned& f, std::vector<Finding>& findings) {
  std::vector<Allow> allows;
  for (const Comment& comment : f.lexed.comments) {
    // Directive comments BEGIN with the marker (same rule as r6's hot-path
    // opt-in): prose that merely quotes `harp-lint: allow(...)` mid-sentence
    // — documentation, this very comment — is not a directive.
    std::size_t start = comment.text.find_first_not_of(" \t");
    if (start == std::string::npos ||
        comment.text.compare(start, 10, "harp-lint:") != 0)
      continue;
    std::size_t marker = start;
    std::size_t open = comment.text.find("allow(", marker);
    if (open == std::string::npos) {
      // `harp-lint: hot-path` is a file annotation consumed by r6, not a
      // suppression; everything else after the marker must be an allow().
      if (comment.text.find("hot-path", marker) != std::string::npos) continue;
      findings.push_back(Finding{f.src->rel_path, comment.line, "allow",
                                "malformed harp-lint directive; expected "
                                "'harp-lint: allow(<rule-id> <reason>)'"});
      continue;
    }
    std::size_t close = comment.text.find(')', open);
    std::string body = comment.text.substr(
        open + 6, close == std::string::npos ? std::string::npos : close - open - 6);
    std::size_t space = body.find(' ');
    std::string rule = body.substr(0, space);
    std::string reason = space == std::string::npos ? "" : body.substr(space + 1);
    reason.erase(0, reason.find_first_not_of(' '));
    if (rule.empty() || reason.empty()) {
      findings.push_back(Finding{f.src->rel_path, comment.line, "allow",
                                "suppression needs a mandatory reason: 'harp-lint: "
                                "allow(" + (rule.empty() ? "<rule-id>" : rule) + " <reason>)'"});
      continue;
    }
    allows.push_back(Allow{comment.line, rule, true});
  }
  return allows;
}

}  // namespace

std::string format(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " + finding.rule + " " +
         finding.message;
}

namespace {

/// Minimal JSON string escaping (the linter deliberately depends on nothing
/// under src/, so the rules can never be broken by the serialization code
/// they lint).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": \"" + json_escape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"rule\": \"" + json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\", \"path\": [";
    for (std::size_t p = 0; p < f.path.size(); ++p) {
      if (p != 0) out += ", ";
      out += "\"" + json_escape(f.path[p]) + "\"";
    }
    out += "], \"cycle\": [";
    for (std::size_t c = 0; c < f.cycle.size(); ++c) {
      if (c != 0) out += ", ";
      out += "{\"mutex\": \"" + json_escape(f.cycle[c].mutex) + "\", \"file\": \"" +
             json_escape(f.cycle[c].file) + "\", \"line\": " + std::to_string(f.cycle[c].line) +
             "}";
    }
    out += "]}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::vector<Finding> run(const std::vector<SourceFile>& files, const Options& options) {
  std::vector<Scanned> scans(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    scans[i].src = &files[i];
    scans[i].lexed = lex(files[i].text);
  }

  auto enabled = [&](const char* rule) {
    if (options.rules.empty()) return true;
    return std::find(options.rules.begin(), options.rules.end(), rule) != options.rules.end();
  };

  std::vector<Finding> findings;
  if (enabled("r1")) {
    FallibleIndex index = collect_fallible(scans);
    for (const Scanned& f : scans) {
      check_discarded_calls(f, index, findings);
      check_unchecked_access(f, index, findings);
    }
  }
  if (enabled("r2"))
    for (const Scanned& f : scans) check_determinism(f, findings);
  if (enabled("r3"))
    for (const Scanned& f : scans) check_layering(f, findings);
  if (enabled("r4")) check_dispatch(scans, options, findings);
  if (enabled("r5"))
    for (const Scanned& f : scans) check_lock_annotations(f, findings);
  if (enabled("r6"))
    for (const Scanned& f : scans) check_hot_path_allocations(f, findings);
  if (enabled("r7") || enabled("r8")) {
    std::vector<LockUnit> units;
    units.reserve(scans.size());
    for (const Scanned& f : scans) units.push_back(LockUnit{f.src, &f.lexed});
    check_locksets(units, enabled("r7"), enabled("r8"), findings);
  }
  if (enabled("r9") || enabled("r10") || enabled("r11") || enabled("r12")) {
    std::vector<CgUnit> units;
    units.reserve(scans.size());
    for (const Scanned& f : scans) units.push_back(CgUnit{f.src, &f.lexed});
    CallGraph cg = build_call_graph(units);
    if (enabled("r9") || enabled("r10"))
      check_determinism_taint(cg, units, enabled("r9"), enabled("r10"), findings);
    if (enabled("r11") || enabled("r12"))
      check_lock_order(cg, units, enabled("r11"), enabled("r12"), findings);
  }

  // Apply suppressions: an allow on the finding's line or the line above.
  // Malformed directives surface as findings of rule "allow" themselves.
  std::map<std::string, std::vector<Allow>> allow_table;
  for (const Scanned& f : scans) allow_table[f.src->rel_path] = parse_allows(f, findings);
  std::map<std::string, std::vector<bool>> allow_used;
  for (const auto& [file, allows] : allow_table)
    allow_used[file].assign(allows.size(), false);
  std::vector<Finding> kept;
  for (const Finding& finding : findings) {
    bool suppressed = false;
    auto it = allow_table.find(finding.file);
    if (it != allow_table.end() && finding.rule != "allow") {
      for (std::size_t a = 0; a < it->second.size(); ++a) {
        const Allow& allow = it->second[a];
        if (allow.rule != finding.rule && allow.rule != "all") continue;
        if (allow.line == finding.line || allow.line == finding.line - 1) {
          suppressed = true;
          allow_used[finding.file][a] = true;
        }
      }
    }
    if (!suppressed) kept.push_back(finding);
  }

  // Audit: an allow() whose rule ran but which silenced nothing is stale —
  // the code it excused was fixed or moved, and a drifting suppression would
  // silently swallow the next real finding at that line.
  if (options.audit_suppressions) {
    auto rule_enabled = [&](const std::string& rule) {
      if (rule == "all" || options.rules.empty()) return true;
      return std::find(options.rules.begin(), options.rules.end(), rule) !=
             options.rules.end();
    };
    for (const auto& [file, allows] : allow_table) {
      for (std::size_t a = 0; a < allows.size(); ++a) {
        if (allow_used[file][a] || !rule_enabled(allows[a].rule)) continue;
        kept.push_back(Finding{file, allows[a].line, "allow",
                               "stale suppression: allow(" + allows[a].rule +
                                   ") matches no current finding; remove it"});
      }
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line && a.rule == b.rule &&
                                  a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace harp::lint
