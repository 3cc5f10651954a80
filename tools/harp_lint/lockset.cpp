// r7/r8 lockset passes (see lockset.hpp for the analysis design).
#include "tools/harp_lint/lockset.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "tools/harp_lint/cfg.hpp"

namespace harp::lint {
namespace {

// ---------------------------------------------------------------------------
// Class field tables
// ---------------------------------------------------------------------------

struct ClassInfo {
  bool owns_harp_mutex = false;
  std::set<std::string> mutexes;                ///< lockable member names
  std::map<std::string, std::string> guarded;   ///< field name → guard expr
};

/// One member declaration run inside a class body, [begin, end) tokens.
struct MemberRun {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Member runs at depth 1 of a class body [body_begin, body_end). Mirrors
/// r5's scanner in lint.cpp: method bodies reset the run, initializer braces
/// keep it, access specifiers start a fresh run.
std::vector<MemberRun> member_runs(const std::vector<Token>& t, std::size_t body_begin,
                                   std::size_t body_end) {
  std::vector<MemberRun> members;
  int paren = 0;
  std::size_t run_begin = body_begin;
  for (std::size_t m = body_begin; m < body_end; ++m) {
    if (is(t[m], "(") || is(t[m], "[")) ++paren;
    if (is(t[m], ")") || is(t[m], "]")) --paren;
    if (paren > 0) continue;
    if (paren < 0) paren = 0;
    if (is(t[m], "{")) {
      bool initializer =
          m > body_begin && (is(t[m - 1], "=") || is_ident(t[m - 1]) || is(t[m - 1], ">"));
      int depth = 0;
      for (; m < body_end; ++m) {
        if (is(t[m], "{")) ++depth;
        if (is(t[m], "}") && --depth == 0) break;
      }
      if (!initializer) run_begin = m + 1;
      continue;
    }
    if ((is(t[m], "public") || is(t[m], "private") || is(t[m], "protected")) &&
        m + 1 < body_end && is(t[m + 1], ":")) {
      ++m;
      run_begin = m + 1;
      continue;
    }
    if (is(t[m], ";")) {
      if (m > run_begin) members.push_back(MemberRun{run_begin, m});
      run_begin = m + 1;
    }
  }
  return members;
}

/// Instance-variable member (not a function/type/static/friend declaration).
bool is_variable_member(const std::vector<Token>& t, const MemberRun& member) {
  static const std::set<std::string> kSkipTokens = {
      "static", "constexpr", "using",    "typedef",  "friend", "template",
      "struct", "class",     "enum",     "operator", "public", "private",
      "protected", "explicit", "virtual"};
  for (std::size_t m = member.begin; m < member.end; ++m) {
    if (kSkipTokens.count(t[m].text) != 0) return false;
    if (is_ident(t[m]) && t[m].text.rfind("HARP_", 0) == 0 && m + 1 < member.end &&
        is(t[m + 1], "(")) {
      ++m;
      int depth = 0;
      for (; m < member.end; ++m) {
        if (is(t[m], "(")) ++depth;
        if (is(t[m], ")") && --depth == 0) break;
      }
      continue;
    }
    if (is(t[m], "(")) return false;
  }
  return true;
}

/// `harp::Mutex name`, `Mutex name`, `Mutex& name`, plus the std lockables —
/// anything a HARP_GUARDED_BY argument may legitimately resolve to. Returns
/// the declared name, or "" when the run declares no lockable.
std::string lockable_member_name(const std::vector<Token>& t, const MemberRun& member,
                                 bool* is_harp_mutex) {
  for (std::size_t m = member.begin; m < member.end; ++m) {
    if (!is_ident(t[m])) continue;
    bool harp_typed = t[m].text == "Mutex";
    bool std_typed = t[m].text == "mutex" || t[m].text == "recursive_mutex" ||
                     t[m].text == "shared_mutex" || t[m].text == "timed_mutex";
    if (!harp_typed && !std_typed) continue;
    std::size_t n = m + 1;
    while (n < member.end && (is(t[n], "&") || is(t[n], "*"))) ++n;
    if (n < member.end && is_ident(t[n])) {
      if (is_harp_mutex != nullptr) *is_harp_mutex = harp_typed;
      return t[n].text;
    }
  }
  return "";
}

/// Declared name of a member run: the last identifier before any initializer
/// or HARP_ annotation.
std::string member_name(const std::vector<Token>& t, const MemberRun& member) {
  std::string name;
  for (std::size_t m = member.begin; m < member.end; ++m) {
    if (is(t[m], "=") || is(t[m], "{")) break;
    if (is_ident(t[m]) && t[m].text.rfind("HARP_", 0) == 0) break;
    if (is_ident(t[m])) name = t[m].text;
  }
  return name;
}

/// Guard expression of the first HARP_GUARDED_BY/HARP_PT_GUARDED_BY in the
/// run, normalised; "" when unannotated.
std::string guard_of(const std::vector<Token>& t, const MemberRun& member) {
  for (std::size_t m = member.begin; m + 1 < member.end; ++m) {
    if (!is_ident(t[m])) continue;
    if (t[m].text != "HARP_GUARDED_BY" && t[m].text != "HARP_PT_GUARDED_BY") continue;
    if (!is(t[m + 1], "(")) continue;
    int depth = 0;
    std::size_t close = m + 1;
    for (std::size_t j = m + 1; j < member.end; ++j) {
      if (is(t[j], "(")) ++depth;
      if (is(t[j], ")") && --depth == 0) {
        close = j;
        break;
      }
    }
    return normalize_lock_expr(t, m + 2, close);
  }
  return "";
}

/// Scan one unit's classes into `table` (merged across units by class name)
/// and emit the r8 coverage/dangling findings for the bodies it declares.
void scan_classes(const LockUnit& unit, bool enable_r8,
                  std::map<std::string, ClassInfo>& table, std::vector<Finding>& findings) {
  const std::vector<Token>& t = unit.lexed->tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is(t[i], "struct") && !is(t[i], "class")) continue;
    if (i > 0 && is(t[i - 1], "enum")) continue;
    if (!is_ident(t[i + 1])) continue;
    std::size_t j = i + 1;
    std::string name = t[j].text;
    while (j + 2 < t.size() && is(t[j + 1], "::") && is_ident(t[j + 2])) {
      j += 2;
      name = t[j].text;
    }
    std::size_t k = j + 1;
    while (k < t.size() && !is(t[k], "{") && !is(t[k], ";") && !is(t[k], "(")) ++k;
    if (k >= t.size() || !is(t[k], "{")) continue;

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

    std::vector<MemberRun> members = member_runs(t, body_begin, body_end);
    ClassInfo& info = table[name];

    // Pass 1: lockable members, so guards can be resolved below.
    for (const MemberRun& member : members) {
      if (!is_variable_member(t, member)) continue;
      bool harp_typed = false;
      std::string lockable = lockable_member_name(t, member, &harp_typed);
      if (lockable.empty()) continue;
      info.mutexes.insert(lockable);
      info.owns_harp_mutex = info.owns_harp_mutex || harp_typed;
    }

    // Pass 2: guarded fields + r8 coverage.
    for (const MemberRun& member : members) {
      if (!is_variable_member(t, member)) continue;
      if (!lockable_member_name(t, member, nullptr).empty()) continue;
      std::string guard = guard_of(t, member);
      std::string field = member_name(t, member);
      if (!guard.empty()) {
        if (!field.empty()) info.guarded[field] = guard;
        if (enable_r8 && info.mutexes.count(guard) == 0)
          findings.push_back(Finding{unit.src->rel_path, t[member.begin].line, "r8",
                                     "HARP_GUARDED_BY(" + guard + ") on '" + field +
                                         "' names no mutex member of " + name +
                                         " (dangling guard)"});
        continue;
      }
      if (!enable_r8 || !info.owns_harp_mutex) continue;
      // Principled exemptions: atomics are lock-free by design; top-level
      // const members (`const T x_`, `T* const x_`) are immutable after
      // construction. `const` inside template arguments or on a pointee does
      // not count. Everything else must be annotated or carry an explicit
      // allow(r8 ...) with a reason.
      bool exempt = false;
      for (std::size_t m = member.begin; m < member.end; ++m)
        if (is_ident(t[m]) && t[m].text == "atomic") exempt = true;
      std::size_t name_tok = member.begin;
      for (std::size_t m = member.begin; m < member.end; ++m) {
        if (is(t[m], "=") || is(t[m], "{")) break;
        if (is_ident(t[m])) name_tok = m;
      }
      if (is(t[member.begin], "const") ||
          (name_tok > member.begin && is(t[name_tok - 1], "const")))
        exempt = true;
      if (exempt) continue;
      findings.push_back(Finding{unit.src->rel_path, t[member.begin].line, "r8",
                                 "field '" + field + "' of harp::Mutex-owning " + name +
                                     " has no HARP_GUARDED_BY; annotate it or suppress with "
                                     "a reason"});
    }
  }
}

// ---------------------------------------------------------------------------
// HARP_REQUIRES contract index
// ---------------------------------------------------------------------------

/// "Class::method" → locks it requires. Collected from declarations as well
/// as definitions (headers annotate, sources define). The class is the
/// `Class::` qualifier for out-of-line signatures, else the enclosing class
/// body; free functions key as "::name".
void collect_requires(const std::vector<Token>& t,
                      std::map<std::string, std::vector<std::string>>& index) {
  std::vector<ClassOpen> class_opens = find_class_opens(t);
  std::vector<std::pair<int, std::string>> class_stack;  // (depth at open, name)
  int depth = 0;
  std::size_t next_class = 0;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is(t[i], "{")) {
      ++depth;
      while (next_class < class_opens.size() && class_opens[next_class].brace < i) ++next_class;
      if (next_class < class_opens.size() && class_opens[next_class].brace == i) {
        class_stack.emplace_back(depth, class_opens[next_class].name);
        ++next_class;
      }
      continue;
    }
    if (is(t[i], "}")) {
      if (!class_stack.empty() && class_stack.back().first == depth) class_stack.pop_back();
      if (depth > 0) --depth;
      continue;
    }
    if (!is_ident(t[i])) continue;
    if (t[i].text != "HARP_REQUIRES" && t[i].text != "HARP_REQUIRES_SHARED") continue;
    if (!is(t[i + 1], "(")) continue;
    // Walk back over earlier specifier macros to the parameter list's ")".
    std::size_t p = i;
    while (p > 0) {
      const Token& prev = t[p - 1];
      if (is(prev, ")")) break;
      if (is_ident(prev) && (prev.text == "const" || prev.text == "noexcept" ||
                             prev.text == "override" || prev.text == "final"))
        --p;
      else
        break;
    }
    if (p == 0 || !is(t[p - 1], ")")) continue;
    int depth = 0;
    std::size_t open = p - 1;
    bool balanced = false;
    for (std::size_t j = p; j-- > 0;) {
      if (is(t[j], ")")) ++depth;
      if (is(t[j], "(") && --depth == 0) {
        open = j;
        balanced = true;
        break;
      }
    }
    if (!balanced || open == 0 || !is_ident(t[open - 1])) continue;
    std::string cls;
    if (open >= 3 && is(t[open - 2], "::") && is_ident(t[open - 3]))
      cls = t[open - 3].text;  // out-of-line `Class::method(...)`
    else if (!class_stack.empty())
      cls = class_stack.back().second;
    std::string fn = cls + "::" + t[open - 1].text;

    int adepth = 0;
    std::size_t aclose = i + 1;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (is(t[j], "(")) ++adepth;
      if (is(t[j], ")") && --adepth == 0) {
        aclose = j;
        break;
      }
    }
    std::vector<std::string>& locks = index[fn];
    std::size_t arg_begin = i + 2;
    int d = 0;
    for (std::size_t a = i + 2; a <= aclose; ++a) {
      bool top_comma = d == 0 && is(t[a], ",");
      if (is(t[a], "(") || is(t[a], "[")) ++d;
      if (is(t[a], ")") || is(t[a], "]")) --d;
      if (top_comma || a == aclose) {
        if (a > arg_begin) {
          std::string expr = normalize_lock_expr(t, arg_begin, a);
          if (!expr.empty() && std::find(locks.begin(), locks.end(), expr) == locks.end())
            locks.push_back(expr);
        }
        arg_begin = a + 1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// r7 dataflow
// ---------------------------------------------------------------------------

/// TOP (unreachable: every lock held) or an explicit held set.
struct Lockset {
  bool top = true;
  std::set<std::string> held;
};

bool operator==(const Lockset& a, const Lockset& b) {
  return a.top == b.top && a.held == b.held;
}

Lockset meet(const Lockset& a, const Lockset& b) {
  if (a.top) return b;
  if (b.top) return a;
  Lockset out;
  out.top = false;
  std::set_intersection(a.held.begin(), a.held.end(), b.held.begin(), b.held.end(),
                        std::inserter(out.held, out.held.begin()));
  return out;
}

void add_locks(Lockset& ls, const std::string& comma_joined) {
  std::size_t begin = 0;
  while (begin <= comma_joined.size()) {
    std::size_t comma = comma_joined.find(',', begin);
    std::string one = comma_joined.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!one.empty()) ls.held.insert(one);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
}

/// Apply one statement's lock effects: RAII acquire/release from the CFG
/// builder plus explicit `expr.lock()` / `expr.unlock()` calls.
void transfer(const std::vector<Token>& t, const CfgStmt& s, Lockset& ls) {
  if (ls.top) return;
  if (!s.acquire.empty()) add_locks(ls, s.acquire);
  if (!s.release.empty()) ls.held.erase(s.release);
  for (std::size_t i = s.begin; i < s.end; ++i) {
    if (!is_ident(t[i])) continue;
    bool locks = t[i].text == "lock";
    bool unlocks = t[i].text == "unlock";
    if (!locks && !unlocks) continue;
    if (i <= s.begin || (!is(t[i - 1], ".") && !is(t[i - 1], "->"))) continue;
    if (i + 1 >= s.end || !is(t[i + 1], "(")) continue;
    std::size_t start = i - 1;  // walk back over the base expression chain
    while (start > s.begin) {
      const Token& prev = t[start - 1];
      if (is_ident(prev) || is(prev, "::") || is(prev, ".") || is(prev, "->"))
        --start;
      else
        break;
    }
    std::string base = normalize_lock_expr(t, start, i - 1);
    if (base.empty()) continue;
    if (locks)
      ls.held.insert(base);
    else
      ls.held.erase(base);
  }
}

/// Guarded-field and HARP_REQUIRES-callee checks for one statement, against
/// the lockset in force at its start.
void check_stmt(const LockUnit& unit, const std::vector<Token>& t, const CfgStmt& s,
                const Lockset& ls, const ClassInfo* cls, const std::string& class_name,
                const std::map<std::string, std::vector<std::string>>& requires_index,
                std::vector<Finding>& findings) {
  if (ls.top || !s.release.empty()) return;
  for (std::size_t i = s.begin; i < s.end; ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& name = t[i].text;
    bool self_access = true;
    if (i > s.begin && (is(t[i - 1], ".") || is(t[i - 1], "->")))
      self_access = i >= s.begin + 2 && is_ident(t[i - 2]) && t[i - 2].text == "this";
    if (i > s.begin && is(t[i - 1], "::")) self_access = false;

    if (cls != nullptr && self_access) {
      auto guard = cls->guarded.find(name);
      if (guard != cls->guarded.end() && ls.held.count(guard->second) == 0) {
        findings.push_back(Finding{unit.src->rel_path, t[i].line, "r7",
                                   "'" + name + "' is HARP_GUARDED_BY(" + guard->second +
                                       ") but is accessed on a path where '" + guard->second +
                                       "' is not held"});
        continue;
      }
    }
    if (self_access && i + 1 < s.end && is(t[i + 1], "(")) {
      auto contract = requires_index.find(class_name + "::" + name);
      if (contract != requires_index.end()) {
        for (const std::string& lock : contract->second) {
          if (ls.held.count(lock) != 0) continue;
          findings.push_back(Finding{unit.src->rel_path, t[i].line, "r7",
                                     "call to '" + name + "()' (HARP_REQUIRES(" + lock +
                                         ")) on a path where '" + lock + "' is not held"});
        }
      }
    }
  }
}

void analyze_functions(const LockUnit& unit, const std::map<std::string, ClassInfo>& table,
                       const std::map<std::string, std::vector<std::string>>& requires_index,
                       std::vector<Finding>& findings) {
  const std::vector<Token>& t = unit.lexed->tokens;
  for (const FunctionDef& def : extract_functions(t)) {
    if (def.no_thread_safety_analysis) continue;
    // Constructors/destructors run before/after the object is shared:
    // classic Eraser exclusive phase, no locking required.
    if (def.is_ctor_or_dtor) continue;
    auto cls_it = table.find(def.class_name);
    const ClassInfo* cls = cls_it == table.end() ? nullptr : &cls_it->second;
    if (cls != nullptr && cls->guarded.empty()) cls = nullptr;

    Cfg cfg = build_cfg(t, def.body_begin, def.body_end);
    std::size_t n = cfg.blocks.size();

    std::vector<std::vector<int>> preds(n);
    for (std::size_t b = 0; b < n; ++b)
      for (int s : cfg.blocks[b].succ) preds[static_cast<std::size_t>(s)].push_back((int)b);

    std::vector<Lockset> in(n), out(n);
    in[0].top = false;
    for (const std::string& lock : def.requires_locks) in[0].held.insert(lock);
    // Out-of-line definitions carry their HARP_REQUIRES on the header
    // declaration only; the global contract index fills that in.
    auto declared = requires_index.find(def.class_name + "::" + def.name);
    if (declared != requires_index.end())
      for (const std::string& lock : declared->second) in[0].held.insert(lock);
    bool changed = true;
    std::size_t rounds = 0;
    while (changed && rounds++ < n + 2) {
      changed = false;
      for (std::size_t b = 0; b < n; ++b) {
        if (b != 0) {
          Lockset merged;  // TOP when no predecessors (unreachable)
          for (int p : preds[b]) merged = meet(merged, out[static_cast<std::size_t>(p)]);
          if (!(merged == in[b])) {
            in[b] = merged;
            changed = true;
          }
        }
        Lockset flow = in[b];
        for (const CfgStmt& s : cfg.blocks[b].stmts) transfer(t, s, flow);
        if (!(flow == out[b])) {
          out[b] = flow;
          changed = true;
        }
      }
    }

    for (std::size_t b = 0; b < n; ++b) {
      Lockset flow = in[b];
      for (const CfgStmt& s : cfg.blocks[b].stmts) {
        check_stmt(unit, t, s, flow, cls, def.class_name, requires_index, findings);
        transfer(t, s, flow);
      }
    }
  }
}

}  // namespace

std::map<std::string, std::set<std::string>> collect_mutex_members(
    const std::vector<LockUnit>& units) {
  std::map<std::string, std::set<std::string>> table;
  for (const LockUnit& unit : units) {
    const std::vector<Token>& t = unit.lexed->tokens;
    for (const ClassOpen& open : find_class_opens(t)) {
      int depth = 0;
      std::size_t body_begin = open.brace + 1, body_end = open.brace;
      for (std::size_t m = open.brace; m < t.size(); ++m) {
        if (is(t[m], "{")) ++depth;
        if (is(t[m], "}") && --depth == 0) {
          body_end = m;
          break;
        }
      }
      if (body_end <= body_begin) continue;
      for (const MemberRun& member : member_runs(t, body_begin, body_end)) {
        if (!is_variable_member(t, member)) continue;
        std::string lockable = lockable_member_name(t, member, nullptr);
        if (!lockable.empty()) table[open.name].insert(lockable);
      }
    }
  }
  return table;
}

std::map<std::string, std::vector<std::string>> collect_requires_index(
    const std::vector<LockUnit>& units) {
  std::map<std::string, std::vector<std::string>> index;
  for (const LockUnit& unit : units) collect_requires(unit.lexed->tokens, index);
  return index;
}

void check_locksets(const std::vector<LockUnit>& units, bool enable_r7, bool enable_r8,
                    std::vector<Finding>& findings) {
  std::map<std::string, ClassInfo> table;
  std::map<std::string, std::vector<std::string>> requires_index;
  for (const LockUnit& unit : units) {
    scan_classes(unit, enable_r8, table, findings);
    collect_requires(unit.lexed->tokens, requires_index);
  }
  if (!enable_r7) return;
  for (const LockUnit& unit : units) analyze_functions(unit, table, requires_index, findings);
}

}  // namespace harp::lint
