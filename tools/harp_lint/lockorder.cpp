// r11/r12 interprocedural deadlock passes (see lockorder.hpp for the design).
#include "tools/harp_lint/lockorder.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "tools/harp_lint/cfg.hpp"
#include "tools/harp_lint/lockset.hpp"

namespace harp::lint {
namespace {

bool identifier_shaped(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  return !std::isdigit(static_cast<unsigned char>(s[0]));
}

// ---------------------------------------------------------------------------
// Mutex identity resolution
// ---------------------------------------------------------------------------

/// Resolves normalised lock expressions to `Class::member` identities through
/// the whole-tree mutex-member table (lockset.hpp).
struct IdentityTable {
  std::map<std::string, std::set<std::string>> members;   ///< class → members
  std::map<std::string, std::vector<std::string>> owners;  ///< member → classes

  explicit IdentityTable(std::map<std::string, std::set<std::string>> table)
      : members(std::move(table)) {
    for (const auto& [cls, names] : members)
      for (const std::string& name : names) owners[name].push_back(cls);
  }

  std::string resolve(const std::string& expr, const std::string& enclosing_class) const {
    // Bare member of the enclosing class (`mutex_`, `this->` already
    // stripped by normalisation).
    if (identifier_shaped(expr)) {
      auto cls = members.find(enclosing_class);
      if (cls != members.end() && cls->second.count(expr) != 0)
        return enclosing_class + "::" + expr;
      return expr;
    }
    // `obj->field` / `obj.field`: the trailing member, resolved when exactly
    // one scanned class declares a lockable member of that name — the same
    // unique-bare-name pragmatism the call graph applies to member calls.
    std::size_t arrow = expr.rfind("->");
    std::size_t dot = expr.rfind('.');
    std::size_t cut = std::string::npos;
    std::size_t skip = 0;
    if (arrow != std::string::npos && (dot == std::string::npos || arrow > dot)) {
      cut = arrow;
      skip = 2;
    } else if (dot != std::string::npos) {
      cut = dot;
      skip = 1;
    }
    if (cut != std::string::npos) {
      std::string field = expr.substr(cut + skip);
      if (identifier_shaped(field)) {
        auto owner = owners.find(field);
        if (owner != owners.end() && owner->second.size() == 1)
          return owner->second.front() + "::" + field;
      }
    }
    return expr;
  }
};

// ---------------------------------------------------------------------------
// Lockset dataflow (mirrors lockset.cpp's r7 lattice)
// ---------------------------------------------------------------------------

/// TOP (unreachable: every lock held) or an explicit held set of normalised
/// lock expressions (identities are resolved only at the graph boundary, so
/// `unlock()` by spelling keeps working).
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

std::vector<std::string> split_locks(const std::string& comma_joined) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= comma_joined.size()) {
    std::size_t comma = comma_joined.find(',', begin);
    std::string one = comma_joined.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!one.empty()) out.push_back(one);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// Explicit `base.lock()` / `base.unlock()` inside a statement's token range:
/// the normalised base expression, or "" when token i is neither.
std::string explicit_lock_base(const std::vector<Token>& t, const CfgStmt& s, std::size_t i,
                               bool* locks) {
  if (!is_ident(t[i])) return "";
  bool lock_call = t[i].text == "lock";
  bool unlock_call = t[i].text == "unlock";
  if (!lock_call && !unlock_call) return "";
  if (i <= s.begin || (!is(t[i - 1], ".") && !is(t[i - 1], "->"))) return "";
  if (i + 1 >= s.end || !is(t[i + 1], "(")) return "";
  std::size_t start = i - 1;
  while (start > s.begin) {
    const Token& prev = t[start - 1];
    if (is_ident(prev) || is(prev, "::") || is(prev, ".") || is(prev, "->"))
      --start;
    else
      break;
  }
  std::string base = normalize_lock_expr(t, start, i - 1);
  if (locks != nullptr) *locks = lock_call;
  return base;
}

/// Lockset effect of one statement, acquisitions first (matching the order
/// the per-statement walk records edges in).
void transfer(const std::vector<Token>& t, const CfgStmt& s, Lockset& ls) {
  if (ls.top) return;
  if (!s.acquire.empty())
    for (const std::string& one : split_locks(s.acquire)) ls.held.insert(one);
  if (!s.release.empty()) ls.held.erase(s.release);
  for (std::size_t i = s.begin; i < s.end; ++i) {
    bool locks = false;
    std::string base = explicit_lock_base(t, s, i, &locks);
    if (base.empty()) continue;
    if (locks)
      ls.held.insert(base);
    else
      ls.held.erase(base);
  }
}

// ---------------------------------------------------------------------------
// Per-function analysis
// ---------------------------------------------------------------------------

struct Witness {
  std::string file;
  int line = 1;
};

/// One call site made while locks were held: the resolved held identities and
/// every call-graph callee the statement's call tokens resolve to.
struct CallUnderLock {
  std::vector<std::string> held;
  std::vector<int> callees;
};

struct FnAnalysis {
  std::map<std::string, Witness> direct;  ///< identity → first acquisition site
  std::vector<CallUnderLock> calls;
};

const std::set<std::string>& sleep_like() {
  static const std::set<std::string> kNames = {"sleep_for", "sleep_until", "usleep",
                                               "nanosleep", "sleep"};
  return kNames;
}

const std::set<std::string>& wait_syscalls() {
  static const std::set<std::string> kNames = {"epoll_wait", "select", "pselect", "ppoll"};
  return kNames;
}

const std::set<std::string>& transport_calls() {
  static const std::set<std::string> kNames = {"send", "recv",    "sendmsg", "recvmsg",
                                               "poll", "accept",  "connect"};
  return kNames;
}

/// `Type name(...)` declaration runs: preceded by an identifier that is not
/// an expression keyword (same heuristic the call graph uses).
bool declaration_like(const std::vector<Token>& t, std::size_t i, std::size_t begin) {
  if (i <= begin || !is_ident(t[i - 1])) return false;
  static const std::set<std::string> kExprKeywords = {
      "return", "co_return", "co_await", "throw", "case", "else", "do", "not"};
  return kExprKeywords.count(t[i - 1].text) == 0;
}

/// "'A' is held" / "'A', 'B' are held" for r12 messages.
std::string held_clause(const std::vector<std::string>& held) {
  std::string joined;
  for (const std::string& h : held) joined += (joined.empty() ? "'" : ", '") + h + "'";
  return joined + (held.size() == 1 ? " is held" : " are held");
}

/// Waited-mutex resolution for `lk` in `cv.wait(lk, ...)`: backward scan for
/// the `unique_lock<...> lk(expr)` declaration inside the same body.
std::string waited_mutex_of(const std::vector<Token>& t, std::size_t body_begin,
                            std::size_t use, const std::string& var) {
  for (std::size_t i = use; i-- > body_begin + 1;) {
    if (!is_ident(t[i]) || t[i].text != var) continue;
    // `unique_lock < ... > var ( expr )` — walk back over the template args.
    std::size_t p = i;
    if (p > body_begin && is(t[p - 1], ">")) {
      int depth = 0;
      for (std::size_t j = p; j-- > body_begin;) {
        if (is(t[j], ">")) ++depth;
        if (is(t[j], "<") && --depth == 0) {
          p = j;
          break;
        }
      }
    }
    if (p <= body_begin || !is_ident(t[p - 1]) || t[p - 1].text != "unique_lock") continue;
    if (i + 1 >= t.size() || (!is(t[i + 1], "(") && !is(t[i + 1], "{"))) continue;
    std::size_t close = i + 1;
    int depth = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (is(t[j], "(") || is(t[j], "{")) ++depth;
      if ((is(t[j], ")") || is(t[j], "}")) && --depth == 0) {
        close = j;
        break;
      }
    }
    return normalize_lock_expr(t, i + 2, close);
  }
  return "";
}

struct PassContext {
  const CallGraph& cg;
  const std::vector<CgUnit>& units;
  IdentityTable identities;
  std::map<std::string, std::vector<std::string>> requires_index;
  bool enable_r12 = false;
  std::vector<Finding>* findings = nullptr;

  /// Global order graph, first witness per (from, to) pair.
  std::map<std::pair<std::string, std::string>, Witness> edges;
  std::vector<FnAnalysis> fns;
};

/// r12 checks for one statement against the lockset in force at its start.
void check_blocking(PassContext& ctx, const CgUnit& unit, const std::vector<Token>& t,
                    const FunctionDef& def, const CfgStmt& s,
                    const std::vector<std::string>& held_ids,
                    const std::set<std::string>& held_exprs,
                    const std::string& enclosing_class) {
  for (std::size_t i = s.begin; i < s.end; ++i) {
    if (!is_ident(t[i])) continue;
    if (i + 1 >= s.end || !is(t[i + 1], "(")) continue;
    const std::string& name = t[i].text;
    bool member = i > s.begin && (is(t[i - 1], ".") || is(t[i - 1], "->"));

    if (sleep_like().count(name) != 0 || wait_syscalls().count(name) != 0) {
      ctx.findings->push_back(
          Finding{unit.src->rel_path, t[i].line, "r12",
                  "blocking call '" + name + "()' while " + held_clause(held_ids) +
                      "; move it outside the critical section or suppress with a reason"});
      continue;
    }
    if (transport_calls().count(name) != 0) {
      if (!member && declaration_like(t, i, s.begin)) continue;
      ctx.findings->push_back(
          Finding{unit.src->rel_path, t[i].line, "r12",
                  "potentially blocking transport call '" + name + "()' while " +
                      held_clause(held_ids) +
                      "; all I/O under a lock must be nonblocking — move it outside the "
                      "critical section or suppress with a reason"});
      continue;
    }
    if ((name == "wait" || name == "wait_for" || name == "wait_until") && member) {
      // `cv.wait(lk, ...)`: the wait releases only lk's mutex. Flag when any
      // OTHER lock stays held across the wait. An unresolvable first
      // argument is assumed to be the sole held lock (no finding) unless
      // two or more are held — then the wait provably keeps one.
      std::string waited;
      if (i + 2 < s.end && is_ident(t[i + 2])) {
        std::string lock_var = t[i + 2].text;
        std::string expr = waited_mutex_of(t, def.body_begin, s.begin, lock_var);
        if (!expr.empty()) waited = expr;
      }
      std::vector<std::string> others;
      for (const std::string& expr : held_exprs)
        if (expr != waited)
          others.push_back(ctx.identities.resolve(expr, enclosing_class));
      std::sort(others.begin(), others.end());
      others.erase(std::unique(others.begin(), others.end()), others.end());
      bool resolved = !waited.empty() && held_exprs.count(waited) != 0;
      if ((resolved && !others.empty()) || (!resolved && held_exprs.size() >= 2)) {
        ctx.findings->push_back(
            Finding{unit.src->rel_path, t[i].line, "r12",
                    "condition-variable wait while " + held_clause(others) +
                        "; the wait releases only its own mutex — restructure or suppress "
                        "with a reason"});
      }
      continue;
    }
  }
}

void analyze_function(PassContext& ctx, int node_id, const FunctionDef& def) {
  const CgNode& node = ctx.cg.nodes[static_cast<std::size_t>(node_id)];
  const CgUnit& unit = ctx.units[static_cast<std::size_t>(node.unit)];
  const std::vector<Token>& t = unit.lexed->tokens;
  FnAnalysis& fn = ctx.fns[static_cast<std::size_t>(node_id)];

  // Callee-name index for this body: the call graph already resolved the
  // callees; matching by name at each statement recovers every call site
  // (node.calls keeps only the first site per callee).
  std::map<std::string, std::vector<int>> callee_names;
  for (const CallSite& call : node.calls)
    callee_names[ctx.cg.nodes[static_cast<std::size_t>(call.callee)].name].push_back(
        call.callee);

  Cfg cfg = build_cfg(t, def.body_begin, def.body_end);
  std::size_t n = cfg.blocks.size();
  std::vector<std::vector<int>> preds(n);
  for (std::size_t b = 0; b < n; ++b)
    for (int s : cfg.blocks[b].succ) preds[static_cast<std::size_t>(s)].push_back((int)b);

  std::vector<Lockset> in(n), out(n);
  in[0].top = false;
  for (const std::string& lock : def.requires_locks) in[0].held.insert(lock);
  auto declared = ctx.requires_index.find(def.class_name + "::" + def.name);
  if (declared != ctx.requires_index.end())
    for (const std::string& lock : declared->second) in[0].held.insert(lock);

  bool changed = true;
  std::size_t rounds = 0;
  while (changed && rounds++ < n + 2) {
    changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (b != 0) {
        Lockset merged;
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

  auto record_acquire = [&](const Lockset& held, const std::string& expr, int line) {
    std::string to = ctx.identities.resolve(expr, def.class_name);
    Witness site{unit.src->rel_path, line};
    fn.direct.emplace(to, site);
    for (const std::string& h : held.held) {
      std::string from = ctx.identities.resolve(h, def.class_name);
      ctx.edges.emplace(std::make_pair(from, to), site);
    }
  };

  for (std::size_t b = 0; b < n; ++b) {
    Lockset flow = in[b];
    for (const CfgStmt& s : cfg.blocks[b].stmts) {
      if (flow.top) {
        transfer(t, s, flow);
        continue;
      }
      if (!s.release.empty()) {
        flow.held.erase(s.release);
        continue;
      }
      // Checks and call-site collection run against the lockset at statement
      // start, like r7's check_stmt.
      if (!flow.held.empty()) {
        std::vector<std::string> held_ids;
        for (const std::string& h : flow.held)
          held_ids.push_back(ctx.identities.resolve(h, def.class_name));
        std::sort(held_ids.begin(), held_ids.end());
        held_ids.erase(std::unique(held_ids.begin(), held_ids.end()), held_ids.end());

        if (ctx.enable_r12)
          check_blocking(ctx, unit, t, def, s, held_ids, flow.held, def.class_name);

        CallUnderLock rec;
        rec.held = held_ids;
        for (std::size_t i = s.begin; i < s.end; ++i) {
          if (!is_ident(t[i]) || i + 1 >= s.end || !is(t[i + 1], "(")) continue;
          // Never follow call tokens named lock/unlock: `x.lock()` is already
          // modelled as a lock operation by the walk below, and a guard
          // declaration `lock_guard<std::mutex> lock(m)` lexes exactly like a
          // call to a function named `lock` (the `>` before the name defeats
          // the declaration heuristic), which would pull Mutex::lock's own
          // `mutex_` acquisition into unrelated functions.
          if (t[i].text == "lock" || t[i].text == "unlock") continue;
          auto callees = callee_names.find(t[i].text);
          if (callees == callee_names.end()) continue;
          bool member = i > s.begin && (is(t[i - 1], ".") || is(t[i - 1], "->") ||
                                        is(t[i - 1], "::"));
          if (!member && declaration_like(t, i, s.begin)) continue;
          for (int callee : callees->second) rec.callees.push_back(callee);
        }
        if (!rec.callees.empty()) {
          std::sort(rec.callees.begin(), rec.callees.end());
          rec.callees.erase(std::unique(rec.callees.begin(), rec.callees.end()),
                            rec.callees.end());
          fn.calls.push_back(std::move(rec));
        }
      }
      // Acquisitions, incrementally: each sees the locks already held.
      if (!s.acquire.empty()) {
        for (const std::string& one : split_locks(s.acquire)) {
          record_acquire(flow, one, t[s.begin].line);
          flow.held.insert(one);
        }
      }
      for (std::size_t i = s.begin; i < s.end; ++i) {
        bool locks = false;
        std::string base = explicit_lock_base(t, s, i, &locks);
        if (base.empty()) continue;
        if (locks) {
          record_acquire(flow, base, t[i].line);
          flow.held.insert(base);
        } else {
          flow.held.erase(base);
        }
      }
    }
  }
}

/// Transitive may-acquire summaries: callee acquisitions propagate to every
/// caller over the call graph, first witness per identity preserved, to a
/// fixpoint (same worklist shape as the r9 taint propagation).
std::vector<std::map<std::string, Witness>> propagate_summaries(PassContext& ctx) {
  std::size_t n = ctx.cg.nodes.size();
  std::vector<std::map<std::string, Witness>> summary(n);
  for (std::size_t i = 0; i < n; ++i) summary[i] = ctx.fns[i].direct;

  std::deque<int> worklist;
  std::vector<char> queued(n, 1);
  for (std::size_t i = 0; i < n; ++i) worklist.push_back(static_cast<int>(i));
  while (!worklist.empty()) {
    int at = worklist.front();
    worklist.pop_front();
    queued[static_cast<std::size_t>(at)] = 0;
    // Summaries of lock()/unlock() wrappers never flow to callers: most
    // "call sites" of those names are guard declarations or lock operations
    // the lockset walk already models (see the call-collection filter).
    const std::string& name = ctx.cg.nodes[static_cast<std::size_t>(at)].name;
    if (name == "lock" || name == "unlock") continue;
    for (int caller : ctx.cg.callers[static_cast<std::size_t>(at)]) {
      auto& dest = summary[static_cast<std::size_t>(caller)];
      bool grew = false;
      for (const auto& [id, wit] : summary[static_cast<std::size_t>(at)])
        grew = dest.emplace(id, wit).second || grew;
      if (grew && queued[static_cast<std::size_t>(caller)] == 0) {
        queued[static_cast<std::size_t>(caller)] = 1;
        worklist.push_back(caller);
      }
    }
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------------

struct Graph {
  std::vector<std::string> nodes;                   ///< sorted identities
  std::map<std::string, int> index;
  std::vector<std::vector<int>> succ;               ///< sorted adjacency
  std::map<std::pair<int, int>, Witness> witness;
};

Graph index_graph(const LockOrderGraph& graph) {
  Graph g;
  std::set<std::string> names;
  for (const OrderEdge& e : graph.edges) {
    names.insert(e.from);
    names.insert(e.to);
  }
  g.nodes.assign(names.begin(), names.end());
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    g.index[g.nodes[i]] = static_cast<int>(i);
  g.succ.assign(g.nodes.size(), {});
  for (const OrderEdge& e : graph.edges) {
    int a = g.index[e.from], b = g.index[e.to];
    g.succ[static_cast<std::size_t>(a)].push_back(b);
    g.witness[{a, b}] = Witness{e.file, e.line};
  }
  for (auto& adj : g.succ) std::sort(adj.begin(), adj.end());
  return g;
}

/// Iterative Tarjan SCC; component ids are remapped so iteration over them in
/// ascending order visits components by their smallest member identity.
std::vector<std::vector<int>> strongly_connected(const Graph& g) {
  std::size_t n = g.nodes.size();
  std::vector<int> low(n, -1), num(n, -1);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int counter = 0;
  std::vector<std::vector<int>> comps;

  struct Frame {
    int v;
    std::size_t next;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (num[root] != -1) continue;
    std::vector<Frame> frames{{static_cast<int>(root), 0}};
    num[root] = low[root] = counter++;
    stack.push_back(static_cast<int>(root));
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      std::size_t v = static_cast<std::size_t>(f.v);
      if (f.next < g.succ[v].size()) {
        int w = g.succ[v][f.next++];
        std::size_t wu = static_cast<std::size_t>(w);
        if (num[wu] == -1) {
          num[wu] = low[wu] = counter++;
          stack.push_back(w);
          on_stack[wu] = 1;
          frames.push_back(Frame{w, 0});
        } else if (on_stack[wu] != 0) {
          low[v] = std::min(low[v], num[wu]);
        }
        continue;
      }
      if (low[v] == num[v]) {
        std::vector<int> members;
        while (true) {
          int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          members.push_back(w);
          if (w == f.v) break;
        }
        std::sort(members.begin(), members.end());
        comps.push_back(std::move(members));
      }
      int finished = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        std::size_t p = static_cast<std::size_t>(frames.back().v);
        low[p] = std::min(low[p], low[static_cast<std::size_t>(finished)]);
      }
    }
  }
  std::sort(comps.begin(), comps.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  return comps;
}

/// The shared walk behind both entry points: per-function analysis (r12
/// findings when enabled), summary propagation, intra- plus interprocedural
/// edge collection.
LockOrderGraph run_pass(const CallGraph& cg, const std::vector<CgUnit>& units,
                        bool enable_r12, std::vector<Finding>& findings) {
  std::vector<LockUnit> lock_units;
  lock_units.reserve(units.size());
  for (const CgUnit& u : units) lock_units.push_back(LockUnit{u.src, u.lexed});

  PassContext ctx{cg, units, IdentityTable(collect_mutex_members(lock_units)),
                  collect_requires_index(lock_units), false, nullptr, {}, {}};
  ctx.enable_r12 = enable_r12;
  ctx.findings = &findings;
  ctx.fns.assign(cg.nodes.size(), FnAnalysis{});

  // Walk every definition in node-id order (extract_functions enumerates the
  // same definitions, in the same order, the call graph indexed).
  int node_id = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const FunctionDef& def : extract_functions(units[u].lexed->tokens)) {
      int id = node_id++;
      if (def.no_thread_safety_analysis || def.is_ctor_or_dtor) continue;
      analyze_function(ctx, id, def);
    }
  }

  std::vector<std::map<std::string, Witness>> summary = propagate_summaries(ctx);
  for (std::size_t f = 0; f < ctx.fns.size(); ++f) {
    for (const CallUnderLock& rec : ctx.fns[f].calls) {
      for (int callee : rec.callees) {
        for (const auto& [to, wit] : summary[static_cast<std::size_t>(callee)]) {
          for (const std::string& from : rec.held)
            ctx.edges.emplace(std::make_pair(from, to), wit);
        }
      }
    }
  }

  LockOrderGraph graph;
  graph.edges.reserve(ctx.edges.size());
  for (const auto& [key, wit] : ctx.edges)
    graph.edges.push_back(OrderEdge{key.first, key.second, wit.file, wit.line});
  return graph;
}

}  // namespace

LockOrderGraph build_lock_order_graph(const CallGraph& cg, const std::vector<CgUnit>& units) {
  std::vector<Finding> ignored;
  return run_pass(cg, units, false, ignored);
}

std::vector<std::vector<CycleHop>> enumerate_cycles(const LockOrderGraph& graph) {
  Graph g = index_graph(graph);
  std::vector<std::vector<CycleHop>> cycles;
  for (const std::vector<int>& comp : strongly_connected(g)) {
    int start = comp.front();
    std::set<int> in_comp(comp.begin(), comp.end());
    bool self_loop = g.witness.count({start, start}) != 0;
    if (comp.size() == 1 && !self_loop) continue;

    // Shortest deterministic walk start → ... → start inside the component
    // (BFS, sorted successors). A self-loop is its own shortest cycle.
    std::vector<int> seq;
    if (self_loop) {
      seq = {start, start};
    } else {
      std::map<int, int> parent;
      std::deque<int> queue{start};
      std::set<int> visited{start};
      int closing = -1;
      while (!queue.empty() && closing == -1) {
        int v = queue.front();
        queue.pop_front();
        for (int w : g.succ[static_cast<std::size_t>(v)]) {
          if (in_comp.count(w) == 0) continue;
          if (w == start) {
            closing = v;
            break;
          }
          if (visited.insert(w).second) {
            parent[w] = v;
            queue.push_back(w);
          }
        }
      }
      if (closing == -1) continue;  // single node, no self-loop (handled above)
      std::vector<int> back{closing};
      while (back.back() != start) back.push_back(parent[back.back()]);
      seq.assign(back.rbegin(), back.rend());
      seq.push_back(start);
    }

    std::vector<CycleHop> hops;
    hops.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      // Each hop is annotated with the site where its mutex is acquired
      // while the PREVIOUS hop's mutex is held; the opening hop uses the
      // closing edge (last → first), so first and last hops read alike.
      int prev = seq[i == 0 ? seq.size() - 2 : i - 1];
      const Witness& wit = g.witness.at({prev, seq[i]});
      hops.push_back(
          CycleHop{g.nodes[static_cast<std::size_t>(seq[i])], wit.file, wit.line});
    }
    cycles.push_back(std::move(hops));
  }
  return cycles;
}

void check_lock_order(const CallGraph& cg, const std::vector<CgUnit>& units, bool enable_r11,
                      bool enable_r12, std::vector<Finding>& findings) {
  LockOrderGraph graph = run_pass(cg, units, enable_r12, findings);
  if (!enable_r11) return;

  for (std::vector<CycleHop>& hops : enumerate_cycles(graph)) {
    std::string rendered;
    for (const CycleHop& hop : hops) {
      if (!rendered.empty()) rendered += " -> ";
      rendered += hop.mutex + " @ " + hop.file + ":" + std::to_string(hop.line);
    }
    std::string message =
        hops.size() == 2 && hops.front().mutex == hops.back().mutex
            ? "self-deadlock: " + rendered +
                  " acquires a lock already held on the same path; harp locks are "
                  "non-recursive"
            : "lock-order cycle: " + rendered +
                  "; impose one canonical acquisition order (see DESIGN.md \"Deadlock "
                  "detection\") or suppress with a reason";
    Finding finding{hops.front().file, hops.front().line, "r11", std::move(message)};
    for (const CycleHop& hop : hops)
      finding.path.push_back(hop.mutex + " @ " + hop.file + ":" + std::to_string(hop.line));
    finding.cycle = std::move(hops);
    findings.push_back(std::move(finding));
  }
}

}  // namespace harp::lint
