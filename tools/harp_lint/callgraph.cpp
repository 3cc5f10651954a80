// Call-graph construction (see callgraph.hpp for the resolution contract).
#include "tools/harp_lint/callgraph.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "tools/harp_lint/cfg.hpp"

namespace harp::lint {
namespace {

/// Identifiers that look like calls (`name (`) but are language constructs.
bool is_not_a_call(const std::string& name) {
  static const std::set<std::string> kNotCalls = {
      "if",       "while",    "for",      "switch",       "catch",   "sizeof",
      "alignof",  "typeid",   "decltype", "noexcept",     "return",  "new",
      "delete",   "co_await", "co_yield", "static_assert", "assert", "defined",
      "alignas",  "throw",    "operator"};
  return kNotCalls.count(name) != 0;
}

/// Keywords after which `name(...)` is still an expression, not a
/// declaration (`return helper()` vs `Status helper()`).
bool expression_keyword(const std::string& name) {
  static const std::set<std::string> kExpr = {"return",   "co_return", "co_await",
                                              "co_yield", "throw",     "case",
                                              "else",     "do",        "not"};
  return kExpr.count(name) != 0;
}

}  // namespace

std::string qualified_name(const CgNode& node) {
  return node.class_name.empty() ? node.name : node.class_name + "::" + node.name;
}

CallGraph build_call_graph(const std::vector<CgUnit>& units) {
  CallGraph cg;

  // Pass 1: index every definition. Keys are "Class::name" for methods and
  // "::name" for free functions; `bare` remembers which keys a plain name
  // may refer to (for the one-hop member-call resolution).
  std::map<std::string, std::vector<int>> exact;
  std::map<std::string, std::set<std::string>> bare;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const FunctionDef& def : extract_functions(units[u].lexed->tokens)) {
      CgNode node;
      node.unit = static_cast<int>(u);
      node.class_name = def.class_name;
      node.name = def.name;
      node.line = def.line;
      node.body_begin = def.body_begin;
      node.body_end = def.body_end;
      int id = static_cast<int>(cg.nodes.size());
      cg.nodes.push_back(std::move(node));
      std::string key = (def.class_name.empty() ? "" : def.class_name) + "::" + def.name;
      exact[key].push_back(id);
      bare[def.name].insert(key);
    }
  }

  // Resolve an exact key from a caller's unit: same-file definitions win,
  // otherwise every definition of that name (over-approximation).
  auto resolve_key = [&](const std::string& key, int unit) -> std::vector<int> {
    auto it = exact.find(key);
    if (it == exact.end()) return {};
    std::vector<int> same_unit;
    for (int id : it->second)
      if (cg.nodes[static_cast<std::size_t>(id)].unit == unit) same_unit.push_back(id);
    return same_unit.empty() ? it->second : same_unit;
  };

  // Pass 2: call sites. Iterating by node id keeps everything deterministic.
  for (std::size_t n = 0; n < cg.nodes.size(); ++n) {
    CgNode& node = cg.nodes[n];
    const std::vector<Token>& t = units[static_cast<std::size_t>(node.unit)].lexed->tokens;
    std::set<int> seen;  // dedupe edges; first call site wins
    for (std::size_t i = node.body_begin; i + 1 < node.body_end; ++i) {
      if (!is_ident(t[i]) || !is(t[i + 1], "(")) continue;
      const std::string& name = t[i].text;
      if (is_not_a_call(name)) continue;

      std::vector<int> targets;
      if (i >= 2 && is(t[i - 1], "::") && is_ident(t[i - 2])) {
        // Qualified: `Qual::name(...)`. Class form first; a miss falls back
        // to the free-function key, because `Qual` is usually a namespace
        // (`json::dump`, `bench::write_bench_file`) that this index — which
        // only tracks classes — cannot see. `std::` calls find nothing.
        if (t[i - 2].text == name) continue;  // Ctor-like Qual::Qual(...)
        targets = resolve_key(t[i - 2].text + "::" + name, node.unit);
        if (targets.empty()) targets = resolve_key("::" + name, node.unit);
      } else if (i >= 1 && (is(t[i - 1], ".") || is(t[i - 1], "->"))) {
        bool this_call = i >= 2 && is_ident(t[i - 2]) && t[i - 2].text == "this";
        if (this_call && !node.class_name.empty()) {
          targets = resolve_key(node.class_name + "::" + name, node.unit);
        } else {
          // Member call on some object: one-hop — resolve only when the bare
          // name is unambiguous across the whole index and names a method.
          auto b = bare.find(name);
          if (b != bare.end() && b->second.size() == 1 &&
              b->second.begin()->rfind("::", 0) != 0)
            targets = resolve_key(*b->second.begin(), node.unit);
        }
      } else {
        // Unqualified. `Type name(...)` declaration runs are preceded by an
        // identifier that is not an expression keyword; skip those.
        if (i > node.body_begin && is_ident(t[i - 1]) && !expression_keyword(t[i - 1].text))
          continue;
        if (!node.class_name.empty())
          targets = resolve_key(node.class_name + "::" + name, node.unit);
        if (targets.empty()) targets = resolve_key("::" + name, node.unit);
        if (targets.empty()) {
          auto b = bare.find(name);
          if (b != bare.end() && b->second.size() == 1)
            targets = resolve_key(*b->second.begin(), node.unit);
        }
      }

      for (int callee : targets)
        if (seen.insert(callee).second)
          node.calls.push_back(CallSite{callee, t[i].line});
    }
    std::sort(node.calls.begin(), node.calls.end(),
              [](const CallSite& a, const CallSite& b) { return a.callee < b.callee; });
  }

  cg.callers.assign(cg.nodes.size(), {});
  for (std::size_t n = 0; n < cg.nodes.size(); ++n)
    for (const CallSite& call : cg.nodes[n].calls)
      cg.callers[static_cast<std::size_t>(call.callee)].push_back(static_cast<int>(n));
  return cg;
}

}  // namespace harp::lint
