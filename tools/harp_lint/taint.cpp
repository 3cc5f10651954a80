// r9/r10 determinism-taint passes (see taint.hpp for the analysis design).
#include "tools/harp_lint/taint.hpp"

#include <deque>
#include <optional>
#include <set>
#include <string>

namespace harp::lint {
namespace {

/// A nondeterminism source inside one function body.
struct Source {
  int line = 1;
  std::string desc;  ///< e.g. "wall-clock read (system_clock::now)"
};

/// A determinism sink call site inside one function body.
struct Sink {
  int line = 1;
  std::string name;  ///< e.g. "Tracer::instant", "json::dump"
};

/// Identifier name sets collected once over the whole scanned tree; the
/// taint pass resolves accumulator/container types by declared name, the
/// same file-global pragmatism the lockset pass uses for lock expressions.
struct NameTable {
  std::set<std::string> unordered;  ///< names declared std::unordered_{map,set,...}
  std::set<std::string> strings;    ///< names declared std::string
  std::set<std::string> floats;     ///< names declared float/double
  std::set<std::string> streams;    ///< names declared o/stringstream/ofstream
};

bool is_unordered_type(const std::string& name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

/// `Type<...>[&*] name` / `Type name` declared-name extraction shared by the
/// table collector: returns the declared identifier after `i` (the type
/// token), or "" when the shape is not a declaration.
std::string declared_name_after(const std::vector<Token>& t, std::size_t i) {
  std::size_t j = i + 1;
  if (j < t.size() && is(t[j], "<")) {
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (is(t[j], "<")) ++depth;
      if (is(t[j], ">") && --depth == 0) break;
    }
    ++j;
  }
  while (j < t.size() && (is(t[j], "&") || is(t[j], "*") || is(t[j], "const"))) ++j;
  if (j < t.size() && is_ident(t[j])) return t[j].text;
  return "";
}

NameTable collect_names(const std::vector<CgUnit>& units) {
  NameTable table;
  for (const CgUnit& unit : units) {
    const std::vector<Token>& t = unit.lexed->tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i])) continue;
      const std::string& name = t[i].text;
      std::set<std::string>* dest = nullptr;
      if (is_unordered_type(name)) {
        dest = &table.unordered;
      } else if (name == "string") {
        dest = &table.strings;
      } else if (name == "float" || name == "double") {
        dest = &table.floats;
      } else if (name == "ostringstream" || name == "stringstream" ||
                 name == "ofstream" || name == "ostream") {
        dest = &table.streams;
      }
      if (dest == nullptr) continue;
      std::string declared = declared_name_after(t, i);
      if (!declared.empty()) dest->insert(declared);
    }
  }
  return table;
}

bool member_access(const std::vector<Token>& t, std::size_t i) {
  return i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->"));
}

/// `Type name(...)` — a declaration, not a call: preceded directly by an
/// identifier that is not an expression keyword.
bool declaration_like(const std::vector<Token>& t, std::size_t i, std::size_t begin) {
  if (i <= begin || !is_ident(t[i - 1])) return false;
  static const std::set<std::string> kExprKeywords = {
      "return", "co_return", "co_await", "throw", "case", "else", "do"};
  return kExprKeywords.count(t[i - 1].text) == 0;
}

// ---------------------------------------------------------------------------
// Source detection
// ---------------------------------------------------------------------------

std::vector<Source> find_sources(const std::vector<Token>& t, std::size_t begin,
                                 std::size_t end) {
  std::vector<Source> sources;
  for (std::size_t i = begin; i < end; ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& name = t[i].text;
    if (name == "random_device") {
      sources.push_back(Source{t[i].line, "std::random_device read"});
      continue;
    }
    if ((name == "rand" || name == "srand") && i + 1 < end && is(t[i + 1], "(") &&
        !member_access(t, i) && !declaration_like(t, i, begin)) {
      sources.push_back(Source{t[i].line, name + "() draw"});
      continue;
    }
    if (name == "time" && i + 2 < end && is(t[i + 1], "(") && !member_access(t, i) &&
        (is(t[i + 2], "nullptr") || is(t[i + 2], "NULL") || is(t[i + 2], "0"))) {
      sources.push_back(Source{t[i].line, "time(nullptr) read"});
      continue;
    }
    if (name == "system_clock" && i + 3 < end && is(t[i + 1], "::") && is_ident(t[i + 2]) &&
        t[i + 2].text == "now" && is(t[i + 3], "(")) {
      sources.push_back(Source{t[i].line, "wall-clock read (system_clock::now)"});
      continue;
    }
    if (name == "getenv" && i + 1 < end && is(t[i + 1], "(") &&
        !declaration_like(t, i, begin)) {
      sources.push_back(Source{t[i].line, "environment read (getenv)"});
      continue;
    }
    if (name == "reinterpret_cast" && i + 2 < end && is(t[i + 1], "<")) {
      std::size_t j = i + 2;  // optional std:: qualifier before the type
      if (j + 2 < end && is_ident(t[j]) && t[j].text == "std" && is(t[j + 1], "::")) j += 2;
      if (j < end && is_ident(t[j]) &&
          (t[j].text == "uintptr_t" || t[j].text == "intptr_t")) {
        sources.push_back(Source{t[i].line, "pointer-to-integer cast (" + t[j].text + ")"});
        continue;
      }
    }
    if (name == "hash" && i + 1 < end && is(t[i + 1], "<")) {
      int depth = 0;
      bool pointer = false;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (is(t[j], "<")) ++depth;
        if (is(t[j], "*")) pointer = true;
        if (is(t[j], ">") && --depth == 0) break;
      }
      if (pointer) sources.push_back(Source{t[i].line, "pointer hash (std::hash<T*>)"});
    }
  }
  return sources;
}

// ---------------------------------------------------------------------------
// Sink detection
// ---------------------------------------------------------------------------

std::vector<Sink> find_sinks(const std::vector<Token>& t, std::size_t begin, std::size_t end) {
  std::vector<Sink> sinks;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!is_ident(t[i]) || !is(t[i + 1], "(")) continue;
    const std::string& name = t[i].text;
    if ((name == "begin" || name == "end" || name == "instant") && member_access(t, i)) {
      // Tracer emission: the EventType argument distinguishes these from
      // iterator begin()/end() member calls.
      bool event = false;
      for (std::size_t j = i + 2; j < end && j < i + 7; ++j)
        if (is_ident(t[j]) && t[j].text == "EventType") event = true;
      if (event) sinks.push_back(Sink{t[i].line, "Tracer::" + name});
      continue;
    }
    if (name == "dump" && !declaration_like(t, i, begin)) {
      sinks.push_back(Sink{t[i].line, "json::dump"});
      continue;
    }
    if (name == "save_file" && !declaration_like(t, i, begin)) {
      sinks.push_back(Sink{t[i].line, "json::save_file"});
      continue;
    }
    if (name == "write_bench_file" && !declaration_like(t, i, begin)) {
      sinks.push_back(Sink{t[i].line, "bench::write_bench_file"});
      continue;
    }
    if (name == "bench_envelope" && !declaration_like(t, i, begin)) {
      sinks.push_back(Sink{t[i].line, "bench::bench_envelope"});
      continue;
    }
    if (name == "bound_fingerprint" && !declaration_like(t, i, begin))
      sinks.push_back(Sink{t[i].line, "SolveWorkspace fingerprint"});
  }
  return sinks;
}

// ---------------------------------------------------------------------------
// Unordered-container loops (r10 + accumulation taint sources)
// ---------------------------------------------------------------------------

struct ULoop {
  int line = 1;              ///< line of the `for`
  std::string container;     ///< the unordered name iterated over
  std::size_t body_begin = 0;
  std::size_t body_end = 0;  ///< one past the last body token
};

std::vector<ULoop> find_unordered_loops(const std::vector<Token>& t, std::size_t begin,
                                        std::size_t end, const NameTable& names) {
  std::vector<ULoop> loops;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!is_ident(t[i]) || t[i].text != "for" || !is(t[i + 1], "(")) continue;
    int depth = 0;
    std::size_t close = i + 1;
    std::size_t colon = 0;
    bool classic = false;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (is(t[j], "(")) ++depth;
      if (is(t[j], ")") && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && is(t[j], ";")) classic = true;
      if (depth == 1 && is(t[j], ":") && colon == 0) colon = j;
    }
    if (classic || colon == 0 || close <= colon) continue;  // not a range-for
    std::string container;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (!is_ident(t[j])) continue;
      if (names.unordered.count(t[j].text) != 0 || is_unordered_type(t[j].text)) {
        container = is_unordered_type(t[j].text) ? "<temporary>" : t[j].text;
        break;
      }
    }
    if (container.empty()) continue;
    ULoop loop;
    loop.line = t[i].line;
    loop.container = container;
    if (close + 1 < end && is(t[close + 1], "{")) {
      int bdepth = 0;
      std::size_t body_close = close + 1;
      for (std::size_t j = close + 1; j < end; ++j) {
        if (is(t[j], "{")) ++bdepth;
        if (is(t[j], "}") && --bdepth == 0) {
          body_close = j;
          break;
        }
      }
      loop.body_begin = close + 2;
      loop.body_end = body_close;
    } else {
      loop.body_begin = close + 1;
      std::size_t j = close + 1;
      while (j < end && !is(t[j], ";")) ++j;
      loop.body_end = j;
    }
    loops.push_back(loop);
  }
  return loops;
}

/// The collected-then-sorted pattern: `X.push_back(...)` inside the loop is
/// fine when `std::sort(X.begin(), ...)` (or stable_sort) follows anywhere
/// later in the same function body.
bool sorted_later(const std::vector<Token>& t, std::size_t from, std::size_t end,
                  const std::string& target) {
  for (std::size_t i = from; i + 1 < end; ++i) {
    if (!is_ident(t[i])) continue;
    if (t[i].text != "sort" && t[i].text != "stable_sort") continue;
    if (!is(t[i + 1], "(")) continue;
    int depth = 0;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (is(t[j], "(")) ++depth;
      if (is(t[j], ")") && --depth == 0) break;
      if (is_ident(t[j]) && t[j].text == target) return true;
    }
  }
  return false;
}

/// First order-sensitive effect in a loop body, or nullopt. `body_limit` is
/// the enclosing function's body end (for the sorted-later exemption).
struct OrderEffect {
  int line = 1;
  std::string what;
  bool accumulation = false;  ///< true → also an r9 taint source
};

std::optional<OrderEffect> order_sensitive_effect(const std::vector<Token>& t,
                                                  const ULoop& loop, std::size_t body_limit,
                                                  const NameTable& names) {
  // Direct sink emission inside the body wins (most severe).
  std::vector<Sink> sinks = find_sinks(t, loop.body_begin, loop.body_end);
  if (!sinks.empty())
    return OrderEffect{sinks[0].line, "emits to sink '" + sinks[0].name + "'", false};

  for (std::size_t i = loop.body_begin; i < loop.body_end; ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& name = t[i].text;
    if ((name == "push_back" || name == "emplace_back" || name == "append") &&
        member_access(t, i) && i + 1 < loop.body_end && is(t[i + 1], "(")) {
      // The appended-to target: the identifier the member access hangs off.
      std::string target = i >= 2 && is_ident(t[i - 2]) ? t[i - 2].text : "";
      if (!target.empty() && sorted_later(t, loop.body_end, body_limit, target)) continue;
      return OrderEffect{t[i].line, "appends via " + name + "()", true};
    }
    if (i + 2 < loop.body_end && is(t[i + 1], "+") && is(t[i + 2], "=")) {
      if (names.strings.count(name) != 0)
        return OrderEffect{t[i].line, "concatenates into std::string '" + name + "'", true};
      if (names.floats.count(name) != 0)
        return OrderEffect{t[i].line,
                           "accumulates into floating-point '" + name +
                               "' (FP addition is not associative)",
                           true};
    }
    if (names.streams.count(name) != 0 && i + 2 < loop.body_end && is(t[i + 1], "<") &&
        is(t[i + 2], "<"))
      return OrderEffect{t[i].line, "streams into '" + name + "'", true};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Fixpoint propagation + findings
// ---------------------------------------------------------------------------

/// Why a node is tainted / sink-reaching: either a local witness (source or
/// sink index into the node's own list) or the next hop toward one.
struct Mark {
  int via = -1;        ///< callee node id carrying the color; -1 = local
  int call_line = 0;   ///< line of the call into `via`
  int local_idx = -1;  ///< index into the node's own sources/sinks when local
};

const SourceFile& file_of(const CallGraph& cg, const std::vector<CgUnit>& units, int node) {
  return *units[static_cast<std::size_t>(cg.nodes[static_cast<std::size_t>(node)].unit)].src;
}

}  // namespace

void check_determinism_taint(const CallGraph& cg, const std::vector<CgUnit>& units,
                             bool enable_r9, bool enable_r10,
                             std::vector<Finding>& findings) {
  const std::size_t n = cg.nodes.size();
  NameTable names = collect_names(units);

  std::vector<std::vector<Source>> sources(n);
  std::vector<std::vector<Sink>> sinks(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CgNode& node = cg.nodes[i];
    const CgUnit& unit = units[static_cast<std::size_t>(node.unit)];
    const std::vector<Token>& t = unit.lexed->tokens;
    sinks[i] = find_sinks(t, node.body_begin, node.body_end);
    if (unit.src->rel_path == "src/common/rng.hpp") continue;  // sanctioned home
    sources[i] = find_sources(t, node.body_begin, node.body_end);

    // Unordered loops: r10 findings, and order-sensitive accumulations
    // double as r9 taint sources (the scrambled order escapes the loop).
    for (const ULoop& loop : find_unordered_loops(t, node.body_begin, node.body_end, names)) {
      std::optional<OrderEffect> effect =
          order_sensitive_effect(t, loop, node.body_end, names);
      if (!effect.has_value()) continue;
      if (enable_r10)
        findings.push_back(
            Finding{unit.src->rel_path, loop.line, "r10",
                    "iteration over unordered container '" + loop.container + "' " +
                        effect->what + " (line " + std::to_string(effect->line) +
                        "); iterate a sorted snapshot (collect keys, std::sort) or use "
                        "std::map"});
      if (effect->accumulation)
        sources[i].push_back(Source{loop.line, "unordered-container iteration order ('" +
                                                   loop.container + "')"});
    }
  }
  if (!enable_r9) return;

  // Color propagation, callee → caller, each node marked at most once — the
  // worklist terminates on cyclic and mutually recursive graphs.
  auto propagate = [&](std::vector<std::optional<Mark>>& marks) {
    std::deque<int> queue;
    for (std::size_t i = 0; i < n; ++i)
      if (marks[i].has_value()) queue.push_back(static_cast<int>(i));
    while (!queue.empty()) {
      int g = queue.front();
      queue.pop_front();
      for (int f : cg.callers[static_cast<std::size_t>(g)]) {
        if (marks[static_cast<std::size_t>(f)].has_value()) continue;
        int call_line = 0;
        for (const CallSite& call : cg.nodes[static_cast<std::size_t>(f)].calls)
          if (call.callee == g) call_line = call.line;
        marks[static_cast<std::size_t>(f)] = Mark{g, call_line, -1};
        queue.push_back(f);
      }
    }
  };

  std::vector<std::optional<Mark>> tainted(n), reaching(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!sources[i].empty()) tainted[i] = Mark{-1, 0, 0};
    if (!sinks[i].empty()) reaching[i] = Mark{-1, 0, 0};
  }
  propagate(tainted);
  propagate(reaching);

  /// Chain of qualified names from `from` to its local witness; fills `path`
  /// and returns the terminal node id.
  auto walk = [&](int from, const std::vector<std::optional<Mark>>& marks,
                  std::vector<std::string>& path) {
    int at = from;
    path.push_back(qualified_name(cg.nodes[static_cast<std::size_t>(at)]));
    while (marks[static_cast<std::size_t>(at)]->via >= 0) {
      at = marks[static_cast<std::size_t>(at)]->via;
      path.push_back(qualified_name(cg.nodes[static_cast<std::size_t>(at)]));
    }
    return at;
  };

  auto source_suffix = [&](int from, std::vector<std::string>& path) {
    int at = walk(from, tainted, path);
    const Source& src =
        sources[static_cast<std::size_t>(at)][static_cast<std::size_t>(
            tainted[static_cast<std::size_t>(at)]->local_idx)];
    std::string joined;
    for (const std::string& hop : path) joined += (joined.empty() ? "" : " -> ") + hop;
    return joined + " [" + src.desc + " at " + file_of(cg, units, at).rel_path + ":" +
           std::to_string(src.line) + "]";
  };

  for (std::size_t f = 0; f < n; ++f) {
    if (!tainted[f].has_value()) continue;
    const std::string& file = file_of(cg, units, static_cast<int>(f)).rel_path;

    // A sink inside a tainted function: fire at the sink call site.
    for (const Sink& sink : sinks[f]) {
      std::vector<std::string> path;
      std::string chain = source_suffix(static_cast<int>(f), path);
      Finding finding{file, sink.line, "r9",
                      "nondeterminism reaches sink '" + sink.name + "': path " + chain +
                          "; make the data deterministic or suppress with harp-lint: "
                          "allow(r9 <reason>)"};
      finding.path = path;
      findings.push_back(std::move(finding));
    }

    // A call handing data into an (uncolored) sink-reaching callee: fire at
    // the call site. Tainted callees report closer to the sink themselves.
    for (const CallSite& call : cg.nodes[f].calls) {
      std::size_t g = static_cast<std::size_t>(call.callee);
      if (g == f || !reaching[g].has_value() || tainted[g].has_value()) continue;
      std::vector<std::string> sink_path;
      int sink_node = walk(call.callee, reaching, sink_path);
      const Sink& sink =
          sinks[static_cast<std::size_t>(sink_node)][static_cast<std::size_t>(
              reaching[static_cast<std::size_t>(sink_node)]->local_idx)];
      std::vector<std::string> path;
      std::string chain = source_suffix(static_cast<int>(f), path);
      Finding finding{file, call.line, "r9",
                      "call to '" + qualified_name(cg.nodes[g]) +
                          "' carries nondeterministic data toward sink '" + sink.name + "' (" +
                          file_of(cg, units, sink_node).rel_path + ":" +
                          std::to_string(sink.line) + "): path " + chain +
                          "; make the data deterministic or suppress with harp-lint: "
                          "allow(r9 <reason>)"};
      finding.path = path;
      findings.push_back(std::move(finding));
    }
  }
}

}  // namespace harp::lint
