// Structural tests for the whole-tree call graph (tools/harp_lint/callgraph)
// behind the r9/r10 interprocedural taint pass: definition indexing across
// units, the one-hop resolution rules, same-unit preference for shared
// internal-linkage names, declaration-vs-call disambiguation, and the
// deterministic orderings (node ids by unit/definition order, edges and
// caller lists ascending) the fixpoint's reproducible diagnostics rely on.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tools/harp_lint/callgraph.hpp"
#include "tools/harp_lint/lexer.hpp"
#include "tools/harp_lint/lint.hpp"

namespace harp::lint {
namespace {

/// Owns the SourceFiles and LexedFiles the CgUnit views point into.
class GraphHarness {
 public:
  void add(const std::string& rel_path, const std::string& text) {
    files_.push_back(std::make_unique<SourceFile>(SourceFile{rel_path, text}));
    lexed_.push_back(std::make_unique<LexedFile>(lex(files_.back()->text)));
    units_.push_back(CgUnit{files_.back().get(), lexed_.back().get()});
  }

  CallGraph build() const { return build_call_graph(units_); }

 private:
  std::vector<std::unique_ptr<SourceFile>> files_;
  std::vector<std::unique_ptr<LexedFile>> lexed_;
  std::vector<CgUnit> units_;
};

/// Node id by display name, asserting uniqueness.
std::map<std::string, int> index_of(const CallGraph& cg) {
  std::map<std::string, int> ids;
  for (std::size_t i = 0; i < cg.nodes.size(); ++i) {
    bool inserted = ids.emplace(qualified_name(cg.nodes[i]), static_cast<int>(i)).second;
    EXPECT_TRUE(inserted) << "duplicate node " << qualified_name(cg.nodes[i]);
  }
  return ids;
}

/// Display names of a node's resolved callees, in stored (ascending) order.
std::vector<std::string> callees_of(const CallGraph& cg, int node) {
  std::vector<std::string> out;
  for (const CallSite& call : cg.nodes[static_cast<std::size_t>(node)].calls)
    out.push_back(qualified_name(cg.nodes[static_cast<std::size_t>(call.callee)]));
  return out;
}

TEST(CallGraph, FreeFunctionsResolveAcrossUnits) {
  GraphHarness h;
  h.add("a.cpp", "int helper() { return 1; }\n");
  h.add("b.cpp", "int driver() { return helper() + helper(); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  ASSERT_EQ(cg.nodes.size(), 2u);
  EXPECT_EQ(callees_of(cg, ids["driver"]), std::vector<std::string>{"helper"});
  // Repeated call sites dedupe to one edge; the reverse edge exists.
  EXPECT_EQ(cg.nodes[static_cast<std::size_t>(ids["driver"])].calls.size(), 1u);
  EXPECT_EQ(cg.callers[static_cast<std::size_t>(ids["helper"])],
            std::vector<int>{ids["driver"]});
}

TEST(CallGraph, SameUnitDefinitionWinsForSharedNames) {
  // Two files define an internal-linkage helper with the same name: callers
  // bind to their own file's copy, not both.
  GraphHarness h;
  h.add("a.cpp", "static int scale() { return 2; }\nint a_user() { return scale(); }\n");
  h.add("b.cpp", "static int scale() { return 3; }\nint b_user() { return scale(); }\n");
  CallGraph cg = h.build();
  ASSERT_EQ(cg.nodes.size(), 4u);
  for (std::size_t n = 0; n < cg.nodes.size(); ++n) {
    if (cg.nodes[n].name != "a_user" && cg.nodes[n].name != "b_user") continue;
    ASSERT_EQ(cg.nodes[n].calls.size(), 1u) << cg.nodes[n].name;
    const CgNode& callee =
        cg.nodes[static_cast<std::size_t>(cg.nodes[n].calls[0].callee)];
    EXPECT_EQ(callee.name, "scale");
    EXPECT_EQ(callee.unit, cg.nodes[n].unit) << "cross-unit bind for " << cg.nodes[n].name;
  }
}

TEST(CallGraph, UnknownNameFansOutToAllDefinitions) {
  // A caller whose own file defines no `scale`: over-approximates to both.
  GraphHarness h;
  h.add("a.cpp", "static int scale() { return 2; }\n");
  h.add("b.cpp", "static int scale() { return 3; }\n");
  h.add("c.cpp", "int c_user() { return scale(); }\n");
  CallGraph cg = h.build();
  ASSERT_EQ(cg.nodes.size(), 3u);
  const CgNode* c_user = nullptr;
  for (const CgNode& node : cg.nodes)
    if (node.name == "c_user") c_user = &node;
  ASSERT_NE(c_user, nullptr);
  ASSERT_EQ(c_user->calls.size(), 2u);
  EXPECT_LT(c_user->calls[0].callee, c_user->calls[1].callee);  // ascending edges
  for (const CallSite& call : c_user->calls)
    EXPECT_EQ(cg.nodes[static_cast<std::size_t>(call.callee)].name, "scale");
}

TEST(CallGraph, ThisCallsAndUnqualifiedCallsPreferTheEnclosingClass) {
  GraphHarness h;
  h.add("governor.hpp",
        "int tick() { return 0; }\n"
        "class Governor {\n"
        " public:\n"
        "  int step() { return this->tick() + evaluate(); }\n"
        "  int tick() { return 1; }\n"
        "  int evaluate() { return 2; }\n"
        "};\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  std::vector<std::string> expected = {"Governor::tick", "Governor::evaluate"};
  EXPECT_EQ(callees_of(cg, ids["Governor::step"]), expected);
}

TEST(CallGraph, MemberCallResolvesOnlyWhenBareNameIsUnique) {
  GraphHarness h;
  h.add("ledger.hpp",
        "class Ledger {\n"
        " public:\n"
        "  void record(int v) {}\n"
        "};\n"
        "class Probe {\n"
        " public:\n"
        "  void sample() {}\n"
        "};\n"
        "void drive(Ledger& ledger, Probe& probe) {\n"
        "  ledger.record(1);\n"
        "  probe.sample();\n"
        "}\n");
  // `record` and `sample` are each unique across the index: both resolve.
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  std::vector<std::string> expected = {"Ledger::record", "Probe::sample"};
  EXPECT_EQ(callees_of(cg, ids["drive"]), expected);
}

TEST(CallGraph, AmbiguousMemberCallResolvesToNothing) {
  GraphHarness h;
  h.add("ambiguous.hpp",
        "class A {\n"
        " public:\n"
        "  void reset() {}\n"
        "};\n"
        "class B {\n"
        " public:\n"
        "  void reset() {}\n"
        "};\n"
        "void drive(A& a) { a.reset(); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  EXPECT_TRUE(cg.nodes[static_cast<std::size_t>(ids["drive"])].calls.empty());
}

TEST(CallGraph, QualifiedCallFallsBackToFreeFunctionForNamespaces) {
  // `json::dump(...)`: `json` is a namespace the class index cannot see, so
  // resolution falls back to the free-function key.
  GraphHarness h;
  h.add("writer.cpp",
        "namespace json { void dump(int v) {} }\n"
        "void emit() { json::dump(7); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  EXPECT_EQ(callees_of(cg, ids["emit"]), std::vector<std::string>{"dump"});
}

TEST(CallGraph, DeclarationRunsCreateNoEdges) {
  // `Status helper()` inside a body is a declaration, not a call.
  GraphHarness h;
  h.add("decl.cpp",
        "int helper() { return 1; }\n"
        "void user() { int helper(); int x = 0; }\n"
        "void caller() { return_value(); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  EXPECT_TRUE(cg.nodes[static_cast<std::size_t>(ids["user"])].calls.empty());
}

TEST(CallGraph, MutualRecursionBuildsACycle) {
  GraphHarness h;
  h.add("cycle.cpp",
        "int pong(int n);\n"
        "int ping(int n) { return n <= 0 ? 0 : pong(n - 1); }\n"
        "int pong(int n) { return n <= 0 ? 1 : ping(n - 1); }\n"
        "int self(int n) { return n <= 0 ? 2 : self(n - 1); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  EXPECT_EQ(callees_of(cg, ids["ping"]), std::vector<std::string>{"pong"});
  EXPECT_EQ(callees_of(cg, ids["pong"]), std::vector<std::string>{"ping"});
  EXPECT_EQ(callees_of(cg, ids["self"]), std::vector<std::string>{"self"});
  EXPECT_EQ(cg.callers[static_cast<std::size_t>(ids["ping"])], std::vector<int>{ids["pong"]});
}

TEST(CallGraph, NodeOrderFollowsUnitThenDefinitionOrder) {
  GraphHarness h;
  h.add("u0.cpp", "void first() {}\nvoid second() {}\n");
  h.add("u1.cpp", "void third() {}\n");
  CallGraph cg = h.build();
  ASSERT_EQ(cg.nodes.size(), 3u);
  EXPECT_EQ(cg.nodes[0].name, "first");
  EXPECT_EQ(cg.nodes[1].name, "second");
  EXPECT_EQ(cg.nodes[2].name, "third");
  EXPECT_EQ(cg.nodes[0].unit, 0);
  EXPECT_EQ(cg.nodes[2].unit, 1);
}

TEST(CallGraph, LexerEdgeCasesDoNotCreatePhantomDefinitions) {
  // Raw strings with embedded quotes, digit separators and line splices must
  // leave the index with exactly the real definitions and edges.
  GraphHarness h;
  h.add("edges.cpp",
        "const char* doc() {\n"
        "  return R\"doc(call \"helper()\" like so: helper(); never defined())doc\";\n"
        "}\n"
        "int helper() { return 1'000'000; }\n"
        "int spliced() { return hel\\\nper(); }\n");
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  ASSERT_EQ(cg.nodes.size(), 3u);
  // The raw string's fake call created no edge out of doc()...
  EXPECT_TRUE(cg.nodes[static_cast<std::size_t>(ids["doc"])].calls.empty());
  // ...and the spliced identifier still resolves to the real helper.
  EXPECT_EQ(callees_of(cg, ids["spliced"]), std::vector<std::string>{"helper"});
}

TEST(CallGraph, TernaryCallIsNoConstructorDefinition) {
  // In `c ? std::string("poll") : std::string("epoll")` the `:` is a
  // ternary's, not an initializer list: no phantom `std::string` node may
  // take the next body in the file and capture later std::string calls.
  std::ifstream in(std::string(HARP_LINT_FIXTURE_DIR) + "/ternary_call.cpp", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  GraphHarness h;
  h.add("tests/lint_fixtures/ternary_call.cpp", text.str());
  CallGraph cg = h.build();
  auto ids = index_of(cg);
  std::vector<std::string> names;
  for (const CgNode& node : cg.nodes) names.push_back(qualified_name(node));
  EXPECT_EQ(names, (std::vector<std::string>{"write_trace", "fixture_path", "regen"}));
  EXPECT_TRUE(cg.nodes[static_cast<std::size_t>(ids["fixture_path"])].calls.empty());
  EXPECT_EQ(callees_of(cg, ids["regen"]), std::vector<std::string>{"fixture_path"});
}

}  // namespace
}  // namespace harp::lint
