// Structural tests for harp-lint's per-function CFG builder
// (tools/harp_lint/cfg.{hpp,cpp}): block/edge shape for nested if/else,
// loops, switch and early returns, plus RAII guard acquire/release
// placement — the scaffolding the r7 lockset pass (lockset.cpp) runs on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/harp_lint/cfg.hpp"
#include "tools/harp_lint/lexer.hpp"

namespace harp::lint {
namespace {

/// Lex a snippet, find the single function definition in it, build its CFG.
Cfg cfg_of(const std::string& source, FunctionDef* def_out = nullptr) {
  LexedFile lexed = lex(source);
  std::vector<FunctionDef> defs = extract_functions(lexed.tokens);
  EXPECT_EQ(defs.size(), 1u) << "snippet must contain exactly one function:\n" << source;
  if (defs.empty()) return Cfg{};
  if (def_out != nullptr) *def_out = defs.front();
  return build_cfg(lexed.tokens, defs.front().body_begin, defs.front().body_end);
}

bool has_edge(const Cfg& cfg, int from, int to) {
  for (int s : cfg.blocks[static_cast<std::size_t>(from)].succ)
    if (s == to) return true;
  return false;
}

/// Blocks reachable from the entry block.
std::vector<bool> reachable(const Cfg& cfg) {
  std::vector<bool> seen(cfg.blocks.size(), false);
  std::vector<int> work{0};
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    if (seen[static_cast<std::size_t>(b)]) continue;
    seen[static_cast<std::size_t>(b)] = true;
    for (int s : cfg.blocks[static_cast<std::size_t>(b)].succ) work.push_back(s);
  }
  return seen;
}

/// Synthetic releases of `lock` on blocks reachable from the entry (blocks
/// after a return are kept in the CFG but are dead).
int count_reachable_releases(const Cfg& cfg, const std::string& lock) {
  std::vector<bool> seen = reachable(cfg);
  int n = 0;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (!seen[b]) continue;
    for (const CfgStmt& s : cfg.blocks[b].stmts)
      if (s.release == lock) ++n;
  }
  return n;
}

TEST(LintCfg, StraightLineIsEntryToExit) {
  Cfg cfg = cfg_of("void f() { int a = 1; a += 2; }");
  ASSERT_GE(cfg.blocks.size(), 2u);
  EXPECT_TRUE(has_edge(cfg, 0, cfg.exit));
  EXPECT_EQ(cfg.blocks[0].stmts.size(), 2u);
  EXPECT_TRUE(cfg.blocks[static_cast<std::size_t>(cfg.exit)].stmts.empty());
  EXPECT_TRUE(cfg.blocks[static_cast<std::size_t>(cfg.exit)].succ.empty());
}

TEST(LintCfg, IfWithoutElseBranchesAndRejoins) {
  Cfg cfg = cfg_of("void f(bool c) { int a = 0; if (c) { a = 1; } a = 2; }");
  // Entry must have two successors (then-branch and fall-through), and both
  // paths must reach a join block that reaches the exit.
  ASSERT_EQ(cfg.blocks[0].succ.size(), 2u);
  int then_b = cfg.blocks[0].succ[0];
  int join_b = cfg.blocks[0].succ[1];
  EXPECT_TRUE(has_edge(cfg, then_b, join_b));
  EXPECT_TRUE(has_edge(cfg, join_b, cfg.exit));
}

TEST(LintCfg, IfElseIsDiamond) {
  Cfg cfg = cfg_of(
      "int f(bool c) { int a; if (c) { a = 1; } else { a = 2; } return a; }");
  ASSERT_EQ(cfg.blocks[0].succ.size(), 2u);
  int then_b = cfg.blocks[0].succ[0];
  int else_b = cfg.blocks[0].succ[1];
  EXPECT_NE(then_b, else_b);
  // Both arms feed one join; the join returns, so it feeds the exit.
  ASSERT_EQ(cfg.blocks[static_cast<std::size_t>(then_b)].succ.size(), 1u);
  int join_b = cfg.blocks[static_cast<std::size_t>(then_b)].succ[0];
  EXPECT_TRUE(has_edge(cfg, else_b, join_b));
  EXPECT_TRUE(has_edge(cfg, join_b, cfg.exit));
}

TEST(LintCfg, NestedIfKeepsBothJoins) {
  Cfg cfg = cfg_of(
      "void f(bool a, bool b) {"
      "  if (a) {"
      "    if (b) { int x = 1; }"
      "  }"
      "  int y = 2;"
      "}");
  // Every block is reachable and the exit is reached: no dangling joins.
  std::vector<bool> seen = reachable(cfg);
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
    EXPECT_TRUE(seen[b]) << "block " << b << " unreachable in: " << describe(cfg);
  EXPECT_TRUE(seen[static_cast<std::size_t>(cfg.exit)]);
}

TEST(LintCfg, WhileLoopHasBackEdgeAndExit) {
  Cfg cfg = cfg_of("void f(int n) { while (n > 0) { --n; } int d = 0; }");
  // The loop head tests the condition: one successor into the body, one
  // past the loop. The body loops back to the head.
  ASSERT_EQ(cfg.blocks[0].succ.size(), 1u);
  int head = cfg.blocks[0].succ[0];
  ASSERT_EQ(cfg.blocks[static_cast<std::size_t>(head)].succ.size(), 2u);
  int body = cfg.blocks[static_cast<std::size_t>(head)].succ[0];
  EXPECT_TRUE(has_edge(cfg, body, head)) << describe(cfg);
}

TEST(LintCfg, ForLoopStepFeedsBackToHead) {
  Cfg cfg = cfg_of("void f() { for (int i = 0; i < 4; ++i) { int x = i; } }");
  // Some block other than the head must loop back to the head (the latch
  // carrying the ++i step).
  ASSERT_EQ(cfg.blocks[0].succ.size(), 1u);
  int head = cfg.blocks[0].succ[0];
  bool latch_found = false;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
    if (static_cast<int>(b) != head && has_edge(cfg, static_cast<int>(b), head))
      latch_found = true;
  EXPECT_TRUE(latch_found) << describe(cfg);
}

TEST(LintCfg, EarlyReturnFeedsExitDirectly) {
  Cfg cfg = cfg_of(
      "int f(bool c) { if (c) { return 1; } int a = 2; return a; }");
  // The then-arm must reach the exit without passing through the join.
  ASSERT_EQ(cfg.blocks[0].succ.size(), 2u);
  int then_b = cfg.blocks[0].succ[0];
  EXPECT_TRUE(has_edge(cfg, then_b, cfg.exit)) << describe(cfg);
  EXPECT_FALSE(has_edge(cfg, then_b, cfg.blocks[0].succ[1])) << describe(cfg);
}

TEST(LintCfg, BreakLeavesLoopContinueReturnsToHead) {
  Cfg cfg = cfg_of(
      "void f(int n) {"
      "  while (n > 0) {"
      "    if (n == 3) { break; }"
      "    if (n == 5) { continue; }"
      "    --n;"
      "  }"
      "}");
  std::vector<bool> seen = reachable(cfg);
  EXPECT_TRUE(seen[static_cast<std::size_t>(cfg.exit)]) << describe(cfg);
  // The head has a back-edge from more than one block: the normal latch and
  // the continue path.
  int head = cfg.blocks[0].succ[0];
  int preds_of_head = 0;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
    if (has_edge(cfg, static_cast<int>(b), head)) ++preds_of_head;
  EXPECT_GE(preds_of_head, 3) << describe(cfg);  // entry, latch, continue
}

TEST(LintCfg, SwitchFansOutCasesAndDefaultTracksFallThrough) {
  Cfg cfg = cfg_of(
      "int f(int v) {"
      "  int out = 0;"
      "  switch (v) {"
      "    case 1: out = 1; break;"
      "    case 2: out = 2; break;"
      "    default: out = 3; break;"
      "  }"
      "  return out;"
      "}");
  // The block holding the switch fans out to each arm; with a default
  // present there is no no-match bypass edge, so exactly 3 successors.
  EXPECT_EQ(cfg.blocks[0].succ.size(), 3u) << describe(cfg);
  std::vector<bool> seen = reachable(cfg);
  EXPECT_TRUE(seen[static_cast<std::size_t>(cfg.exit)]);
}

TEST(LintCfg, SwitchWithoutDefaultSkipsPastArms) {
  Cfg cfg = cfg_of(
      "void f(int v) {"
      "  switch (v) {"
      "    case 1: { int a = 1; break; }"
      "  }"
      "  int b = 2;"
      "}");
  // No default: the switch block needs an edge bypassing every arm (the
  // no-match path), i.e. 2 successors for 1 case.
  EXPECT_EQ(cfg.blocks[0].succ.size(), 2u) << describe(cfg);
}

TEST(LintCfg, RaiiGuardAcquiresAndReleasesAtScopeClose) {
  Cfg cfg = cfg_of(
      "void f() {"
      "  { harp::MutexLock lock(mutex_); int a = 1; }"
      "  int b = 2;"
      "}");
  bool acquired = false;
  for (const BasicBlock& b : cfg.blocks)
    for (const CfgStmt& s : b.stmts)
      if (s.acquire == "mutex_") acquired = true;
  EXPECT_TRUE(acquired);
  EXPECT_EQ(count_reachable_releases(cfg, "mutex_"), 1);
}

TEST(LintCfg, EarlyReturnReleasesRaiiGuard) {
  Cfg cfg = cfg_of(
      "int f(bool c) {"
      "  harp::MutexLock lock(mutex_);"
      "  if (c) { return 1; }"
      "  return 2;"
      "}");
  // Two reachable exits from the guarded scope -> two synthetic releases
  // (one per return path); the fall-off-the-end scope close is dead code.
  EXPECT_EQ(count_reachable_releases(cfg, "mutex_"), 2) << describe(cfg);
}

TEST(LintCfg, ExtractFindsRequiresAndQualifiedName) {
  LexedFile lexed = lex(
      "struct S { harp::Mutex m_; };"
      "void S::touch() HARP_REQUIRES(m_) { int x = 0; }");
  std::vector<FunctionDef> defs = extract_functions(lexed.tokens);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].class_name, "S");
  EXPECT_EQ(defs[0].name, "touch");
  ASSERT_EQ(defs[0].requires_locks.size(), 1u);
  EXPECT_EQ(defs[0].requires_locks[0], "m_");
}

TEST(LintCfg, StringLiteralBracesAreNotBraces) {
  // The literal "{" is a string token: the body closes at the last brace and
  // the second function is still found.
  LexedFile lexed = lex("void f(int x) { if (is(tok, \"{\")) { ++d; } } void g() { ++d; }");
  std::vector<FunctionDef> defs = extract_functions(lexed.tokens);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "f");
  EXPECT_EQ(defs[1].name, "g");
  Cfg cfg = build_cfg(lexed.tokens, defs[0].body_begin, defs[0].body_end);
  // entry (the condition) -> then-block -> exit, and entry -> exit.
  EXPECT_EQ(describe(cfg), describe(cfg_of("void f(int x) { if (c) { ++d; } }"))) << describe(cfg);
}

TEST(LintCfg, DescribeRendersStructure) {
  Cfg cfg = cfg_of("void f() { int a = 1; }");
  // Exact rendering for the simplest shape: one statement block feeding the
  // distinguished empty exit block.
  EXPECT_EQ(describe(cfg), "b0[s1] -> b1; b1[s0]");
}

}  // namespace
}  // namespace harp::lint
