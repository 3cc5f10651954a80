// Self-test for the harp-lint rule engine (tools/harp_lint) against the
// fixture corpus in tests/lint_fixtures/.
//
// Each bad fixture marks its violating lines with a trailing
// `expect: <rule-id>...` comment; the test parses those markers from the raw
// text (the lexer swallows comments trailing #include lines, so markers must
// not depend on tokenisation) and asserts the engine's findings match the
// expected (file, line, rule) set exactly — no extras, no misses. Good
// fixtures assert exact silence. Module-placement-sensitive rules (r2's
// rng.hpp exemption, r3's layering) are driven by faking rel_path.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/harp_lint/lint.hpp"

namespace harp::lint {
namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(HARP_LINT_FIXTURE_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Load a fixture, optionally under a faked repo-relative path.
SourceFile fixture(const std::string& name, const std::string& rel_path = "") {
  return SourceFile{rel_path.empty() ? "tests/lint_fixtures/" + name : rel_path,
                    read_fixture(name)};
}

/// "file:line: rule" triples, comparable across expected and actual.
std::set<std::string> keys_of(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings)
    keys.insert(f.file + ":" + std::to_string(f.line) + ": " + f.rule);
  return keys;
}

/// Expected keys from `expect: <rule-id>...` markers in the fixture text.
std::set<std::string> expected_in(const SourceFile& src) {
  std::set<std::string> keys;
  std::istringstream lines(src.text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    std::size_t marker = line.find("expect:");
    if (marker == std::string::npos) continue;
    std::istringstream rules(line.substr(marker + 7));
    std::string rule;
    while (rules >> rule)
      keys.insert(src.rel_path + ":" + std::to_string(number) + ": " + rule);
  }
  return keys;
}

/// Run the engine restricted to `rules` and require findings == markers.
void expect_exact(const std::vector<SourceFile>& files, const std::vector<std::string>& rules,
                  const Options& base = {}) {
  Options options = base;
  options.rules = rules;
  std::set<std::string> expected;
  for (const SourceFile& f : files) {
    std::set<std::string> marks = expected_in(f);
    expected.insert(marks.begin(), marks.end());
  }
  std::set<std::string> actual = keys_of(run(files, options));
  EXPECT_EQ(actual, expected);
}

TEST(LintFixtures, R1UncheckedResult) {
  expect_exact({fixture("r1_bad.cpp"), fixture("r1_good.cpp")}, {"r1"});
}

TEST(LintFixtures, R2Determinism) {
  expect_exact({fixture("r2_bad.cpp"), fixture("r2_good.cpp")}, {"r2"});
}

TEST(LintFixtures, R2TraceLoaderDeterminism) {
  // Trace-loading flavour: loaders that jitter or synthesize requests from
  // wall clocks / unseeded randomness fire; from_chars parsing and seeded
  // harp::Rng synthesis stay silent.
  expect_exact({fixture("r2_trace_bad.cpp"), fixture("r2_trace_good.cpp")}, {"r2"});
}

TEST(LintFixtures, R2RngHomeIsExempt) {
  // The same violations under the sanctioned path produce nothing.
  SourceFile exempt = fixture("r2_bad.cpp", "src/common/rng.hpp");
  EXPECT_TRUE(run({exempt}, Options{{"r2"}}).empty());
}

TEST(LintFixtures, R3Layering) {
  SourceFile bad = fixture("r3_bad.cpp", "src/common/r3_bad.cpp");
  SourceFile good = fixture("r3_good.cpp", "src/harp/r3_good.cpp");
  expect_exact({bad, good}, {"r3"});
}

TEST(LintFixtures, R4DispatchExhaustive) {
  Options options;
  options.enum_file = "tests/lint_fixtures/r4_messages_good.hpp";
  options.dispatch_files = {"tests/lint_fixtures/r4_dispatch_good.cpp"};
  expect_exact({fixture("r4_messages_good.hpp"), fixture("r4_dispatch_good.cpp")}, {"r4"},
               options);
}

TEST(LintFixtures, R4DispatchHoles) {
  Options options;
  options.enum_file = "tests/lint_fixtures/r4_messages_bad.hpp";
  options.dispatch_files = {"tests/lint_fixtures/r4_dispatch_bad.cpp"};
  expect_exact({fixture("r4_messages_bad.hpp"), fixture("r4_dispatch_bad.cpp")}, {"r4"},
               options);
}

TEST(LintFixtures, R5LockAnnotations) {
  expect_exact({fixture("r5_bad.cpp"), fixture("r5_good.cpp")}, {"r5"});
}

TEST(LintFixtures, R7FlowSensitiveLocksets) {
  expect_exact({fixture("r7_bad.cpp"), fixture("r7_good.cpp")}, {"r7"});
}

TEST(LintFixtures, R8AnnotateOrSuppress) {
  expect_exact({fixture("r8_bad.cpp"), fixture("r8_good.cpp")}, {"r8"});
}

TEST(LintFixtures, R9InterproceduralTaint) {
  expect_exact({fixture("r9_bad.cpp"), fixture("r9_good.cpp")}, {"r9"});
}

TEST(LintFixtures, R9FixpointTerminatesOnRecursion) {
  // Mutual recursion and self-recursion form cycles; the worklist converges
  // and still reports both the sink-side and call-site findings.
  expect_exact({fixture("r9_recursive.cpp")}, {"r9"});
}

TEST(LintFixtures, R9DiagnosticCarriesSourceToSinkPath) {
  // The multi-hop chain in r9_bad.cpp: the message prints every hop from the
  // emitting function down to the source, and Finding::path carries the same
  // chain for machine consumption.
  std::vector<Finding> findings = run({fixture("r9_bad.cpp")}, Options{{"r9"}});
  const Finding* multi_hop = nullptr;
  for (const Finding& f : findings)
    if (f.line == 40) multi_hop = &f;
  ASSERT_NE(multi_hop, nullptr);
  EXPECT_EQ(multi_hop->rule, "r9");
  EXPECT_EQ(multi_hop->message,
            "nondeterminism reaches sink 'Tracer::begin': path publish_budget -> "
            "jitter_budget -> entropy_sample [rand() draw at "
            "tests/lint_fixtures/r9_bad.cpp:34]; make the data deterministic or suppress "
            "with harp-lint: allow(r9 <reason>)");
  std::vector<std::string> expected_path = {"publish_budget", "jitter_budget",
                                            "entropy_sample"};
  EXPECT_EQ(multi_hop->path, expected_path);
}

TEST(LintFixtures, R9CallSiteDiagnosticNamesTheSink) {
  // Case B: a tainted caller handing data to a deterministic sink-reaching
  // callee reports at the hand-off call site and names the eventual sink.
  std::vector<Finding> findings = run({fixture("r9_bad.cpp")}, Options{{"r9"}});
  const Finding* hand_off = nullptr;
  for (const Finding& f : findings)
    if (f.line == 28) hand_off = &f;
  ASSERT_NE(hand_off, nullptr);
  EXPECT_EQ(hand_off->message,
            "call to 'write_report' carries nondeterministic data toward sink "
            "'json::dump' (tests/lint_fixtures/r9_bad.cpp:21): path stamp_report "
            "[environment read (getenv) at tests/lint_fixtures/r9_bad.cpp:26]; make the "
            "data deterministic or suppress with harp-lint: allow(r9 <reason>)");
}

TEST(LintFixtures, R9RngHomeIsExempt) {
  // The sanctioned seed home may touch entropy without tainting anything.
  SourceFile exempt = fixture("r9_bad.cpp", "src/common/rng.hpp");
  EXPECT_TRUE(run({exempt}, Options{{"r9"}}).empty());
}

TEST(LintFixtures, R10IterationOrder) {
  expect_exact({fixture("r10_bad.cpp"), fixture("r10_good.cpp")}, {"r10"});
}

TEST(LintFixtures, R10MessageNamesEffectAndFix) {
  std::vector<Finding> findings = run({fixture("r10_bad.cpp")}, Options{{"r10"}});
  const Finding* fp_fold = nullptr;
  for (const Finding& f : findings)
    if (f.line == 40) fp_fold = &f;
  ASSERT_NE(fp_fold, nullptr);
  EXPECT_EQ(fp_fold->rule, "r10");
  EXPECT_EQ(fp_fold->message,
            "iteration over unordered container 'watts_by_core' accumulates into "
            "floating-point 'watt_sum' (FP addition is not associative) (line 41); "
            "iterate a sorted snapshot (collect keys, std::sort) or use std::map");
}

TEST(LintFixtures, LexerEdgeCasesDoNotConfuseTheIndexer) {
  // Raw strings with embedded quotes, digit separators and line splices: the
  // only finding is the genuine spliced rand() → tracer flow; the fake
  // source/sink text inside the raw string stays a literal.
  expect_exact({fixture("lexer_edges.cpp")}, {"r9"});
}

TEST(LintFixtures, TernaryCallIsNoConstructorDefinition) {
  // A namespace-scope lambda returning `c ? std::string(a) : std::string(b)`
  // must not index a phantom definition that routes an unrelated tainted
  // call toward a sink: the fixture is r9-clean.
  expect_exact({fixture("ternary_call.cpp")}, {"r9"});
}

TEST(LintFixtures, StringLiteralIsNoBracket) {
  // `"{"` inside a condition must not open a scope: every rule, the CFG
  // and lockset passes included, stays silent and in bounds.
  expect_exact({fixture("string_brackets.cpp")}, {});
}

TEST(LintFixtures, JsonFormatIsStable) {
  Finding plain{"src/a.cpp", 7, "r10", "iteration over unordered container 'm'"};
  Finding with_path{"src/b.cpp", 12, "r9", "quote \" backslash \\ tab \t done"};
  with_path.path = {"caller", "Class::callee"};
  Finding with_cycle{"src/c.cpp", 3, "r11", "lock-order cycle"};
  with_cycle.path = {"A::m_ @ src/c.cpp:3", "B::n_ @ src/c.cpp:9"};
  with_cycle.cycle = {{"A::m_", "src/c.cpp", 3}, {"B::n_", "src/c.cpp", 9}};
  EXPECT_EQ(format_json({plain, with_path, with_cycle}),
            "[\n"
            "  {\"file\": \"src/a.cpp\", \"line\": 7, \"rule\": \"r10\", \"message\": "
            "\"iteration over unordered container 'm'\", \"path\": [], \"cycle\": []},\n"
            "  {\"file\": \"src/b.cpp\", \"line\": 12, \"rule\": \"r9\", \"message\": "
            "\"quote \\\" backslash \\\\ tab \\t done\", \"path\": [\"caller\", "
            "\"Class::callee\"], \"cycle\": []},\n"
            "  {\"file\": \"src/c.cpp\", \"line\": 3, \"rule\": \"r11\", \"message\": "
            "\"lock-order cycle\", \"path\": [\"A::m_ @ src/c.cpp:3\", "
            "\"B::n_ @ src/c.cpp:9\"], \"cycle\": "
            "[{\"mutex\": \"A::m_\", \"file\": \"src/c.cpp\", \"line\": 3}, "
            "{\"mutex\": \"B::n_\", \"file\": \"src/c.cpp\", \"line\": 9}]}\n"
            "]\n");
}

TEST(LintFixtures, JsonFormatEmptyFindings) {
  EXPECT_EQ(format_json({}), "[]\n");
}

TEST(LintFixtures, StaleSuppressionsAreAudited) {
  Options options;
  options.audit_suppressions = true;
  expect_exact({fixture("audit_allows.cpp")}, {"r2"}, options);
}

TEST(LintFixtures, AuditIsOffByDefault) {
  // Without --audit-suppressions the stale allow is inert, not a finding.
  EXPECT_TRUE(run({fixture("audit_allows.cpp")}, Options{{"r2"}}).empty());
}

TEST(LintFixtures, R6HotPathAllocations) {
  expect_exact({fixture("r6_bad.cpp"), fixture("r6_good.cpp")}, {"r6"});
}

TEST(LintFixtures, R6EventLoopHotPaths) {
  // Fixtures shaped like the event-loop dispatch (src/ipc/event_loop.cpp is
  // hot-path annotated) and a per-worker cycle loop: per-cycle
  // readiness/snapshot buffers and per-worker scope strings must be hoisted.
  expect_exact({fixture("r6_eventloop_bad.cpp"), fixture("r6_eventloop_good.cpp")}, {"r6"});
}

TEST(LintFixtures, R6ParallelSolverHotPaths) {
  // Fixtures shaped like a blocked group scan and the incremental λ iteration
  // (src/harp/allocator.cpp is hot-path annotated): per-block scratch,
  // per-iteration pick buffers, and per-lane labels must be hoisted into the
  // caller-owned workspace.
  expect_exact({fixture("r6_parallel_bad.cpp"), fixture("r6_parallel_good.cpp")}, {"r6"});
}

TEST(LintFixtures, R6IsOptIn) {
  // The same per-iteration constructions without the annotation: silent.
  EXPECT_TRUE(run({fixture("r6_unannotated.cpp")}, Options{{"r6"}}).empty());
}

TEST(LintFixtures, HotPathAnnotationIsNotMalformed) {
  // The r6 opt-in marker shares the lint-directive prefix with suppressions
  // but must not be reported as a malformed allow() directive.
  EXPECT_TRUE(run({fixture("r6_good.cpp")}).empty());
}

TEST(LintFixtures, SuppressionsSilenceFindings) {
  // All rules on: the only thing keeping these fixtures quiet is the
  // well-formed allow() directives.
  EXPECT_TRUE(run({fixture("suppress_good.cpp")}).empty());
}

TEST(LintFixtures, MalformedSuppressionsAreFindings) {
  expect_exact({fixture("suppress_bad.cpp")}, {});
}

TEST(LintFixtures, FindingFormat) {
  Finding f{"src/ipc/transport.cpp", 42, "r1", "return value discarded"};
  EXPECT_EQ(format(f), "src/ipc/transport.cpp:42: r1 return value discarded");
}

TEST(LintFixtures, RuleFilterRestrictsOutput) {
  // The r2 fixture under an r1-only run is silent: filtering works.
  EXPECT_TRUE(run({fixture("r2_bad.cpp")}, Options{{"r1"}}).empty());
}

TEST(LintFixtures, R11LockOrderCycles) {
  // Opposite nesting orders fire once (on the closing edge's witness);
  // consistent nesting and release-before-acquire stay silent.
  expect_exact({fixture("r11_bad.cpp"), fixture("r11_good.cpp")}, {"r11"});
}

TEST(LintFixtures, R11InterproceduralCycle) {
  // No single function nests both mutexes: the cycle closes only through
  // callee may-acquire summaries.
  expect_exact({fixture("r11_interproc.cpp")}, {"r11"});
}

TEST(LintFixtures, R11MessagePrintsTheFullAcquisitionPath) {
  std::vector<Finding> findings = run({fixture("r11_bad.cpp")}, Options{{"r11"}});
  ASSERT_EQ(findings.size(), 1u);
  const Finding& f = findings[0];
  EXPECT_EQ(f.file, "tests/lint_fixtures/r11_bad.cpp");
  EXPECT_EQ(f.line, 35);
  EXPECT_EQ(f.message,
            "lock-order cycle: Left::lmutex_ @ tests/lint_fixtures/r11_bad.cpp:35 -> "
            "Right::rmutex_ @ tests/lint_fixtures/r11_bad.cpp:30 -> "
            "Left::lmutex_ @ tests/lint_fixtures/r11_bad.cpp:35; impose one canonical "
            "acquisition order (see DESIGN.md \"Deadlock detection\") or suppress with "
            "a reason");
  ASSERT_EQ(f.cycle.size(), 3u);
  EXPECT_EQ(f.cycle[0].mutex, "Left::lmutex_");
  EXPECT_EQ(f.cycle[0].line, 35);
  EXPECT_EQ(f.cycle[1].mutex, "Right::rmutex_");
  EXPECT_EQ(f.cycle[1].line, 30);
  EXPECT_EQ(f.cycle[2].mutex, "Left::lmutex_");
  EXPECT_EQ(f.cycle[2].line, 35);
}

TEST(LintFixtures, R11InterprocWitnessesAreCalleeAcquisitionSites) {
  std::vector<Finding> findings = run({fixture("r11_interproc.cpp")}, Options{{"r11"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].message,
            "lock-order cycle: "
            "Coordinator::cmutex_ @ tests/lint_fixtures/r11_interproc.cpp:39 -> "
            "Shard::shmutex_ @ tests/lint_fixtures/r11_interproc.cpp:30 -> "
            "Coordinator::cmutex_ @ tests/lint_fixtures/r11_interproc.cpp:39; impose "
            "one canonical acquisition order (see DESIGN.md \"Deadlock detection\") or "
            "suppress with a reason");
}

TEST(LintFixtures, R12BlockingCallsUnderLock) {
  expect_exact({fixture("r12_bad.cpp"), fixture("r12_good.cpp")}, {"r12"});
}

TEST(LintFixtures, R12MessagesNameTheCallAndHeldLock) {
  std::vector<Finding> findings = run({fixture("r12_bad.cpp")}, Options{{"r12"}});
  const Finding* transport = nullptr;
  const Finding* cv_wait = nullptr;
  for (const Finding& f : findings) {
    if (f.line == 17) transport = &f;
    if (f.line == 34) cv_wait = &f;
  }
  ASSERT_NE(transport, nullptr);
  EXPECT_EQ(transport->message,
            "potentially blocking transport call 'send()' while 'Pump::mutex_' is "
            "held; all I/O under a lock must be nonblocking — move it outside the "
            "critical section or suppress with a reason");
  ASSERT_NE(cv_wait, nullptr);
  EXPECT_EQ(cv_wait->message,
            "condition-variable wait while 'Pump::mutex_' is held; the wait releases "
            "only its own mutex — restructure or suppress with a reason");
}

TEST(LintFixtures, JsonIncludesTheCycleArrayForR11) {
  std::vector<Finding> findings = run({fixture("r11_interproc.cpp")}, Options{{"r11"}});
  ASSERT_EQ(findings.size(), 1u);
  std::string json = format_json(findings);
  EXPECT_NE(json.find(
                "\"cycle\": ["
                "{\"mutex\": \"Coordinator::cmutex_\", \"file\": "
                "\"tests/lint_fixtures/r11_interproc.cpp\", \"line\": 39}, "
                "{\"mutex\": \"Shard::shmutex_\", \"file\": "
                "\"tests/lint_fixtures/r11_interproc.cpp\", \"line\": 30}, "
                "{\"mutex\": \"Coordinator::cmutex_\", \"file\": "
                "\"tests/lint_fixtures/r11_interproc.cpp\", \"line\": 39}]"),
            std::string::npos);
}

}  // namespace
}  // namespace harp::lint
