// harp-lint rule engine: HARP-specific static analysis over the lexer's
// token streams.
//
// Rules (see DESIGN.md "Static analysis & invariants" for rationale):
//   r1  unchecked-result   Result<T>/Status return discarded, or
//                          .value()/.error()/.take() without a dominating
//                          ok() check in an enclosing scope.
//   r2  determinism        std::random_device / rand() / srand() /
//                          time(nullptr) / system_clock::now() outside
//                          src/common/rng.hpp.
//   r3  layering           #include "src/<module>/..." that violates the
//                          module dependency DAG.
//   r4  dispatch           a MessageType enumerator whose payload struct is
//                          never mentioned in an RM/client dispatch file.
//   r5  lock-annotations   a data member of a mutex-holding class without
//                          HARP_GUARDED_BY / HARP_PT_GUARDED_BY.
//   r6  hot-path-alloc     std::vector/std::string construction inside a
//                          loop, in files annotated `// harp-lint: hot-path`
//                          (opt-in; the allocator and resource-vector inner
//                          loops promise to be allocation-free).
//   r7  guarded-access      flow-sensitive lockset check: a
//                          HARP_GUARDED_BY(m) field accessed, or a
//                          HARP_REQUIRES(m) method called, on a CFG path
//                          where m is not held (cfg.hpp + lockset.hpp).
//   r8  guard-coverage      a field of a harp::Mutex-owning class without
//                          HARP_GUARDED_BY (annotate-or-suppress; atomics and
//                          const members exempt), or a guard annotation whose
//                          argument names no declared mutex member.
//   r9  nondet-taint        interprocedural: a determinism sink (telemetry
//                          event emission, json::dump/save_file, the solver
//                          fingerprint, bench report writers) reachable from
//                          a nondeterminism source (wall clock, rand/
//                          random_device, getenv, pointer-to-integer casts,
//                          pointer hashing, order-sensitive unordered-
//                          container iteration) over the whole-tree call
//                          graph; the message carries the full
//                          source → call-chain → sink path (callgraph.hpp +
//                          taint.hpp).
//   r10 iteration-order     a range-for over std::unordered_map/set whose
//                          body emits to a sink or accumulates
//                          non-commutatively (push_back/append, string or
//                          float +=, stream insertion); collect-then-sort
//                          is the sanctioned pattern.
//   r11 lock-order          interprocedural: "lock A held while acquiring
//                          lock B" edges collected from every function's
//                          lockset dataflow (member mutexes resolved to
//                          Class::field identities, callee acquisitions
//                          propagated over the whole-tree call graph), then
//                          cycle detection on the global order graph; the
//                          message carries the full acquisition path
//                          (mutex @ file:line -> ...) and the finding's
//                          `cycle` field the structured hops
//                          (lockorder.hpp).
//   r12 blocking-under-lock a blocking operation on a CFG path where a lock
//                          is held: transport calls (send/recv/poll/accept/
//                          connect), sleeps, blocking syscalls (epoll_wait,
//                          select), and condition-variable waits on *other*
//                          mutexes. Sanctioned nonblocking sites (the
//                          event-loop transport invariant) carry reasoned
//                          allow(r12 ...) comments.
//   allow                  malformed suppression (missing mandatory reason),
//                          or — under audit_suppressions — a stale allow()
//                          that no longer matches any finding.
//
// Suppressions: `// harp-lint: allow(<rule-id> <reason>)` on the finding's
// line or the line directly above it. The reason is mandatory.
// `// harp-lint: hot-path` anywhere in a file opts that file into r6.
#pragma once

#include <string>
#include <vector>

namespace harp::lint {

/// One hop of an r11 lock-order cycle: a mutex identity and the acquisition
/// site where it is taken while the previous hop's mutex is held.
struct CycleHop {
  std::string mutex;
  std::string file;
  int line = 1;
};

struct Finding {
  std::string file;
  int line = 1;
  std::string rule;
  std::string message;
  /// r9 only: the qualified-function call chain from the reporting function
  /// to the source-containing function, for machine-readable output. The
  /// default member initializer keeps four-field aggregate initialization
  /// (used throughout the rule implementations) warning-free.
  std::vector<std::string> path = {};
  /// r11 only: the ordered acquisition hops of the reported cycle, closed
  /// (the first hop is repeated at the end). Empty for every other rule.
  std::vector<CycleHop> cycle = {};
};

/// One input translation unit. `rel_path` is the repo-relative path with
/// forward slashes; the layering and determinism rules key off it, which is
/// also how the fixture suite fakes module placement.
struct SourceFile {
  std::string rel_path;
  std::string text;
};

struct Options {
  /// Rule ids to run; empty = all rules.
  std::vector<std::string> rules;
  /// File whose `enum class MessageType` drives the dispatch rule. The rule
  /// is skipped unless this file is part of the scanned set.
  std::string enum_file = "src/ipc/messages.hpp";
  /// Files whose token streams must mention every payload struct.
  std::vector<std::string> dispatch_files = {"src/harp/rm_server.cpp",
                                             "src/libharp/client.cpp"};
  /// Report `allow()` directives that suppressed nothing (rule "allow").
  /// Only allows whose rule is enabled in this run are audited, so partial
  /// runs never flag suppressions for rules they did not execute.
  bool audit_suppressions = false;
};

/// Run all requested rules over the file set, apply suppressions, and return
/// findings sorted by (file, line, rule).
std::vector<Finding> run(const std::vector<SourceFile>& files, const Options& options = {});

/// `file:line: rule-id message` — the one-line diagnostic format.
std::string format(const Finding& finding);

/// Stable machine-readable form: a JSON array of
/// `{"file","line","rule","message","path","cycle"}` objects in the engine's
/// sorted finding order, so CI artifacts diff cleanly across runs. `cycle`
/// is the r11 hop list (`{"mutex","file","line"}` objects, closed); an empty
/// array for every other rule — additive, so consumers of the pre-r11 schema
/// keep parsing.
std::string format_json(const std::vector<Finding>& findings);

}  // namespace harp::lint
