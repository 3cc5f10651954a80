// Energy-efficient resource allocation (§4.2.2): the Multiple-choice
// Multi-dimensional Knapsack Problem of Eq. (1).
//
//   minimise   Σ_σ ζ(x_σ)           (energy-utility cost of selected points)
//   subject to Σ_σ r(x_σ) ≤ R       (per-core-type capacity)
//
// MMKP is NP-hard; HARP uses the state-of-the-art Lagrangian-relaxation
// approximation in the style of Wildermann et al.: subgradient iterations on
// the relaxed problem, feasibility repair, then a concrete first-fit core
// assignment guaranteeing spatial isolation. A greedy heuristic and an exact
// branch-and-bound reference are provided for the allocator-quality
// ablation (bench/allocator_ablation) and for tests.
//
// The solver runs in the RM's periodic decision cycle, so it has a hot-path
// entry point: solve(groups, workspace, out) reuses a SolveWorkspace across
// cycles — flat candidate×core-type usage rows, scratch buffers, and a
// fingerprint of the previous instance that lets a byte-identical cycle
// replay the cached result without solving at all. The warm path is
// result-neutral: it returns bit-identical selections to the cold
// one-shot solve(groups) overload (see DESIGN.md "Hot path &
// incrementality").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/harp/operating_point.hpp"
#include "src/platform/resource_vector.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {

/// One application's choice group.
struct AllocationGroup {
  std::string app_name;
  /// Candidate operating points; ζ must be precomputed against the app's
  /// utility normaliser. At least one candidate required.
  std::vector<OperatingPoint> candidates;
  std::vector<double> costs;  ///< ζ per candidate, parallel to `candidates`

  /// Soft-QoS minimum-service-rate row (Nejat-style slack pricing): the
  /// solver charges candidates below `min_rate` an extra
  /// slack_weight · max(0, (min_rate − rate)/min_rate) on top of ζ, steering
  /// the selection toward QoS-meeting points without making the constraint
  /// hard (an overloaded machine degrades instead of failing). Groups
  /// without a row are solved with their raw ζ values, bit-identically to a
  /// solver without QoS support.
  struct SoftQos {
    double min_rate = 0.0;       ///< service-rate target (same units as `rates`)
    double slack_weight = 0.0;   ///< penalty per unit of relative deficit
    std::vector<double> rates;   ///< predicted service rate per candidate
  };
  std::optional<SoftQos> qos;

  /// Flat per-candidate core-usage rows, candidate-major:
  /// usage_rows[c * usage_num_types + t] = cores of type t used by candidate
  /// c. Filled by prepare(); the solver falls back to building rows in its
  /// workspace for unprepared groups, so preparing is an optimisation for
  /// callers that cache groups across cycles, never a requirement.
  std::vector<int> usage_rows;
  int usage_num_types = 0;

  /// (Re)build usage_rows for a platform with `num_types` core types. Every
  /// candidate ERV must be shaped for that platform.
  void prepare(int num_types);
  bool prepared(int num_types) const {
    return num_types > 0 && usage_num_types == num_types &&
           usage_rows.size() == candidates.size() * static_cast<std::size_t>(num_types);
  }
};

/// Result of one solve.
struct AllocationResult {
  /// Selected candidate index per group; empty if the instance forced
  /// co-allocation (no feasible selection exists even at minimum demand).
  std::vector<std::size_t> selection;
  double total_cost = 0.0;
  bool feasible = false;

  /// Concrete, spatially isolated core allocations (parallel to groups);
  /// only populated when feasible.
  std::vector<platform::CoreAllocation> allocations;
};

enum class SolverKind { kLagrangian, kGreedy, kExhaustive };

/// How the last solve() produced its result (observability: the RM exports
/// rm_solve_incremental_total / rm_solve_groups_rescanned_total from this).
enum class SolveMode {
  kFull,         ///< every group scanned in every λ iteration
  kIncremental,  ///< dirty-subset solve against the cached λ trajectory
  kReplay,       ///< byte-identical instance: cached result returned verbatim
};

/// Reusable per-caller solver state. Holding one of these across RM cycles
/// buys two things: (1) every scratch vector the solvers need is allocated
/// once and reused, making steady-state solves heap-allocation-free; (2) a
/// fingerprint of the last solved instance lets a byte-identical cycle
/// replay the cached AllocationResult without running a solver. A workspace
/// belongs to one (Allocator, call site) pair — sharing it between
/// allocators with different hardware or solver kinds would replay results
/// across incompatible instances; invalidate() when retargeting.
class SolveWorkspace {
 public:
  SolveWorkspace() = default;

  /// True iff the most recent solve() replayed the cached result instead of
  /// running a solver (instance fingerprint matched the previous cycle).
  bool replayed() const { return replayed_; }
  std::uint64_t full_solves() const { return full_solves_; }
  std::uint64_t replays() const { return replays_; }

  /// How the most recent solve() ran (kIncremental only on the dirty-subset
  /// Lagrangian path; greedy/exhaustive solves are always kFull or kReplay).
  SolveMode last_mode() const { return last_mode_; }
  /// Incremental (dirty-subset) solves since construction.
  std::uint64_t incremental_solves() const { return incremental_solves_; }
  /// Groups rescanned by the most recent solve: the dirty count on the
  /// incremental path, the full group count on a full solve, 0 on a replay.
  std::size_t last_rescanned_groups() const { return last_rescanned_groups_; }
  /// λ iterations of the most recent solve that were served from the cached
  /// trajectory (clean-group argmins reused; only dirty groups rescanned).
  int last_sync_iterations() const { return last_sync_iters_; }

  /// Drop the cached result, the λ-trajectory cache, and the per-group
  /// fingerprints so the next solve() runs in full. Needed only when
  /// re-using one workspace against a different Allocator.
  void invalidate() {
    has_cached_ = false;
    traj_valid_ = false;
    shapes_ready_ = false;
    sorted_valid_ = false;
  }

 private:
  friend class Allocator;

  // Bound instance (valid during one solve call).
  const std::vector<const AllocationGroup*>* groups_ = nullptr;
  std::vector<const int*> rows_;  ///< per group: candidate-major usage rows
  std::vector<int> row_storage_;  ///< backing rows for unprepared groups
  /// Per group: effective per-candidate costs. Points at the group's own
  /// costs (no QoS row — untouched arithmetic) or at a slack-penalised copy
  /// in cost_storage_.
  std::vector<const double*> cost_rows_;
  std::vector<double> cost_storage_;
  int num_types_ = 0;

  // Solver scratch, reused across cycles.
  std::vector<int> usage_;
  std::vector<int> repair_usage_;
  std::vector<double> lambda_;
  std::vector<double> cost_scratch_;
  std::vector<std::size_t> selection_;
  std::vector<std::size_t> best_feasible_;
  std::vector<std::size_t> ideal_;
  std::vector<std::size_t> min_footprint_;
  std::vector<std::size_t> repair_scratch_;
  std::vector<const platform::ExtendedResourceVector*> demand_ptrs_;
  std::vector<int> next_free_scratch_;

  // Replay cache: last instance fingerprint and its full result.
  std::uint64_t fingerprint_ = 0;
  bool has_cached_ = false;
  AllocationResult cached_;

  // Shape metadata of the last bound instance: group count, per-group
  // candidate counts, num_types. When the shape is unchanged and the caller
  // declares only a dirty subset changed, per-group fingerprints and the
  // vectorised row blocks of clean groups are reused instead of rebuilt.
  std::uint64_t shape_fp_ = 0;
  bool shapes_ready_ = false;
  std::vector<std::size_t> group_size_;    ///< candidates per group
  std::vector<std::uint64_t> group_fp_;    ///< per-group rows+costs fingerprint

  // Vectorised scan kernel state (Lagrangian): per-group transposed
  // (type-major) usage rows as doubles, so the per-candidate relaxed-cost
  // accumulation is a branch-free unit-stride loop the autovectoriser takes.
  std::vector<double> vec_rows_;
  std::vector<std::size_t> vec_off_;       ///< group -> offset into vec_rows_
  std::size_t max_candidates_ = 0;
  std::vector<double> relaxed_;            ///< argmin scratch (max_candidates)
  /// Same transposed layout as vec_rows_ but int32: the repair scans are
  /// pure integer arithmetic, and the narrower rows halve their memory
  /// traffic (the repair loop is bandwidth-bound at scale).
  std::vector<int> vec_irows_;
  std::vector<int> repair_viol_;           ///< per-candidate new-violation scratch (repair)
  /// Contiguous copy of the effective cost rows (group-major, candidate
  /// order) plus per-group candidate offsets. The per-iteration cost sums
  /// and per-group scans index this single array instead of dereferencing
  /// cost_rows_[g] into per-group heap buffers — the dependent loads were
  /// measurable at scale. Values are bitwise copies, so every comparison and
  /// summation sees identical doubles.
  std::vector<double> vec_costs_;
  std::vector<std::size_t> cand_off_;      ///< group -> offset into vec_costs_

  // λ-trajectory cache for dirty-subset re-solves: λ at the start of every
  // subgradient iteration plus the per-group argmin picks it produced
  // (iteration-major). While a re-solve's λ matches the cached trajectory
  // bitwise, clean groups reuse their cached picks and only dirty groups are
  // rescanned; on divergence the solver falls back to full scans.
  std::vector<double> lambda_traj_;
  std::vector<std::uint32_t> picks_traj_;
  int traj_iters_ = 0;
  bool traj_valid_ = false;
  /// Per-iteration total usage of the recorded picks (iteration-major,
  /// iterations x num_types). In-sync iterations recover usage by applying
  /// integer dirty-row deltas to the recorded row instead of recounting all
  /// groups — exact, because integer addition is order-free.
  std::vector<int> usage_traj_;

  // Preamble caches keyed by the same validity condition as the trajectory
  // (Lagrangian solve, clean shape, traj_valid_): per-group values of clean
  // groups are pure functions of unchanged inputs, so an incremental solve
  // recomputes dirty groups only. abs_costs_ mirrors the bound effective
  // costs as |cost| in group order; the median (cost_scale) is taken from a
  // scratch copy, and a multiset median is independent of element order.
  std::vector<double> abs_costs_;
  /// Sorted mirror of abs_costs_, maintained across incremental solves by a
  /// batch remove/insert merge of the dirty segments (O(n + d log d) versus
  /// nth_element's O(n) with far worse constants). The median it yields is
  /// the same order statistic nth_element selects, bit for bit. Rebuilt
  /// lazily on the first incremental solve after any full one.
  std::vector<double> sorted_costs_;
  std::vector<double> sorted_scratch_;
  std::vector<double> dirty_old_costs_;
  std::vector<double> dirty_new_costs_;
  bool sorted_valid_ = false;
  /// True when refresh_vectorized observed a bitwise row change in a dirty
  /// group (always true on full refresh). When false, dirty solves changed
  /// costs only, so in-sync λ iterations recover usage by integer dirty-row
  /// deltas against the recorded trajectory instead of a full recount.
  bool dirty_rows_changed_ = true;

  // Repair/greedy scan scratch (hoisted: the hot path allocates nothing).
  std::vector<int> over_scratch_;          ///< per-type overflow of the current selection
  std::vector<double> greedy_min_cost_;    ///< per-group cheapest candidate cost

  bool replayed_ = false;
  std::uint64_t full_solves_ = 0;
  std::uint64_t replays_ = 0;
  SolveMode last_mode_ = SolveMode::kFull;
  std::uint64_t incremental_solves_ = 0;
  std::size_t last_rescanned_groups_ = 0;
  int last_sync_iters_ = 0;
};

/// MMKP solver facade.
class Allocator {
 public:
  explicit Allocator(platform::HardwareDescription hw,
                     SolverKind kind = SolverKind::kLagrangian,
                     telemetry::Tracer* tracer = nullptr);

  /// Solve the selection problem and compute concrete core assignments.
  /// Groups must be non-empty and every group must have >= 1 candidate.
  /// Cold one-shot entry point: equivalent to the workspace overload with a
  /// fresh workspace.
  AllocationResult solve(const std::vector<AllocationGroup>& groups) const;

  /// Hot-path entry point: identical results to the cold overload, but
  /// reuses `ws` buffers (steady-state calls perform no heap allocation) and
  /// replays the cached result when the instance fingerprint is unchanged.
  /// Groups are taken by pointer because callers cache them inside
  /// per-client records. Equivalent to the dirty-aware overload below with
  /// structure_changed = true (no incremental reuse).
  void solve(const std::vector<const AllocationGroup*>& groups, SolveWorkspace& ws,
             AllocationResult& out) const;

  /// Dirty-aware hot path. The caller promises that, relative to the
  /// instance last solved with `ws`:
  ///  - `structure_changed` is true whenever the group list itself changed
  ///    (count, order, or identity of the groups), and
  ///  - when it is false, every group whose rows, costs, or QoS pricing
  ///    changed in any way is listed in `dirty` (ascending, no duplicates).
  /// Groups not listed dirty must be bitwise unchanged. Under that contract
  /// the result is bit-identical to a cold solve of the current instance:
  /// clean-group work (fingerprints, vectorised rows, and — for the
  /// Lagrangian solver — per-iteration argmin picks while λ follows the
  /// cached trajectory) is reused, dirty groups are re-scanned, and any λ
  /// divergence falls back to full scans. An over-approximate dirty set
  /// (listing clean groups) is always safe, merely slower.
  void solve(const std::vector<const AllocationGroup*>& groups,
             const std::vector<std::uint32_t>& dirty, bool structure_changed,
             SolveWorkspace& ws, AllocationResult& out) const;

  const platform::HardwareDescription& hardware() const { return hw_; }

 private:
  /// Validate groups, bind usage rows (prepared groups point straight at
  /// their own rows; others are materialised into ws.row_storage_) and
  /// effective cost rows (soft-QoS slack penalties applied).
  void bind(const std::vector<const AllocationGroup*>& groups, SolveWorkspace& ws) const;
  /// FNV-1a-style fingerprint of one bound group (candidate count, usage
  /// rows, effective-cost bit patterns). Instance-pure: app names do not
  /// participate. The per-instance fingerprint mixes these in group order
  /// with the capacity vector; on dirty-subset solves only dirty groups'
  /// fingerprints are recomputed.
  std::uint64_t group_fingerprint(const SolveWorkspace& ws, std::size_t g) const;

  /// Rebuild the transposed double-precision row blocks the vectorised scan
  /// kernel reads. `all` rebuilds every group; otherwise only `dirty` groups
  /// (clean blocks are byte-identical by the dirty contract).
  void refresh_vectorized(SolveWorkspace& ws, bool all,
                          const std::vector<std::uint32_t>& dirty) const;
  /// Argmin scan of every group under `lambda` into ws.selection_.
  void scan_all_groups(SolveWorkspace& ws, const double* lambda) const;

  // Each solver leaves its final selection in ws.best_feasible_ (empty →
  // co-allocation required). The Lagrangian solver takes the incremental
  // contract: when `incremental`, replay the cached λ trajectory and rescan
  // only `dirty` groups while in sync.
  void solve_lagrangian(SolveWorkspace& ws, bool incremental,
                        const std::vector<std::uint32_t>& dirty) const;
  void solve_greedy(SolveWorkspace& ws) const;
  void solve_exhaustive(SolveWorkspace& ws) const;
  /// Make an infeasible selection feasible by cost-aware downgrades,
  /// in place; returns false when even minimum demand exceeds capacity.
  bool repair(SolveWorkspace& ws, std::vector<std::size_t>& selection) const;

  platform::HardwareDescription hw_;
  SolverKind kind_;
  /// Per-type core capacity, precomputed from hw_ (the R vector of Eq. 1b).
  std::vector<int> capacity_;
  /// Optional: wraps every solve() in a kMmkpSolve span (groups/cost/feasible).
  telemetry::Tracer* tracer_;
};

/// True iff the selected points jointly fit the capacity vector.
bool selection_feasible(const std::vector<AllocationGroup>& groups,
                        const std::vector<std::size_t>& selection,
                        const std::vector<int>& capacity);

/// Σ cost of a selection.
double selection_cost(const std::vector<AllocationGroup>& groups,
                      const std::vector<std::size_t>& selection);

}  // namespace harp::core
