// harp-lint: hot-path — solve() runs every RM decision cycle; r6 flags
// std::vector/std::string construction inside loops in this file. All solver
// scratch lives in SolveWorkspace so steady-state solves are allocation-free.
//
// Beyond the warm-start/replay machinery, this file carries the two scaling
// paths of the solver core (DESIGN.md "Hot path & incrementality"):
//  - the dirty-subset incremental Lagrangian path, which replays the cached
//    λ trajectory and rescans only changed groups while λ stays in sync, and
//  - the vectorised per-candidate scan kernel.
// Both are result-neutral by construction; every equivalence argument lives
// next to the code it justifies.
#include "src/harp/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/check.hpp"

namespace harp::core {

namespace {

std::vector<int> total_usage(const std::vector<AllocationGroup>& groups,
                             const std::vector<std::size_t>& selection,
                             std::size_t num_types) {
  std::vector<int> usage(num_types, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const platform::ExtendedResourceVector& erv =
        groups[g].candidates[selection[g]].erv;
    for (int t = 0; t < erv.num_types(); ++t)
      usage[static_cast<std::size_t>(t)] += erv.cores_used(t);
  }
  return usage;
}

/// One FNV-1a-style mixing step over a 64-bit word (word-wise rather than
/// byte-wise: one multiply per int keeps fingerprinting cheap relative to
/// the solve it may replace).
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ull;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

// ---------------------------------------------------------------------------
// Vectorised argmin kernel
// ---------------------------------------------------------------------------

/// Per-group argmin of ζ + λ·r over a transposed (type-major) double row
/// block. Bit-identical to the scalar candidate-major loop it replaced: each
/// candidate's relaxed cost starts from costs[c] and accumulates
/// λ_t · row[t] in ascending-t order — exactly the scalar addition sequence —
/// and the argmin keeps the first strict minimum. The transposed layout
/// merely turns the t-th accumulation into a unit-stride loop over
/// candidates that GCC's autovectoriser takes at -O2 (int rows are
/// pre-converted to doubles once per bind, an exact conversion).
std::size_t scan_group_block(const double* __restrict block, const double* costs,
                             std::size_t num_candidates, std::size_t num_types,
                             const double* lambda, double* __restrict relaxed) {
  std::memcpy(relaxed, costs, num_candidates * sizeof(double));
  for (std::size_t t = 0; t < num_types; ++t) {
    const double lt = lambda[t];
    const double* __restrict row = block + t * num_candidates;
    for (std::size_t c = 0; c < num_candidates; ++c) relaxed[c] += lt * row[c];
  }
  std::size_t pick = 0;
  double best = relaxed[0];
  for (std::size_t c = 1; c < num_candidates; ++c) {
    if (relaxed[c] < best) {
      best = relaxed[c];
      pick = c;
    }
  }
  return pick;
}

}  // namespace

bool selection_feasible(const std::vector<AllocationGroup>& groups,
                        const std::vector<std::size_t>& selection,
                        const std::vector<int>& capacity) {
  std::vector<int> usage = total_usage(groups, selection, capacity.size());
  for (std::size_t t = 0; t < capacity.size(); ++t)
    if (usage[t] > capacity[t]) return false;
  return true;
}

// Reference helper over raw ζ (no soft-QoS penalties) — reference-solver
// tests compare solver outputs on penalty-free instances.
double selection_cost(const std::vector<AllocationGroup>& groups,
                      const std::vector<std::size_t>& selection) {
  double cost = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) cost += groups[g].costs[selection[g]];
  return cost;
}

void AllocationGroup::prepare(int num_types) {
  HARP_CHECK(num_types > 0);
  usage_num_types = num_types;
  usage_rows.resize(candidates.size() * static_cast<std::size_t>(num_types));
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    HARP_CHECK(candidates[c].erv.num_types() == num_types);
    candidates[c].erv.write_core_usage(usage_rows.data() +
                                       c * static_cast<std::size_t>(num_types));
  }
}

Allocator::Allocator(platform::HardwareDescription hw, SolverKind kind,
                     telemetry::Tracer* tracer)
    : hw_(std::move(hw)), kind_(kind), tracer_(tracer) {
  capacity_.reserve(hw_.core_types.size());
  for (const platform::CoreType& t : hw_.core_types) capacity_.push_back(t.core_count);
}

AllocationResult Allocator::solve(const std::vector<AllocationGroup>& groups) const {
  std::vector<const AllocationGroup*> ptrs;
  ptrs.reserve(groups.size());
  for (const AllocationGroup& g : groups) ptrs.push_back(&g);
  // A fresh workspace has no cached result, so this always runs a full solve
  // — the cold overload's behaviour is independent of any caller history.
  SolveWorkspace ws;
  AllocationResult result;
  solve(ptrs, ws, result);
  return result;
}

void Allocator::solve(const std::vector<const AllocationGroup*>& groups, SolveWorkspace& ws,
                      AllocationResult& out) const {
  static const std::vector<std::uint32_t> kNoDirty;
  solve(groups, kNoDirty, /*structure_changed=*/true, ws, out);
}

void Allocator::bind(const std::vector<const AllocationGroup*>& groups,
                     SolveWorkspace& ws) const {
  const int num_types = static_cast<int>(capacity_.size());
  ws.groups_ = &groups;
  ws.num_types_ = num_types;
  ws.rows_.resize(groups.size());
  std::size_t fallback_ints = 0;
  for (const AllocationGroup* g : groups) {
    HARP_CHECK_MSG(!g->candidates.empty(), "group '" << g->app_name << "' has no candidates");
    HARP_CHECK(g->costs.size() == g->candidates.size());
    if (!g->prepared(num_types))
      fallback_ints += g->candidates.size() * static_cast<std::size_t>(num_types);
  }
  // Two passes: size the backing store first so the row pointers taken in
  // the second pass cannot be invalidated by growth.
  ws.row_storage_.resize(fallback_ints);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const AllocationGroup& group = *groups[i];
    if (group.prepared(num_types)) {
      ws.rows_[i] = group.usage_rows.data();
      continue;
    }
    int* dst = ws.row_storage_.data() + offset;
    for (std::size_t c = 0; c < group.candidates.size(); ++c) {
      const platform::ExtendedResourceVector& erv = group.candidates[c].erv;
      HARP_CHECK(erv.num_types() == num_types);
      erv.write_core_usage(dst + c * static_cast<std::size_t>(num_types));
    }
    ws.rows_[i] = dst;
    offset += group.candidates.size() * static_cast<std::size_t>(num_types);
  }

  // Bind effective cost rows. Groups without a soft-QoS row point straight
  // at their own costs — the solvers then read exactly the doubles a
  // QoS-free build would, preserving bit-equivalence. QoS groups get a
  // slack-penalised copy materialised into cost_storage_ (sized first so
  // pointers taken below cannot be invalidated by growth).
  ws.cost_rows_.resize(groups.size());
  std::size_t penalised_doubles = 0;
  for (const AllocationGroup* g : groups) {
    if (!g->qos.has_value()) continue;
    HARP_CHECK_MSG(g->qos->rates.size() == g->candidates.size(),
                   "group '" << g->app_name << "' QoS rates not parallel to candidates");
    HARP_CHECK(g->qos->min_rate > 0.0);
    penalised_doubles += g->candidates.size();
  }
  ws.cost_storage_.resize(penalised_doubles);
  std::size_t cost_offset = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const AllocationGroup& group = *groups[i];
    if (!group.qos.has_value()) {
      ws.cost_rows_[i] = group.costs.data();
      continue;
    }
    const AllocationGroup::SoftQos& qos = *group.qos;
    double* dst = ws.cost_storage_.data() + cost_offset;
    for (std::size_t c = 0; c < group.candidates.size(); ++c) {
      const double deficit = std::max(0.0, (qos.min_rate - qos.rates[c]) / qos.min_rate);
      dst[c] = group.costs[c] + qos.slack_weight * deficit;
    }
    ws.cost_rows_[i] = dst;
    cost_offset += group.candidates.size();
  }
}

std::uint64_t Allocator::group_fingerprint(const SolveWorkspace& ws, std::size_t g) const {
  const std::size_t num_types = capacity_.size();
  const std::size_t num_candidates = ws.group_size_[g];
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, static_cast<std::uint64_t>(num_candidates));
  const int* rows = ws.rows_[g];
  const std::size_t row_ints = num_candidates * num_types;
  for (std::size_t i = 0; i < row_ints; ++i)
    h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(rows[i])));
  // Effective costs, so QoS-row changes (rates, weight, target) invalidate
  // the replay cache; identical to raw ζ for non-QoS groups.
  const double* costs = ws.cost_rows_[g];
  for (std::size_t c = 0; c < num_candidates; ++c) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &costs[c], sizeof(bits));
    h = fnv_mix(h, bits);
  }
  return h;
}

void Allocator::refresh_vectorized(SolveWorkspace& ws, bool all,
                                   const std::vector<std::uint32_t>& dirty) const {
  const std::size_t num_types = capacity_.size();
  const std::size_t num_groups = ws.group_size_.size();
  if (all) {
    ws.vec_off_.resize(num_groups);
    ws.cand_off_.resize(num_groups);
    std::size_t total = 0;
    std::size_t total_cands = 0;
    std::size_t max_candidates = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      ws.vec_off_[g] = total;
      ws.cand_off_[g] = total_cands;
      total += ws.group_size_[g] * num_types;
      total_cands += ws.group_size_[g];
      max_candidates = std::max(max_candidates, ws.group_size_[g]);
    }
    ws.vec_rows_.resize(total);
    ws.vec_irows_.resize(total);
    ws.vec_costs_.resize(total_cands);
    ws.max_candidates_ = max_candidates;
    ws.dirty_rows_changed_ = true;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const int* rows = ws.rows_[g];
      double* block = ws.vec_rows_.data() + ws.vec_off_[g];
      int* iblock = ws.vec_irows_.data() + ws.vec_off_[g];
      const std::size_t num_candidates = ws.group_size_[g];
      for (std::size_t c = 0; c < num_candidates; ++c)
        for (std::size_t t = 0; t < num_types; ++t) {
          const int value = rows[c * num_types + t];
          block[t * num_candidates + c] = static_cast<double>(value);
          iblock[t * num_candidates + c] = value;
        }
      std::memcpy(ws.vec_costs_.data() + ws.cand_off_[g], ws.cost_rows_[g],
                  num_candidates * sizeof(double));
    }
  } else {
    // Clean groups' rows are bitwise unchanged (dirty contract), so their
    // transposed blocks are already byte-identical: re-transpose dirty only.
    // While doing so, note whether any dirty row actually differs — the
    // int -> double widening is injective here, so comparing against the old
    // block is a bitwise row comparison (a cost-only dirty solve keeps
    // dirty_rows_changed_ false, which lets in-sync λ iterations recover
    // usage by integer dirty-row deltas instead of a full recount).
    bool changed = false;
    for (std::uint32_t g : dirty) {
      const int* rows = ws.rows_[g];
      double* block = ws.vec_rows_.data() + ws.vec_off_[g];
      int* iblock = ws.vec_irows_.data() + ws.vec_off_[g];
      const std::size_t num_candidates = ws.group_size_[g];
      for (std::size_t c = 0; c < num_candidates; ++c)
        for (std::size_t t = 0; t < num_types; ++t) {
          const int value = rows[c * num_types + t];
          changed |= iblock[t * num_candidates + c] != value;
          block[t * num_candidates + c] = static_cast<double>(value);
          iblock[t * num_candidates + c] = value;
        }
      std::memcpy(ws.vec_costs_.data() + ws.cand_off_[g], ws.cost_rows_[g],
                  num_candidates * sizeof(double));
    }
    ws.dirty_rows_changed_ = changed;
  }
  if (ws.relaxed_.size() != ws.max_candidates_) ws.relaxed_.resize(ws.max_candidates_);
  if (ws.repair_viol_.size() != ws.max_candidates_) ws.repair_viol_.resize(ws.max_candidates_);
}

void Allocator::scan_all_groups(SolveWorkspace& ws, const double* lambda) const {
  const std::size_t num_types = capacity_.size();
  for (std::size_t g = 0; g < ws.group_size_.size(); ++g)
    ws.selection_[g] = scan_group_block(ws.vec_rows_.data() + ws.vec_off_[g],
                                        ws.vec_costs_.data() + ws.cand_off_[g],
                                        ws.group_size_[g], num_types, lambda, ws.relaxed_.data());
}

void Allocator::solve(const std::vector<const AllocationGroup*>& groups,
                      const std::vector<std::uint32_t>& dirty, bool structure_changed,
                      SolveWorkspace& ws, AllocationResult& out) const {
  HARP_CHECK(!groups.empty());
  if (tracer_ != nullptr)
    tracer_->begin(telemetry::EventType::kMmkpSolve, "rm",
                   {{"groups", static_cast<double>(groups.size())}});
  bind(groups, ws);
  const std::size_t num_groups = groups.size();

  // Shape fingerprint: group count, per-group candidate counts, type count.
  // Clean-state reuse (per-group fingerprints, vectorised blocks, the λ
  // trajectory) additionally requires the caller's no-structure-change
  // promise — a same-shape instance with reordered groups must not reuse.
  ws.group_size_.resize(num_groups);
  std::uint64_t shape = kFnvBasis;
  shape = fnv_mix(shape, static_cast<std::uint64_t>(num_groups));
  shape = fnv_mix(shape, static_cast<std::uint64_t>(capacity_.size()));
  for (std::size_t g = 0; g < num_groups; ++g) {
    ws.group_size_[g] = groups[g]->candidates.size();
    shape = fnv_mix(shape, static_cast<std::uint64_t>(ws.group_size_[g]));
  }
  const bool reuse_clean = !structure_changed && ws.shapes_ready_ && shape == ws.shape_fp_;
  ws.shape_fp_ = shape;
  ws.shapes_ready_ = true;

  // Per-group fingerprints: recompute dirty groups only when clean state is
  // reusable, everything otherwise. The instance fingerprint mixes the
  // per-group values in order, so it equals the previous cycle's exactly
  // when every group (and the capacity vector) is bitwise unchanged.
  ws.group_fp_.resize(num_groups);
  if (reuse_clean) {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      HARP_CHECK_MSG(dirty[i] < num_groups, "dirty index out of range");
      HARP_CHECK_MSG(i == 0 || dirty[i] > dirty[i - 1], "dirty list not ascending-unique");
      ws.group_fp_[dirty[i]] = group_fingerprint(ws, dirty[i]);
    }
  } else {
    for (std::size_t g = 0; g < num_groups; ++g) ws.group_fp_[g] = group_fingerprint(ws, g);
  }
  std::uint64_t fingerprint = kFnvBasis;
  fingerprint = fnv_mix(fingerprint, static_cast<std::uint64_t>(num_groups));
  for (int cap : capacity_) fingerprint = fnv_mix(fingerprint, static_cast<std::uint64_t>(cap));
  for (std::size_t g = 0; g < num_groups; ++g) fingerprint = fnv_mix(fingerprint, ws.group_fp_[g]);

  if (ws.has_cached_ && fingerprint == ws.fingerprint_) {
    // Byte-identical instance (same rows, costs, capacity): the solvers are
    // deterministic pure functions of the bound instance, so the cached
    // result is exactly what a full solve would produce. A spuriously-dirty
    // solve (dirty listed, nothing actually changed) lands here too.
    out = ws.cached_;
    ws.replayed_ = true;
    ++ws.replays_;
    ws.last_mode_ = SolveMode::kReplay;
    ws.last_rescanned_groups_ = 0;
    ws.last_sync_iters_ = 0;
    if (tracer_ != nullptr) {
      if (out.feasible)
        tracer_->end(telemetry::EventType::kMmkpSolve, "rm",
                     {{"feasible", 1.0}, {"total_cost", out.total_cost}, {"replayed", 1.0}});
      else
        tracer_->end(telemetry::EventType::kMmkpSolve, "rm",
                     {{"feasible", 0.0}, {"replayed", 1.0}});
    }
    return;
  }
  ws.replayed_ = false;
  ++ws.full_solves_;

  // Incremental λ-trajectory replay needs clean-state reuse, a valid cached
  // trajectory, and the Lagrangian solver (greedy/exhaustive have no
  // iteration state worth replaying; they re-run in full under the dirty
  // API, which is always correct).
  const bool incremental = kind_ == SolverKind::kLagrangian && reuse_clean && ws.traj_valid_;
  ws.last_mode_ = incremental ? SolveMode::kIncremental : SolveMode::kFull;
  ws.last_rescanned_groups_ = incremental ? dirty.size() : num_groups;
  ws.last_sync_iters_ = 0;
  if (incremental) ++ws.incremental_solves_;

  switch (kind_) {
    case SolverKind::kLagrangian:
      refresh_vectorized(ws, /*all=*/!reuse_clean, dirty);
      solve_lagrangian(ws, incremental, dirty);
      break;
    case SolverKind::kGreedy:
      // Greedy repairs infeasible starts through the same vectorised
      // violation scan as the Lagrangian path, so it needs the blocks too.
      refresh_vectorized(ws, /*all=*/!reuse_clean, dirty);
      solve_greedy(ws);
      break;
    case SolverKind::kExhaustive: solve_exhaustive(ws); break;
  }

  const std::size_t num_types = capacity_.size();
  if (ws.best_feasible_.empty()) {
    out.selection.clear();
    out.total_cost = 0.0;
    out.feasible = false;
    out.allocations.clear();
    ws.cached_ = out;
    ws.fingerprint_ = fingerprint;
    ws.has_cached_ = true;
    if (tracer_ != nullptr)
      tracer_->end(telemetry::EventType::kMmkpSolve, "rm",
                   {{"feasible", 0.0}, {"incremental", incremental ? 1.0 : 0.0}});
    return;  // co-allocation required
  }

  out.selection = ws.best_feasible_;
  double total_cost = 0.0;
  for (std::size_t g = 0; g < num_groups; ++g)
    total_cost += ws.cost_rows_[g][out.selection[g]];
  out.total_cost = total_cost;

  std::vector<int>& usage = ws.usage_;
  usage.assign(num_types, 0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const int* row = ws.rows_[g] + out.selection[g] * num_types;
    for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
  }
  out.feasible = true;
  for (std::size_t t = 0; t < num_types; ++t)
    if (usage[t] > capacity_[t]) out.feasible = false;
  HARP_CHECK(out.feasible);

  // Concrete core assignment always re-runs against the live demand vectors:
  // an ERV distinguishes SMT-level distributions that collapse to identical
  // per-type core-usage rows, so bitwise-equal rows do NOT certify equal
  // demand and the cached assignment cannot be reused.
  ws.demand_ptrs_.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g)
    ws.demand_ptrs_[g] = &groups[g]->candidates[out.selection[g]].erv;
  Status assigned =
      platform::assign_cores_into(hw_, ws.demand_ptrs_, ws.next_free_scratch_, out.allocations);
  HARP_CHECK_MSG(assigned.ok(), "feasible selection failed concrete assignment");

  ws.cached_ = out;
  ws.fingerprint_ = fingerprint;
  ws.has_cached_ = true;
  if (tracer_ != nullptr)
    tracer_->end(telemetry::EventType::kMmkpSolve, "rm",
                 {{"feasible", 1.0},
                  {"total_cost", out.total_cost},
                  {"incremental", incremental ? 1.0 : 0.0}});
}

bool Allocator::repair(SolveWorkspace& ws, std::vector<std::size_t>& selection) const {
  const std::vector<const AllocationGroup*>& groups = *ws.groups_;
  const std::size_t num_groups = groups.size();
  const std::size_t num_types = capacity_.size();

  // Usage is maintained incrementally across swaps: after each accepted swap
  // only the old/new candidate rows are applied, never a full recount.
  std::vector<int>& usage = ws.repair_usage_;
  usage.assign(num_types, 0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const int* block = ws.vec_irows_.data() + ws.vec_off_[g];
    const std::size_t num_candidates = ws.group_size_[g];
    for (std::size_t t = 0; t < num_types; ++t)
      usage[t] += block[t * num_candidates + selection[g]];
  }
  // Total violation Σ_t max(0, usage_t − capacity_t) of the selection.
  int violation = 0;
  for (std::size_t t = 0; t < num_types; ++t)
    violation += std::max(usage[t] - capacity_[t], 0);

  // Plateau moves (violation-neutral swaps) are allowed a bounded number of
  // times so multi-swap escape paths can be found without risking cycles.
  int plateau_budget = 25 * static_cast<int>(num_groups);
  std::vector<int>& over = ws.over_scratch_;
  // Per-candidate new-violation scratch. __restrict: the scratch never
  // aliases the row blocks it accumulates from, which is what lets the
  // per-type loops below autovectorise.
  int* __restrict cand_viol = ws.repair_viol_.data();
  while (violation > 0) {
    // Prefer the cheapest swap that strictly reduces total violation; fall
    // back to the cheapest violation-neutral swap while budget remains.
    //
    // Two passes instead of the historical single scan, result-identically:
    // a swap in group g can reduce total violation by at most
    // Σ_t min(current_g[t], overflow[t]) (it frees at most current_g[t] of
    // type t, and only overflow counts), so groups where that bound is zero
    // cannot host an improving swap and are skipped in the first pass. The
    // neutral pass runs only when NO improving swap exists anywhere — the
    // exact condition under which the single-scan code consulted its
    // neutral candidate — and scans every group in the same (g, c) order
    // with the same strict comparison, so it elects the same swap.
    //
    // Each group's per-candidate violation Σ_t max(usage_t − current_t +
    // cand_t − cap_t, 0) is accumulated type-major over the transposed
    // int32 row blocks — a branch-free unit-stride loop like the λ scan,
    // in the same integer arithmetic as the historical candidate-major
    // loop (and half the memory traffic of the double blocks: the repair
    // rescans every surviving group per accepted swap, so it is
    // bandwidth-bound at scale).
    over.assign(num_types, 0);
    for (std::size_t t = 0; t < num_types; ++t)
      over[t] = std::max(usage[t] - capacity_[t], 0);
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_group = num_groups;
    std::size_t best_candidate = 0;
    int best_violation = violation;
    for (std::size_t g = 0; g < num_groups; ++g) {
      // The current row is read out of the contiguous transposed block
      // (iblock[t*C + sel]) instead of ws.rows_[g]: the latter points into
      // per-group heap buffers and the dependent loads dominate the scan at
      // scale (one cache miss per group), while the block is the memory the
      // loop streams anyway. Same ints, bit-equal arithmetic.
      const std::size_t num_candidates = ws.group_size_[g];
      const int* block = ws.vec_irows_.data() + ws.vec_off_[g];
      const std::size_t sel = selection[g];
      int reducible = 0;
      for (std::size_t t = 0; t < num_types; ++t)
        reducible += std::min(block[t * num_candidates + sel], over[t]);
      if (reducible == 0) continue;  // cannot reduce violation: prune
      for (std::size_t t = 0; t < num_types; ++t) {
        const int head = usage[t] - block[t * num_candidates + sel] - capacity_[t];
        const int* __restrict row = block + t * num_candidates;
        if (t == 0)
          for (std::size_t c = 0; c < num_candidates; ++c)
            cand_viol[c] = std::max(head + row[c], 0);
        else
          for (std::size_t c = 0; c < num_candidates; ++c)
            cand_viol[c] += std::max(head + row[c], 0);
      }
      // An improving candidate exists iff min_c cand_viol[c] < violation:
      // the currently selected candidate's entry is exactly the current
      // violation (its head terms clamp to the per-type overflows), so the
      // minimum is <= violation always, and a strict minimum below it is
      // precisely an improving swap. The min is an order-independent exact
      // reduction, so this skip is result-neutral — it only bypasses the
      // branchy selection loop for groups that cannot contribute.
      int min_viol = cand_viol[0];
      for (std::size_t c = 1; c < num_candidates; ++c)
        min_viol = std::min(min_viol, cand_viol[c]);
      if (min_viol >= violation) continue;
      const double* costs = ws.vec_costs_.data() + ws.cand_off_[g];
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (c == selection[g]) continue;
        const int reduced = violation - cand_viol[c];
        if (reduced <= 0) continue;
        double delta = costs[c] - costs[selection[g]];
        double ratio = delta / static_cast<double>(reduced);
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_group = g;
          best_candidate = c;
          best_violation = cand_viol[c];
        }
      }
    }
    if (best_group != num_groups) {
      const int* block = ws.vec_irows_.data() + ws.vec_off_[best_group];
      const std::size_t nc = ws.group_size_[best_group];
      for (std::size_t t = 0; t < num_types; ++t)
        usage[t] += block[t * nc + best_candidate] - block[t * nc + selection[best_group]];
      selection[best_group] = best_candidate;
      violation = best_violation;
      continue;
    }
    double best_neutral_delta = std::numeric_limits<double>::infinity();
    std::size_t neutral_group = num_groups;
    std::size_t neutral_candidate = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const std::size_t num_candidates = ws.group_size_[g];
      const int* block = ws.vec_irows_.data() + ws.vec_off_[g];
      const std::size_t sel = selection[g];
      for (std::size_t t = 0; t < num_types; ++t) {
        const int head = usage[t] - block[t * num_candidates + sel] - capacity_[t];
        const int* __restrict row = block + t * num_candidates;
        if (t == 0)
          for (std::size_t c = 0; c < num_candidates; ++c)
            cand_viol[c] = std::max(head + row[c], 0);
        else
          for (std::size_t c = 0; c < num_candidates; ++c)
            cand_viol[c] += std::max(head + row[c], 0);
      }
      const double* costs = ws.vec_costs_.data() + ws.cand_off_[g];
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (c == selection[g]) continue;
        double delta = costs[c] - costs[selection[g]];
        if (cand_viol[c] == violation && delta < best_neutral_delta) {
          best_neutral_delta = delta;
          neutral_group = g;
          neutral_candidate = c;
        }
      }
    }
    if (neutral_group != num_groups && plateau_budget-- > 0) {
      const int* block = ws.vec_irows_.data() + ws.vec_off_[neutral_group];
      const std::size_t nc = ws.group_size_[neutral_group];
      for (std::size_t t = 0; t < num_types; ++t)
        usage[t] += block[t * nc + neutral_candidate] - block[t * nc + selection[neutral_group]];
      selection[neutral_group] = neutral_candidate;
      continue;
    }
    return false;  // cannot repair further
  }
  return true;
}

void Allocator::solve_lagrangian(SolveWorkspace& ws, bool incremental,
                                 const std::vector<std::uint32_t>& dirty) const {
  const std::vector<const AllocationGroup*>& groups = *ws.groups_;
  const std::size_t num_groups = groups.size();
  const std::size_t num_types = capacity_.size();

  std::vector<double>& lambda = ws.lambda_;
  lambda.assign(num_types, 0.0);

  // Scale the subgradient step by the *median* cost so the multipliers are
  // commensurate with typical ζ values regardless of the utility units.
  // (The maximum would be hijacked by near-zero-utility outlier points whose
  // ζ explodes, collapsing every group to its minimum-resource candidate.)
  // abs_costs_ is maintained incrementally: full rebuild when the instance
  // is not clean, dirty-group segments only when it is (clean segments are
  // bitwise unchanged). The median is order-independent over the multiset,
  // so nth_element runs on a scratch copy with identical result.
  std::vector<double>& abs_costs = ws.abs_costs_;
  double cost_scale;
  if (!incremental) {
    abs_costs.resize(ws.vec_costs_.size());
    for (std::size_t i = 0; i < abs_costs.size(); ++i)
      abs_costs[i] = std::abs(ws.vec_costs_[i]);
    ws.sorted_valid_ = false;
    std::vector<double>& all_costs = ws.cost_scratch_;
    all_costs = abs_costs;
    std::nth_element(all_costs.begin(), all_costs.begin() + all_costs.size() / 2,
                     all_costs.end());
    cost_scale = std::max(all_costs[all_costs.size() / 2], 1e-9);
  } else if (!ws.sorted_valid_) {
    // First incremental solve after a full one: refresh the dirty segments,
    // then bootstrap the sorted mirror with a one-time full sort. Later
    // incremental solves maintain it by merge.
    for (std::uint32_t g : dirty) {
      const double* costs = ws.vec_costs_.data() + ws.cand_off_[g];
      double* dst = abs_costs.data() + ws.cand_off_[g];
      for (std::size_t c = 0; c < ws.group_size_[g]; ++c) dst[c] = std::abs(costs[c]);
    }
    ws.sorted_costs_ = abs_costs;
    std::sort(ws.sorted_costs_.begin(), ws.sorted_costs_.end());
    ws.sorted_valid_ = true;
    cost_scale = std::max(ws.sorted_costs_[ws.sorted_costs_.size() / 2], 1e-9);
  } else {
    // Batch multiset update of the sorted mirror: remove each dirty group's
    // previous |cost| values (still present in abs_costs_), insert the new
    // ones, in one merge sweep. The median read below is the same order
    // statistic nth_element selects over the same multiset — bit-identical.
    std::vector<double>& old_vals = ws.dirty_old_costs_;
    std::vector<double>& new_vals = ws.dirty_new_costs_;
    old_vals.clear();
    new_vals.clear();
    for (std::uint32_t g : dirty) {
      const double* costs = ws.vec_costs_.data() + ws.cand_off_[g];
      double* dst = abs_costs.data() + ws.cand_off_[g];
      for (std::size_t c = 0; c < ws.group_size_[g]; ++c) {
        old_vals.push_back(dst[c]);
        dst[c] = std::abs(costs[c]);
        new_vals.push_back(dst[c]);
      }
    }
    std::sort(old_vals.begin(), old_vals.end());
    std::sort(new_vals.begin(), new_vals.end());
    const std::vector<double>& sorted = ws.sorted_costs_;
    std::vector<double>& merged = ws.sorted_scratch_;
    merged.resize(sorted.size());
    std::size_t io = 0, in = 0, k = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const double v = sorted[i];
      if (io < old_vals.size() && old_vals[io] == v) {
        ++io;  // remove exactly one instance per retired value
        continue;
      }
      while (in < new_vals.size() && new_vals[in] <= v) merged[k++] = new_vals[in++];
      merged[k++] = v;
    }
    while (in < new_vals.size()) merged[k++] = new_vals[in++];
    HARP_CHECK(io == old_vals.size() && k == sorted.size());
    ws.sorted_costs_.swap(merged);
    cost_scale = std::max(ws.sorted_costs_[ws.sorted_costs_.size() / 2], 1e-9);
  }

  std::vector<std::size_t>& best_feasible = ws.best_feasible_;
  best_feasible.clear();
  double best_feasible_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t>& last_selection = ws.selection_;
  last_selection.assign(num_groups, 0);

  // The λ = 0 selection (per-group global cost minimum) — the ideal point —
  // is kept as a repair seed so a degenerate multiplier trajectory cannot
  // lock the solver into minimum-resource selections.
  // Cached per group under the same validity condition as abs_costs_: a
  // clean group's cost row is bitwise unchanged, so its argmin is too.
  std::vector<std::size_t>& ideal = ws.ideal_;
  if (!incremental) {
    ideal.assign(num_groups, 0);
    for (std::size_t g = 0; g < num_groups; ++g) {
      const double* costs = ws.cost_rows_[g];
      for (std::size_t c = 1; c < groups[g]->costs.size(); ++c)
        if (costs[c] < costs[ideal[g]]) ideal[g] = c;
    }
  } else {
    for (std::uint32_t g : dirty) {
      const double* costs = ws.cost_rows_[g];
      ideal[g] = 0;
      for (std::size_t c = 1; c < groups[g]->costs.size(); ++c)
        if (costs[c] < costs[ideal[g]]) ideal[g] = c;
    }
  }

  std::vector<int>& usage = ws.usage_;

  const int iterations = 120;
  // λ-trajectory buffers are sized for the full iteration budget so varying
  // break iterations never reallocate (zero-alloc steady state).
  if (ws.lambda_traj_.size() != static_cast<std::size_t>(iterations) * num_types)
    ws.lambda_traj_.resize(static_cast<std::size_t>(iterations) * num_types);
  if (ws.picks_traj_.size() != static_cast<std::size_t>(iterations) * num_groups)
    ws.picks_traj_.resize(static_cast<std::size_t>(iterations) * num_groups);
  if (ws.usage_traj_.size() != static_cast<std::size_t>(iterations) * num_types)
    ws.usage_traj_.resize(static_cast<std::size_t>(iterations) * num_types);
  const int prev_traj_iters = ws.traj_iters_;
  // The trajectory is rebuilt in place below; it is only valid again once
  // this solve completes (a HARP_CHECK abort mid-solve must not leave a
  // half-updated trajectory marked reusable).
  ws.traj_valid_ = false;
  bool in_sync = incremental;
  int sync_iters = 0;
  int recorded = 0;

  for (int it = 1; it <= iterations; ++it) {
    const std::size_t i = static_cast<std::size_t>(it - 1);
    double* traj_lambda = ws.lambda_traj_.data() + i * num_types;
    std::uint32_t* traj_picks = ws.picks_traj_.data() + i * num_groups;

    // Incremental replay: while this solve's λ is bitwise equal to the
    // cached trajectory, every clean group's argmin is a pure function of
    // unchanged inputs — reuse its cached pick and rescan only dirty
    // groups. The first divergence (or running past the cached trajectory)
    // permanently drops to full scans: λ now differs, so no cached pick can
    // be trusted for any later iteration.
    if (in_sync && (it > prev_traj_iters ||
                    std::memcmp(lambda.data(), traj_lambda, num_types * sizeof(double)) != 0))
      in_sync = false;
    int* traj_usage = ws.usage_traj_.data() + i * num_types;
    if (in_sync) {
      ++sync_iters;
      for (std::size_t g = 0; g < num_groups; ++g)
        last_selection[g] = traj_picks[g];
      // Usage follows by integer delta from the recorded row: the recorded
      // usage is the exact count over the recorded picks, and only dirty
      // groups' picks can differ from them. Integer addition is order-free,
      // so this equals the full recount bit for bit. The delta needs the
      // recorded pick's row *as it was recorded* — valid only while dirty
      // rows are bitwise unchanged (cost-only dirtiness); a row-mutating
      // dirty set recounts from scratch instead.
      const bool usage_by_delta = !ws.dirty_rows_changed_;
      usage.assign(traj_usage, traj_usage + num_types);
      for (std::uint32_t g : dirty) {
        const std::uint32_t old_pick = traj_picks[g];
        const std::size_t pick = scan_group_block(
            ws.vec_rows_.data() + ws.vec_off_[g], ws.vec_costs_.data() + ws.cand_off_[g],
            ws.group_size_[g], num_types, lambda.data(), ws.relaxed_.data());
        last_selection[g] = pick;
        traj_picks[g] = static_cast<std::uint32_t>(pick);
        if (usage_by_delta) {
          const int* old_row = ws.rows_[g] + static_cast<std::size_t>(old_pick) * num_types;
          const int* new_row = ws.rows_[g] + pick * num_types;
          for (std::size_t t = 0; t < num_types; ++t) usage[t] += new_row[t] - old_row[t];
        }
      }
      if (!usage_by_delta) {
        usage.assign(num_types, 0);
        for (std::size_t g = 0; g < num_groups; ++g) {
          const int* row = ws.rows_[g] + last_selection[g] * num_types;
          for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
        }
      }
      for (std::size_t t = 0; t < num_types; ++t) traj_usage[t] = usage[t];
    } else {
      // Per-group argmin of ζ + λ·r under the current multipliers.
      scan_all_groups(ws, lambda.data());
      for (std::size_t g = 0; g < num_groups; ++g)
        traj_picks[g] = static_cast<std::uint32_t>(last_selection[g]);
      std::memcpy(traj_lambda, lambda.data(), num_types * sizeof(double));
      usage.assign(num_types, 0);
      for (std::size_t g = 0; g < num_groups; ++g) {
        const int* row = ws.rows_[g] + last_selection[g] * num_types;
        for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
      }
      for (std::size_t t = 0; t < num_types; ++t) traj_usage[t] = usage[t];
    }
    recorded = it;
    bool feasible = true;
    for (std::size_t t = 0; t < num_types; ++t)
      if (usage[t] > capacity_[t]) feasible = false;
    if (feasible) {
      double cost = 0.0;
      for (std::size_t g = 0; g < num_groups; ++g)
        cost += ws.vec_costs_[ws.cand_off_[g] + last_selection[g]];
      if (cost < best_feasible_cost) {
        best_feasible_cost = cost;
        best_feasible = last_selection;
      }
    }

    // Subgradient step on the capacity violation.
    double step = 0.05 * cost_scale / std::sqrt(static_cast<double>(it));
    bool moved = false;
    for (std::size_t t = 0; t < num_types; ++t) {
      double violation =
          static_cast<double>(usage[t] - capacity_[t]) / std::max(capacity_[t], 1);
      double next = std::max(0.0, lambda[t] + step * violation);
      if (next != lambda[t]) moved = true;
      lambda[t] = next;
    }
    // λ fixed point: if no component changed, this iteration's selection,
    // usage, and violation repeat in every later iteration (steps only
    // shrink, and fl(λ + d) == λ implies fl(λ + d') == λ for any d' between
    // 0 and d by monotonicity of IEEE rounding; the max(0,·) clamp cases are
    // likewise stable). Recorded bests use strict <, so the repeats cannot
    // change the outcome — breaking here is exact, not approximate.
    if (!moved) break;
  }
  ws.traj_iters_ = recorded;
  ws.traj_valid_ = true;
  ws.last_sync_iters_ = sync_iters;

  // Final selection: repair the last relaxed selection, the ideal point,
  // and the minimum-footprint selection (the most likely to be feasible),
  // keeping the best feasible selection seen anywhere.
  // Cached like ideal_: a clean group's candidate footprints are structural
  // data the dirty contract guarantees unchanged.
  std::vector<std::size_t>& min_footprint = ws.min_footprint_;
  if (!incremental) {
    min_footprint.assign(num_groups, 0);
    for (std::size_t g = 0; g < num_groups; ++g)
      for (std::size_t c = 1; c < groups[g]->candidates.size(); ++c)
        if (groups[g]->candidates[c].erv.total_cores() <
            groups[g]->candidates[min_footprint[g]].erv.total_cores())
          min_footprint[g] = c;
  } else {
    for (std::uint32_t g : dirty) {
      min_footprint[g] = 0;
      for (std::size_t c = 1; c < groups[g]->candidates.size(); ++c)
        if (groups[g]->candidates[c].erv.total_cores() <
            groups[g]->candidates[min_footprint[g]].erv.total_cores())
          min_footprint[g] = c;
    }
  }
  std::vector<std::size_t>& trial = ws.repair_scratch_;
  for (int seed = 0; seed < 3; ++seed) {
    trial = seed == 0 ? last_selection : seed == 1 ? ideal : min_footprint;
    if (!repair(ws, trial)) continue;
    double cost = 0.0;
    for (std::size_t g = 0; g < num_groups; ++g)
      cost += ws.vec_costs_[ws.cand_off_[g] + trial[g]];
    if (cost < best_feasible_cost) {
      best_feasible_cost = cost;
      best_feasible = trial;
    }
  }
  // best_feasible empty -> co-allocation
}

void Allocator::solve_greedy(SolveWorkspace& ws) const {
  const std::vector<const AllocationGroup*>& groups = *ws.groups_;
  const std::size_t num_groups = groups.size();
  const std::size_t num_types = capacity_.size();

  // Start from each group's minimum-footprint candidate (fewest total cores,
  // cheapest among ties), then repeatedly apply the single upgrade with the
  // best cost reduction per added core while capacity allows.
  std::vector<std::size_t>& selection = ws.best_feasible_;
  selection.assign(num_groups, 0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const AllocationGroup& group = *groups[g];
    const double* costs = ws.cost_rows_[g];
    std::size_t pick = 0;
    for (std::size_t c = 1; c < group.candidates.size(); ++c) {
      int cur = group.candidates[pick].erv.total_cores();
      int cand = group.candidates[c].erv.total_cores();
      if (cand < cur || (cand == cur && costs[c] < costs[pick])) pick = c;
    }
    selection[g] = pick;
  }

  std::vector<int>& usage = ws.usage_;
  usage.assign(num_types, 0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const int* row = ws.rows_[g] + selection[g] * num_types;
    for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
  }
  bool feasible = true;
  for (std::size_t t = 0; t < num_types; ++t)
    if (usage[t] > capacity_[t]) feasible = false;
  if (!feasible) {
    if (!repair(ws, selection)) {
      selection.clear();
      return;
    }
    usage.assign(num_types, 0);
    for (std::size_t g = 0; g < num_groups; ++g) {
      const int* row = ws.rows_[g] + selection[g] * num_types;
      for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
    }
  }

  // Each group's cheapest candidate bounds any upgrade gain from that group:
  // gain = delta / max(added_cores, 1) <= delta <= costs[selected] − min
  // (the divisor is >= 1). Groups whose bound cannot strictly beat the
  // running best are skipped — exactly result-preserving because the
  // comparison below is a strict >, so a skipped group could never have won
  // — and groups already at their cheapest candidate (bound <= 0) drop out
  // of every future rescan, which is what makes the upgrade loop's rescans
  // cheap once most groups have converged.
  std::vector<double>& min_cost = ws.greedy_min_cost_;
  min_cost.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const double* costs = ws.cost_rows_[g];
    double mc = costs[0];
    for (std::size_t c = 1; c < groups[g]->candidates.size(); ++c)
      if (costs[c] < mc) mc = costs[c];
    min_cost[g] = mc;
  }

  while (true) {
    double best_gain = 0.0;
    std::size_t best_group = num_groups;
    std::size_t best_candidate = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const AllocationGroup& group = *groups[g];
      const int* rows = ws.rows_[g];
      const double* costs = ws.cost_rows_[g];
      if (!(costs[selection[g]] - min_cost[g] > best_gain)) continue;  // bound prune
      const int* current = rows + selection[g] * num_types;
      for (std::size_t c = 0; c < group.candidates.size(); ++c) {
        double delta = costs[selection[g]] - costs[c];
        if (delta <= 0.0) continue;
        // Feasibility of the swap.
        bool fits = true;
        int added_cores = 0;
        const int* candidate = rows + c * num_types;
        for (std::size_t t = 0; t < num_types && fits; ++t) {
          int diff = candidate[t] - current[t];
          added_cores += std::max(diff, 0);
          if (usage[t] + diff > capacity_[t]) fits = false;
        }
        if (!fits) continue;
        double gain = delta / static_cast<double>(std::max(added_cores, 1));
        if (gain > best_gain) {
          best_gain = gain;
          best_group = g;
          best_candidate = c;
        }
      }
    }
    if (best_group == num_groups) break;
    // Apply the swap with an incremental usage update.
    const int* old_row = ws.rows_[best_group] + selection[best_group] * num_types;
    const int* new_row = ws.rows_[best_group] + best_candidate * num_types;
    for (std::size_t t = 0; t < num_types; ++t) usage[t] += new_row[t] - old_row[t];
    selection[best_group] = best_candidate;
  }
}

void Allocator::solve_exhaustive(SolveWorkspace& ws) const {
  const std::vector<const AllocationGroup*>& groups = *ws.groups_;
  const std::size_t num_groups = groups.size();
  const std::size_t num_types = capacity_.size();

  std::vector<std::size_t>& best = ws.best_feasible_;
  best.clear();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t>& current = ws.selection_;
  current.assign(num_groups, 0);
  std::vector<int>& usage = ws.usage_;
  usage.assign(num_types, 0);

  // Depth-first enumeration with capacity pruning. Exponential — reference
  // solver for tests and the allocator ablation on small instances only.
  auto recurse = [&](auto&& self, std::size_t g, double cost) -> void {
    if (cost >= best_cost) return;
    if (g == num_groups) {
      best_cost = cost;
      best = current;
      return;
    }
    const AllocationGroup& group = *groups[g];
    const int* rows = ws.rows_[g];
    const double* costs = ws.cost_rows_[g];
    for (std::size_t c = 0; c < group.candidates.size(); ++c) {
      const int* row = rows + c * num_types;
      bool fits = true;
      for (std::size_t t = 0; t < num_types; ++t) {
        if (usage[t] + row[t] > capacity_[t]) {
          fits = false;
          break;  // first overflowing type decides — no need to scan the rest
        }
      }
      if (!fits) continue;
      for (std::size_t t = 0; t < num_types; ++t) usage[t] += row[t];
      current[g] = c;
      self(self, g + 1, cost + costs[c]);
      for (std::size_t t = 0; t < num_types; ++t) usage[t] -= row[t];
    }
  };
  recurse(recurse, 0, 0.0);
  // best empty if nothing feasible
}

}  // namespace harp::core
