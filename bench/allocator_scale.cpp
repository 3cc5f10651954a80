// Scale benchmark for the MMKP allocator's hot path: sweeps apps ×
// candidates × core-types on synthetic hardware and compares, per solver,
// the four cycle kinds the RM actually runs:
//
//   cold  — the one-shot solve(groups) overload: fresh workspace, usage rows
//           rebuilt, every scratch vector allocated per cycle. This is what
//           every cycle cost before the warm-started hot path existed.
//   full  — persistent SolveWorkspace + prepare()d groups, solved through
//           the structural (structure_changed = true) path with one cost
//           nudged per cycle: the solver runs in full but allocation-free on
//           reused buffers. This was the "warm" column before the
//           incremental path existed.
//   warm  — the dirty-subset path: same persistent workspace, one group's
//           cost nudged per cycle and passed as dirty = {0} with
//           structure_changed = false. The Lagrangian solver replays its
//           cached λ trajectory and rescans only the dirty group while the
//           multipliers stay in sync — the RM's steady-state cycle shape.
//   skip  — persistent workspace, instance unchanged: the fingerprint
//           matches and the cached result is replayed without solving
//           (dirty-tracked group caching upstream makes this the common case
//           for an idle steady-state machine).
//
// Emits BENCH_allocator_scale.json (schema: EXPERIMENTS.md "Benchmark JSON
// schema"). `--quick` shrinks the sweep for the `bench`-labelled ctest entry
// (and keeps the 1024×32×3 point the CI regression gate pins); `--out <path>`
// redirects the JSON. Every row records `"workers": 1` (the solver scans
// its groups serially), which keeps it keyed like the committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/common/rng.hpp"
#include "src/harp/allocator.hpp"
#include "src/platform/hardware.hpp"

using namespace harp;

namespace {

struct SweepPoint {
  int apps = 0;
  int candidates = 0;
  int core_types = 0;
};

/// Synthetic hardware with `core_types` types, each `capacity` cores wide.
/// Historical points use 4096 (wide enough that 1000-app instances stay
/// feasible while still contended); the 4096/10240-app points scale capacity
/// with the app count to keep the same contention regime.
platform::HardwareDescription synthetic_hw(int core_types, int capacity) {
  platform::HardwareDescription hw;
  hw.name = "synthetic-" + std::to_string(core_types) + "type";
  for (int t = 0; t < core_types; ++t) {
    platform::CoreType type;
    type.name = "t" + std::to_string(t);
    type.core_count = capacity;
    type.smt_width = 1;
    type.freq_ghz = 2.0 + 0.5 * t;
    type.base_gips = 4.0 + 2.0 * t;
    type.active_power_w = 1.0 + 0.5 * t;
    type.thread_power_w = 0.4;
    type.idle_power_w = 0.1;
    hw.core_types.push_back(type);
  }
  return hw;
}

std::vector<core::AllocationGroup> random_groups(const platform::HardwareDescription& hw,
                                                 const SweepPoint& point, harp::Rng& rng) {
  const int num_types = static_cast<int>(hw.core_types.size());
  std::vector<core::AllocationGroup> groups;
  groups.reserve(static_cast<std::size_t>(point.apps));
  for (int g = 0; g < point.apps; ++g) {
    core::AllocationGroup group;
    group.app_name = "app" + std::to_string(g);
    for (int c = 0; c < point.candidates; ++c) {
      std::vector<int> threads(static_cast<std::size_t>(num_types), 0);
      int total = 0;
      for (int t = 0; t < num_types; ++t) {
        threads[static_cast<std::size_t>(t)] = rng.uniform_int(0, 8);
        total += threads[static_cast<std::size_t>(t)];
      }
      if (total == 0) threads[0] = 1;
      core::OperatingPoint op;
      op.erv = platform::ExtendedResourceVector::from_threads(hw, threads);
      op.nfc.utility = 1.0;
      op.nfc.power_w = rng.uniform(0.5, 30.0);
      group.candidates.push_back(op);
      group.costs.push_back(rng.uniform(0.1, 10.0));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best-of-reps seconds per cycle for one (solver, mode) cell.
struct CellResult {
  double seconds_per_cycle = 0.0;
  bool feasible = false;
};

CellResult measure_cold(const core::Allocator& allocator,
                        const std::vector<core::AllocationGroup>& groups, int cycles) {
  CellResult cell;
  double best = -1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    auto t0 = std::chrono::steady_clock::now();
    core::AllocationResult result = allocator.solve(groups);
    double elapsed = seconds_since(t0);
    cell.feasible = result.feasible;
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  cell.seconds_per_cycle = best;
  return cell;
}

CellResult measure_full(const core::Allocator& allocator,
                        std::vector<core::AllocationGroup>& groups, int cycles) {
  std::vector<const core::AllocationGroup*> ptrs;
  ptrs.reserve(groups.size());
  for (const core::AllocationGroup& group : groups) ptrs.push_back(&group);
  core::SolveWorkspace ws;
  core::AllocationResult result;
  allocator.solve(ptrs, ws, result);  // warm the buffers outside the timer
  CellResult cell;
  double best = -1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    groups[0].costs[0] += 1e-9;  // dirty fingerprint: full solve, no alloc
    auto t0 = std::chrono::steady_clock::now();
    allocator.solve(ptrs, ws, result);
    double elapsed = seconds_since(t0);
    cell.feasible = result.feasible;
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  cell.seconds_per_cycle = best;
  return cell;
}

/// The dirty-subset warm path: one group repriced per cycle, solved with
/// dirty = {0} and structure_changed = false. `sync_iterations` reports the
/// Lagrangian λ-replay depth of the last cycle (0 for other solvers).
CellResult measure_warm(const core::Allocator& allocator,
                        std::vector<core::AllocationGroup>& groups, int cycles,
                        int& sync_iterations) {
  std::vector<const core::AllocationGroup*> ptrs;
  ptrs.reserve(groups.size());
  for (const core::AllocationGroup& group : groups) ptrs.push_back(&group);
  std::vector<std::uint32_t> dirty(1, 0);
  core::SolveWorkspace ws;
  core::AllocationResult result;
  allocator.solve(ptrs, ws, result);  // structural solve seeds the trajectory
  CellResult cell;
  double best = -1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    groups[0].costs[0] += 1e-9;
    auto t0 = std::chrono::steady_clock::now();
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, result);
    double elapsed = seconds_since(t0);
    cell.feasible = result.feasible;
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  sync_iterations = ws.last_sync_iterations();
  cell.seconds_per_cycle = best;
  return cell;
}

CellResult measure_skip(const core::Allocator& allocator,
                        std::vector<core::AllocationGroup>& groups, int cycles) {
  std::vector<const core::AllocationGroup*> ptrs;
  ptrs.reserve(groups.size());
  for (const core::AllocationGroup& group : groups) ptrs.push_back(&group);
  core::SolveWorkspace ws;
  core::AllocationResult result;
  allocator.solve(ptrs, ws, result);  // prime the replay cache
  CellResult cell;
  // Replays are sub-microsecond: time the whole batch, not single calls.
  auto t0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) allocator.solve(ptrs, ws, result);
  cell.seconds_per_cycle = seconds_since(t0) / cycles;
  cell.feasible = result.feasible;
  return cell;
}

const char* solver_name(core::SolverKind kind) {
  switch (kind) {
    case core::SolverKind::kLagrangian: return "lagrangian";
    case core::SolverKind::kGreedy: return "greedy";
    case core::SolverKind::kExhaustive: return "exhaustive";
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_allocator_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out path]\n", argv[0]);
      return 2;
    }
  }
  // The leading small point is the only one the exhaustive reference runs on.
  // Quick keeps 1024×32×3 — the point the CI regression gate compares.
  std::vector<SweepPoint> sweep = quick
      ? std::vector<SweepPoint>{{8, 4, 2}, {16, 8, 2}, {64, 8, 3}, {1024, 32, 3}}
      : std::vector<SweepPoint>{{8, 6, 2}, {16, 16, 2}, {64, 16, 3}, {256, 24, 3},
                                {1024, 32, 3}, {4096, 32, 3}, {10240, 32, 3}};

  std::printf("== Allocator scale: cold vs full vs warm-dirty vs skip cycles ==\n");
  std::printf("%-18s %-11s %12s %12s %12s %12s %8s %8s\n", "apps x cand x types", "solver",
              "cold[us]", "full[us]", "warm[us]", "skip[us]", "warm-x", "skip-x");

  json::Array results;
  for (const SweepPoint& point : sweep) {
    // Historical points keep the fixed 4096-core capacity (comparable across
    // revisions); the larger points scale it to stay in the same regime.
    const int capacity = std::max(4096, point.apps * 4);
    platform::HardwareDescription hw = synthetic_hw(point.core_types, capacity);
    harp::Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(point.apps) * 31u +
                  static_cast<std::uint64_t>(point.candidates));
    std::vector<core::AllocationGroup> groups = random_groups(hw, point, rng);
    std::vector<core::AllocationGroup> prepared = groups;
    for (core::AllocationGroup& group : prepared)
      group.prepare(static_cast<int>(hw.core_types.size()));

    for (core::SolverKind kind :
         {core::SolverKind::kLagrangian, core::SolverKind::kGreedy,
          core::SolverKind::kExhaustive}) {
      if (kind == core::SolverKind::kExhaustive &&
          (point.apps > 8 || point.candidates > 6))
        continue;  // exponential reference solver: small instances only
      if (kind == core::SolverKind::kGreedy && point.apps > 1024)
        continue;  // cold greedy is O(rounds·n·C): minutes per cycle past 1024
      core::Allocator allocator(hw, kind);
      // Few reps on big instances (each cold cycle is slow), more on small.
      const int cycles = std::max(3, 512 / point.apps);
      // Replays deep-copy the cached result (O(n) selections + core lists):
      // scale the batch down where a single replay is no longer trivial.
      const int skip_cycles = (quick ? 1000 : 10000) / (point.apps >= 4096 ? 10 : 1);
      CellResult cold = measure_cold(allocator, groups, cycles);
      CellResult full = measure_full(allocator, prepared, cycles);
      int sync_iterations = 0;
      CellResult warm = measure_warm(allocator, prepared, cycles, sync_iterations);
      CellResult skip = measure_skip(allocator, prepared, skip_cycles);

      double warm_x = warm.seconds_per_cycle > 0.0
                          ? cold.seconds_per_cycle / warm.seconds_per_cycle
                          : 0.0;
      double full_x = full.seconds_per_cycle > 0.0
                          ? cold.seconds_per_cycle / full.seconds_per_cycle
                          : 0.0;
      double skip_x = skip.seconds_per_cycle > 0.0
                          ? cold.seconds_per_cycle / skip.seconds_per_cycle
                          : 0.0;
      char label[48];
      std::snprintf(label, sizeof label, "%dx%dx%d", point.apps, point.candidates,
                    point.core_types);
      std::printf("%-18s %-11s %12.2f %12.2f %12.2f %12.3f %7.1fx %7.0fx\n", label,
                  solver_name(kind), cold.seconds_per_cycle * 1e6,
                  full.seconds_per_cycle * 1e6, warm.seconds_per_cycle * 1e6,
                  skip.seconds_per_cycle * 1e6, warm_x, skip_x);
      std::fflush(stdout);

      json::Object row;
      row["apps"] = json::Value(point.apps);
      row["candidates"] = json::Value(point.candidates);
      row["core_types"] = json::Value(point.core_types);
      row["solver"] = json::Value(solver_name(kind));
      row["workers"] = json::Value(1);
      row["cycles"] = json::Value(cycles);
      row["skip_cycles"] = json::Value(skip_cycles);
      row["feasible"] = json::Value(cold.feasible);
      row["cold_seconds_per_cycle"] = json::Value(cold.seconds_per_cycle);
      row["full_seconds_per_cycle"] = json::Value(full.seconds_per_cycle);
      row["warm_seconds_per_cycle"] = json::Value(warm.seconds_per_cycle);
      row["skip_seconds_per_cycle"] = json::Value(skip.seconds_per_cycle);
      row["warm_speedup_vs_cold"] = json::Value(warm_x);
      row["full_speedup_vs_cold"] = json::Value(full_x);
      row["skip_speedup_vs_cold"] = json::Value(skip_x);
      row["warm_sync_iterations"] = json::Value(sync_iterations);
      results.push_back(json::Value(std::move(row)));
    }
  }

  return bench::write_bench_file(out_path, "allocator_scale", std::move(results)) ? 0 : 1;
}
