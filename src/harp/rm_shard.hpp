// Sharded multi-RM scale-out (DESIGN.md "Event loop & sharding").
//
// One RmServer handles every client on one thread; past ~10^5 clients the
// cycle is dominated by I/O drain even with readiness-driven dispatch. A
// ShardedRmServer splits the client population round-robin across N RmShard
// workers, each a full RmServer (event loop, lease reclamation, fault
// tolerance, telemetry, race checks all intact), and coordinates the one
// piece that cannot shard for free: the MMKP over the shared core budget.
// Two coordination modes:
//
//  - RebalanceMode::kDisabled — shards do I/O only; the coordinator merges
//    every shard's choice groups in global admission order and runs ONE
//    MMKP over the full platform, pushing activations back through the
//    owning shards. By construction this solves the identical instance a
//    single RmServer would (admission order == a single server's adoption
//    order, and the instance fingerprint excludes app identity), so
//    allocations are bit-equal to the unsharded server — the property the
//    200-seed equivalence test pins down.
//
//  - RebalanceMode::kLambdaDrift — each shard owns a disjoint slice of the
//    platform's cores (sub-budget) and solves its own MMKP against it, so
//    shards also parallelise the solve and can run on independent threads.
//    The coordinator watches each shard's Lagrangian multipliers λ (the
//    marginal cost of capacity): when the relative λ spread for a core type
//    stays above `lambda_drift_threshold` for `rebalance_min_cycles`
//    consecutive coordination rounds, it moves one core of that type from
//    the most slack shard (min λ) to the most contended one (max λ). The
//    hysteresis keeps budgets stable under noise; conservation is by
//    construction (budgets are lists of owned physical core ids — moving a
//    core is an erase on one list and an insert on another, so the union
//    is always exactly the platform and never overlaps).
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/harp/rm_server.hpp"

namespace harp::core {

enum class RebalanceMode : std::uint8_t {
  kDisabled,     ///< global solve in the coordinator; bit-equal to 1 server
  kLambdaDrift,  ///< per-shard budgets, λ-drift driven core migration
};

struct ShardedRmOptions {
  int num_shards = 2;
  RebalanceMode rebalance = RebalanceMode::kDisabled;
  /// kLambdaDrift: relative λ spread ((max−min)/max) beyond which a core
  /// type is considered contended on one shard and slack on another.
  double lambda_drift_threshold = 0.25;
  /// kLambdaDrift: consecutive coordination rounds the drift must persist
  /// before a core moves (hysteresis against transient load).
  int rebalance_min_cycles = 4;
  /// Per-shard server options. `external_solver` is overridden per mode;
  /// tracer/metrics sinks are shared by every shard and the coordinator.
  RmServerOptions server;
};

/// N sharded RmServers plus the budget/solve coordinator. Single-threaded
/// by default: poll() runs accept → every shard's cycle → coordination,
/// deterministically. start_threads() (kLambdaDrift only) moves each
/// shard's cycle onto its own blocking thread and leaves poll() with
/// accept + coordination.
class ShardedRmServer {
 public:
  ShardedRmServer(platform::HardwareDescription hw, ShardedRmOptions options = {});
  ~ShardedRmServer();
  ShardedRmServer(const ShardedRmServer&) = delete;
  ShardedRmServer& operator=(const ShardedRmServer&) = delete;

  /// Bind the registration socket; accepted clients are adopted round-robin
  /// across shards in accept order.
  Status listen(const std::string& socket_path);

  /// Adopt a connected channel into the next shard (round-robin) with the
  /// next global admission number.
  void adopt_channel(std::unique_ptr<ipc::Channel> channel);
  /// Adopt into a specific shard (tests); still consumes a global admission
  /// number so allocation order stays defined.
  void adopt_into_shard(int shard, std::unique_ptr<ipc::Channel> channel);

  /// One coordination round. Unthreaded: accept, run every shard's cycle in
  /// index order, then coordinate (global solve or rebalance check).
  /// Threaded: accept and coordinate only — shards cycle on their own
  /// threads against the wall clock.
  void poll(double now_seconds);

  /// Move each shard's cycle onto a dedicated blocking thread. kLambdaDrift
  /// only: the global-solve mode needs the lockstep cycle poll() provides.
  void start_threads();
  void stop_threads();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Direct shard access for tests and diagnostics.
  RmServer& shard(int index) { return *shards_[static_cast<std::size_t>(index)]; }
  const RmServer& shard(int index) const { return *shards_[static_cast<std::size_t>(index)]; }

  /// Connected clients across all shards.
  std::size_t client_count() const;
  /// Core moves performed since construction (kLambdaDrift).
  std::uint64_t rebalances() const;
  /// Global MMKP solves performed by the coordinator (kDisabled).
  std::uint64_t coordinator_solves() const;

  /// Current budget: owned physical core ids per shard per type
  /// (budgets[shard][type] = sorted core ids). Empty in kDisabled mode.
  std::vector<std::vector<std::vector<int>>> budgets() const;

 private:
  void coordinate_global_solve();
  void coordinate_rebalance();
  void shard_thread_main(int index);

  // Immutable after construction; shard threads read them lock-free. The
  // RmServer objects have their own locks for all mutable state.
  platform::HardwareDescription hw_;  // harp-lint: allow(all immutable after construction)
  ShardedRmOptions options_;          // harp-lint: allow(all immutable after construction)
  std::vector<std::unique_ptr<RmServer>> shards_;  // harp-lint: allow(all immutable after construction)

  /// Coordinator state. Guarded against the accessor/adoption surface; the
  /// shard servers have their own locks, so shard threads never contend on
  /// this one.
  mutable Mutex mutex_;
  std::unique_ptr<ipc::UnixServer> listener_ HARP_GUARDED_BY(mutex_);
  std::uint64_t next_admission_ HARP_GUARDED_BY(mutex_) = 0;
  std::uint64_t rebalances_ HARP_GUARDED_BY(mutex_) = 0;
  std::uint64_t coordinator_solves_ HARP_GUARDED_BY(mutex_) = 0;
  /// kLambdaDrift: owned core ids, budgets_[shard][type] (sorted).
  std::vector<std::vector<std::vector<int>>> budgets_ HARP_GUARDED_BY(mutex_);
  /// kLambdaDrift: consecutive rounds each core type's λ spread exceeded
  /// the threshold (hysteresis counters, one per type).
  std::vector<int> drift_rounds_ HARP_GUARDED_BY(mutex_);
  /// Scratch reused across coordination rounds (merge buffers, solver
  /// workspace/result, the instance's admissions) and the skip test.
  Allocator coordinator_allocator_ HARP_GUARDED_BY(mutex_);
  SolveWorkspace coordinator_ws_ HARP_GUARDED_BY(mutex_);
  AllocationResult coordinator_result_ HARP_GUARDED_BY(mutex_);
  std::vector<ExportedGroup> export_scratch_ HARP_GUARDED_BY(mutex_);
  std::vector<std::pair<int, ExportedGroup>> merged_ HARP_GUARDED_BY(mutex_);
  std::vector<const AllocationGroup*> group_ptrs_ HARP_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> admissions_ HARP_GUARDED_BY(mutex_);
  GrantMemo grants_ HARP_GUARDED_BY(mutex_);
  std::vector<std::vector<double>> lambda_scratch_ HARP_GUARDED_BY(mutex_);

  /// Shard threads (kLambdaDrift). stop flag is the only cross-thread
  /// signal; each shard's own wakeup() breaks it out of a blocked wait.
  std::vector<std::thread> threads_;  // harp-lint: allow(all started/joined by owner thread only)
  std::atomic<bool> stop_threads_{false};

  /// Per-shard cycle-latency histograms and the rebalance counter, resolved
  /// once at construction (null when metrics are off).
  std::vector<telemetry::Histogram*> cycle_histograms_;  // harp-lint: allow(all immutable after construction)
  telemetry::Counter* rebalances_counter_ = nullptr;  // harp-lint: allow(all immutable after construction)
  /// Tracer scope names ("shard0", "shard1", ...), precomputed so the
  /// per-cycle loop never builds strings.
  std::vector<std::string> shard_scopes_;  // harp-lint: allow(all immutable after construction)
};

}  // namespace harp::core
