// The RM decision core (§4.2, Figs. 2–4): the registration → table → MMKP →
// grant cycle minus how applications are driven. HarpPolicy (the
// simulator), RmServer (harpd) and DvfsHarpPolicy (the §7 frequency
// prototype) keep only their I/O, exploration and actuation, and share from
// here: the table → choice-group step (build_group: fair-share fallback,
// surrogate completion, thread cap, 5 % filter, Pareto filter + ζ costs,
// soft-QoS row), the per-application group cache, the incremental solve
// cycle with its rm_group_* / rm_solve_* counters, and the skip test. See
// DESIGN.md "One decision core, three drivers".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/harp/allocator.hpp"
#include "src/harp/exploration.hpp"
#include "src/harp/operating_point.hpp"
#include "src/model/qos.hpp"
#include "src/platform/hardware.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::core {

/// Indices of the points on the Pareto front over (−utility, power, cores
/// per type), all minimised.
std::vector<std::size_t> pareto_front(const std::vector<OperatingPoint>& points);

/// Append the Pareto front of `candidates` to `group`, each priced with ζ
/// against the front's best utility v_max, which is returned. `front`, when
/// non-null, receives the kept candidates' indices.
double finish_group(const std::vector<OperatingPoint>& candidates, AllocationGroup& group,
                    std::vector<std::size_t>* front = nullptr);

/// The table → choice-group step of every driver (§4.2, Fig. 2). `table` is
/// used as submitted or, when `learning`, as measured points completed by a
/// degree-`surrogate_degree` surrogate; without (measured) points the group
/// starts from fair-share points. `max_threads` > 0 caps hardware threads (a
/// static app); `qos` seeds fair-share utilities and adds the soft-QoS row.
/// Then the 5 % filter and finish_group.
AllocationGroup build_group(const platform::HardwareDescription& hw, std::string app_name,
                            const OperatingPointTable& table, bool learning, int max_threads,
                            const std::optional<model::QosSpec>& qos,
                            int surrogate_degree = ExplorationConfig{}.regression_degree);

/// One application's choice group, cached for the (table key, table
/// version) it was built from. Clearing `valid` forces a rebuild.
struct CachedGroup {
  AllocationGroup group;
  std::string key;
  std::uint64_t version = 0;
  bool valid = false;
};

/// The skip test. A solver replay means a byte-identical instance; if the
/// keys are also the ones last granted, every application already holds
/// this activation. A new or re-registered key never does.
class GrantMemo {
 public:
  /// True when `replayed` and `keys` equal the last granted keys; otherwise
  /// records `keys` as the last grant and returns false.
  bool unchanged(bool replayed, const std::vector<std::uint64_t>& keys);
  void forget() { last_.clear(); }

 private:
  std::vector<std::uint64_t> last_;
};

/// The solve cycle over cached groups: begin_cycle(), add() every
/// application in a stable order, solve(). Steady-state cycles (every group
/// cached) allocate nothing.
class DecisionCore {
 public:
  /// Solves with the paper's Lagrangian solver (§4.2.2).
  DecisionCore(platform::HardwareDescription hw, telemetry::Tracer* tracer,
               telemetry::MetricsRegistry* metrics);

  void begin_cycle();
  /// Append application `id`'s group. Unless `cache` is valid for (key,
  /// version) it is rebuilt through `build()` (returning an AllocationGroup)
  /// and joins the cycle's dirty set.
  template <typename Build>
  void add(std::uint64_t id, CachedGroup& cache, std::string_view key, std::uint64_t version,
           Build&& build) {
    if (cache.valid && cache.version == version && cache.key == key) {
      if (group_cache_hits_ != nullptr) group_cache_hits_->inc();
    } else {
      cache.group = build();
      cache.group.prepare(num_types_);
      cache.key.assign(key);
      cache.version = version;
      cache.valid = true;
      if (group_rebuilds_ != nullptr) group_rebuilds_->inc();
      dirty_.push_back(static_cast<std::uint32_t>(groups_.size()));
    }
    groups_.push_back(&cache.group);
    ids_.push_back(id);
  }
  /// Solve the cycle. It is incremental when the ids match the previous
  /// solve's position by position; arrivals, departures and reorderings
  /// change that sequence and force a structural solve.
  const AllocationResult& solve();

  /// The cycle's ids and groups in add() order, parallel to the result.
  const std::vector<std::uint64_t>& ids() const { return ids_; }
  const AllocationGroup& group(std::size_t g) const { return *groups_[g]; }
  /// True when the last solve replayed the previous instance's result.
  bool replayed() const { return ws_.replayed(); }

 private:
  Allocator allocator_;
  int num_types_;
  SolveWorkspace ws_;
  AllocationResult result_;
  std::vector<const AllocationGroup*> groups_;
  std::vector<std::uint32_t> dirty_;  ///< ascending positions rebuilt this cycle
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint64_t> last_solve_ids_;
  /// Null when metrics are off.
  telemetry::Counter* group_rebuilds_ = nullptr;
  telemetry::Counter* group_cache_hits_ = nullptr;
  telemetry::Counter* solve_replays_ = nullptr;
  telemetry::Counter* solve_incremental_ = nullptr;
  telemetry::Counter* groups_rescanned_ = nullptr;
};

}  // namespace harp::core
