// harp-lint: hot-path — solve() and the cached add() path run in every RM
// decision cycle; loop bodies must not construct vectors or strings.
#include "src/harp/decision_core.hpp"

#include <algorithm>
#include <utility>

#include "src/mlmodels/pareto.hpp"

namespace harp::core {

std::vector<std::size_t> pareto_front(const std::vector<OperatingPoint>& points) {
  std::vector<std::vector<double>> objectives;
  objectives.reserve(points.size());
  for (const OperatingPoint& p : points) {
    std::vector<double>& row = objectives.emplace_back();
    row.reserve(2 + static_cast<std::size_t>(p.erv.num_types()));
    row.push_back(-p.nfc.utility);
    row.push_back(p.nfc.power_w);
    for (int t = 0; t < p.erv.num_types(); ++t)
      row.push_back(static_cast<double>(p.erv.cores_used(t)));
  }
  return ml::pareto_front(objectives);
}

std::vector<OperatingPoint> fair_share_points(const platform::HardwareDescription& hw) {
  std::vector<platform::ExtendedResourceVector> ervs = platform::enumerate_coarse_points(hw);
  std::vector<OperatingPoint> points(ervs.size());
  for (std::size_t i = 0; i < ervs.size(); ++i) {
    OperatingPoint& p = points[i];
    p.erv = std::move(ervs[i]);
    p.nfc.utility = static_cast<double>(p.erv.total_threads());
    double power = 0.0;
    for (int t = 0; t < p.erv.num_types(); ++t)
      power += hw.core_types[static_cast<std::size_t>(t)].active_power_w * p.erv.cores_used(t);
    p.nfc.power_w = power;
  }
  return points;
}

double finish_group(const std::vector<OperatingPoint>& candidates, AllocationGroup& group,
                    std::vector<std::size_t>* front) {
  std::vector<std::size_t> kept = pareto_front(candidates);
  double v_max = 1e-9;
  for (std::size_t i : kept) v_max = std::max(v_max, candidates[i].nfc.utility);
  group.candidates.reserve(group.candidates.size() + kept.size());
  group.costs.reserve(group.costs.size() + kept.size());
  for (std::size_t i : kept) {
    group.candidates.push_back(candidates[i]);
    group.costs.push_back(energy_utility_cost(candidates[i].nfc, v_max));
  }
  if (front != nullptr) *front = std::move(kept);
  return v_max;
}

bool GrantMemo::unchanged(bool replayed, const std::vector<std::uint64_t>& keys) {
  if (replayed && keys == last_) return true;
  last_ = keys;
  return false;
}

DecisionCore::DecisionCore(platform::HardwareDescription hw, SolverKind solver,
                           telemetry::Tracer* tracer, telemetry::MetricsRegistry* metrics)
    : allocator_(std::move(hw), solver, tracer),
      num_types_(static_cast<int>(allocator_.hardware().core_types.size())) {
  if (metrics != nullptr) {
    group_rebuilds_ = &metrics->counter("rm_group_rebuilds_total");
    group_cache_hits_ = &metrics->counter("rm_group_cache_hits_total");
    solve_replays_ = &metrics->counter("rm_solve_replays_total");
    solve_incremental_ = &metrics->counter("rm_solve_incremental_total");
    groups_rescanned_ = &metrics->counter("rm_solve_groups_rescanned_total");
  }
}

void DecisionCore::begin_cycle() {
  groups_.clear();
  dirty_.clear();
  ids_.clear();
}

const AllocationResult& DecisionCore::solve() {
  const bool same_structure = ids_ == last_solve_ids_;
  last_solve_ids_ = ids_;
  allocator_.solve(groups_, dirty_, !same_structure, ws_, result_);
  if (ws_.replayed() && solve_replays_ != nullptr) solve_replays_->inc();
  if (ws_.last_mode() == SolveMode::kIncremental && solve_incremental_ != nullptr)
    solve_incremental_->inc();
  if (groups_rescanned_ != nullptr)
    groups_rescanned_->inc(static_cast<std::uint64_t>(ws_.last_rescanned_groups()));
  return result_;
}

}  // namespace harp::core
