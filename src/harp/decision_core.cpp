// harp-lint: hot-path — solve() and the cached add() path run in every RM
// decision cycle; loop bodies must not construct vectors or strings.
#include "src/harp/decision_core.hpp"

#include <algorithm>
#include <utility>

#include "src/common/check.hpp"
#include "src/mlmodels/pareto.hpp"

namespace harp::core {
namespace {

/// Fallback candidates for an application without operating points: one per
/// coarse configuration, utility = hardware threads (optimistic, so the MMKP
/// can still trade resources between described and undescribed apps),
/// power = Σ per-type active power of the cores used.
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

}  // namespace

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

AllocationGroup build_group(const platform::HardwareDescription& hw, std::string app_name,
                            const OperatingPointTable& table, bool learning, int max_threads,
                            const std::optional<model::QosSpec>& qos, int surrogate_degree) {
  AllocationGroup group;
  group.app_name = std::move(app_name);

  std::vector<OperatingPoint> candidates = table.points(learning ? 1 : 0);
  if (candidates.empty()) {
    // Fresh application: optimistic synthetic points (utility grows with
    // threads, power with active cores) so the allocator grants it room to
    // start (§5.3: "sufficient resources to new applications").
    candidates = fair_share_points(hw);
    if (qos.has_value()) {
      // Deadline apps declare their contract at registration; seed with the
      // analytic hit-rate of the allocation's raw issue capacity so
      // synthetic utilities live on the same [0, 1] scale measurements will
      // report.
      for (OperatingPoint& p : candidates) {
        double raw_gips = 0.0;
        for (int t = 0; t < p.erv.num_types(); ++t)
          raw_gips += hw.core_types[static_cast<std::size_t>(t)].base_gips *
                      static_cast<double>(p.erv.cores_used(t));
        p.nfc.utility =
            model::qos_utility(raw_gips / qos->work_per_request_gi, qos->nominal_rate_rps, *qos);
      }
    }
  } else if (learning) {
    // Measured points verbatim; unmeasured configurations approximated by
    // the regression surrogate (clamped positive — anomalies are exploration
    // targets, not allocation candidates).
    NfcModel surrogate(surrogate_degree);
    const auto dim =
        static_cast<int>(platform::ExtendedResourceVector::zero(hw).feature_vector().size());
    surrogate.fit(candidates, dim, /*zero_anchor=*/true);
    candidates.clear();
    for (const platform::ExtendedResourceVector& erv : enumerate_coarse_points(hw)) {
      OperatingPoint p;
      p.erv = erv;
      if (const OperatingPoint* known = table.find(erv); known != nullptr) {
        p = *known;
      } else {
        NonFunctional pred = surrogate.predict(erv);
        p.nfc.utility = std::max(pred.utility, 1e-3);
        p.nfc.power_w = std::max(pred.power_w, 1e-2);
      }
      candidates.push_back(std::move(p));
    }
  }

  if (max_threads > 0) {
    std::erase_if(candidates, [&](const OperatingPoint& p) {
      return p.erv.total_threads() > max_threads;
    });
    HARP_CHECK(!candidates.empty());
  }

  // Discard useless configurations (< 5 % of the app's best utility): their
  // ζ is orders of magnitude above anything sensible, and letting them into
  // the knapsack only distorts the Lagrangian multipliers. The smallest-
  // footprint candidate is always retained so a feasible selection exists.
  double v_best = 1e-9;
  for (const OperatingPoint& p : candidates) v_best = std::max(v_best, p.nfc.utility);
  std::size_t min_footprint = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i)
    if (candidates[i].erv.total_cores() < candidates[min_footprint].erv.total_cores())
      min_footprint = i;
  std::vector<OperatingPoint> kept;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (i == min_footprint || candidates[i].nfc.utility >= 0.05 * v_best)
      kept.push_back(candidates[i]);
  const double v_max = finish_group(kept, group);

  // Deadline apps carry a slack-priced soft-QoS row: candidates whose
  // (hit-rate-shaped) utility falls below the contract's min_hit_rate pay a
  // penalty proportional to the relative deficit, steering the MMKP toward
  // QoS-meeting points while degrading gracefully under overload.
  if (qos.has_value()) {
    AllocationGroup::SoftQos row;
    row.min_rate = qos->min_hit_rate * v_max;
    row.slack_weight = qos->slack_weight;
    row.rates.reserve(group.candidates.size());
    for (const OperatingPoint& p : group.candidates) row.rates.push_back(p.nfc.utility);
    group.qos = std::move(row);
  }
  return group;
}

bool GrantMemo::unchanged(bool replayed, const std::vector<std::uint64_t>& keys) {
  if (replayed && keys == last_) return true;
  last_ = keys;
  return false;
}

DecisionCore::DecisionCore(platform::HardwareDescription hw, telemetry::Tracer* tracer,
                           telemetry::MetricsRegistry* metrics)
    : allocator_(std::move(hw), SolverKind::kLagrangian, tracer),
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
