// The RM decision core shared by HarpPolicy and RmServer: the cached
// incremental cycle must equal a cold solve under arbitrary churn, the skip
// test must never swallow a new key, and the simulator policy and the
// daemon must finish the same table into the same group.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/harp/decision_core.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/policy.hpp"
#include "src/harp/rm_server.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"
#include "src/sim/runner.hpp"

namespace harp::core {
namespace {

/// One simulated application: a key, raw candidates, and its cache.
struct FakeApp {
  std::uint64_t key = 0;
  std::vector<OperatingPoint> points;
  std::uint64_t version = 0;
  CachedGroup cache;
};

/// Uniform index into a container of `size` elements.
std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(size) - 1));
}

std::vector<OperatingPoint> random_points(const platform::HardwareDescription& hw, Rng& rng) {
  std::vector<platform::ExtendedResourceVector> space = platform::enumerate_coarse_points(hw);
  std::vector<OperatingPoint> points;
  int count = rng.uniform_int(1, 6);
  for (int i = 0; i < count; ++i) {
    OperatingPoint& p = points.emplace_back();
    p.erv = space[pick(rng, space.size())];
    p.nfc.utility = rng.uniform(1.0, 100.0);
    p.nfc.power_w = rng.uniform(0.5, 40.0);
  }
  return points;
}

AllocationGroup build(const FakeApp& app) {
  AllocationGroup group;
  group.app_name = "app" + std::to_string(app.key);
  finish_group(app.points, group);
  return group;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(DecisionCore, CachedCycleMatchesColdSolveUnderChurn) {
  const platform::HardwareDescription hw = platform::raptor_lake();
  const Allocator cold(hw);
  telemetry::MetricsRegistry metrics;
  DecisionCore core(hw, SolverKind::kLagrangian, nullptr, &metrics);
  GrantMemo grants;
  Rng rng(15);
  std::vector<FakeApp> apps;
  std::uint64_t next_key = 1;
  std::vector<std::uint64_t> last_granted;
  int replays = 0, skips = 0, replayed_new_keys = 0;

  for (int cycle = 0; cycle < 200; ++cycle) {
    switch (apps.empty() ? 0 : rng.uniform_int(0, 6)) {
      case 0:  // arrival
        apps.emplace_back();
        apps.back().key = next_key++;
        apps.back().points = random_points(hw, rng);
        break;
      case 1:  // departure
        apps.erase(apps.begin() + static_cast<long>(pick(rng, apps.size())));
        break;
      case 2:  // reorder
        std::swap(apps[pick(rng, apps.size())], apps.back());
        break;
      case 3: {  // table edit
        FakeApp& app = apps[pick(rng, apps.size())];
        app.points = random_points(hw, rng);
        ++app.version;
        break;
      }
      case 4: {  // same table under a new key (a re-registration)
        FakeApp& app = apps[pick(rng, apps.size())];
        app.key = next_key++;
        app.cache.valid = false;
        break;
      }
      default:  // no change: the instance replays
        break;
    }
    if (apps.empty()) continue;

    core.begin_cycle();
    for (FakeApp& app : apps)
      core.add(app.key, app.cache, {}, app.version, [&app] { return build(app); });
    const AllocationResult& warm = core.solve();

    std::vector<AllocationGroup> groups;
    for (const FakeApp& app : apps) groups.push_back(build(app));
    AllocationResult reference = cold.solve(groups);
    ASSERT_EQ(warm.feasible, reference.feasible) << "cycle " << cycle;
    ASSERT_EQ(warm.selection, reference.selection) << "cycle " << cycle;
    ASSERT_TRUE(same_bits(warm.total_cost, reference.total_cost)) << "cycle " << cycle;
    ASSERT_EQ(warm.allocations.size(), reference.allocations.size());
    for (std::size_t g = 0; g < warm.allocations.size(); ++g)
      ASSERT_EQ(warm.allocations[g].cores, reference.allocations[g].cores) << "cycle " << cycle;

    bool new_key = false;
    for (std::uint64_t key : core.ids())
      if (std::find(last_granted.begin(), last_granted.end(), key) == last_granted.end())
        new_key = true;
    bool skip = grants.unchanged(core.replayed(), core.ids());
    if (new_key) {
      EXPECT_FALSE(skip) << "cycle " << cycle << " swallowed a new key";
    }
    if (skip) {
      EXPECT_EQ(core.ids(), last_granted);
    }
    replays += core.replayed() ? 1 : 0;
    replayed_new_keys += core.replayed() && new_key ? 1 : 0;
    skips += skip ? 1 : 0;
    if (!skip) last_granted = core.ids();
  }
  // The churn mix must exercise the dirty-subset path and every branch of
  // the skip test.
  EXPECT_GT(metrics.counter_value("rm_solve_incremental_total"), 0u);
  EXPECT_GT(replays, 0);
  EXPECT_GT(skips, 0);
  EXPECT_GT(replayed_new_keys, 0);
}

TEST(GrantMemo, NewKeyIsNeverSkippedEvenOnReplay) {
  GrantMemo grants;
  EXPECT_FALSE(grants.unchanged(true, {1, 2}));  // nothing granted yet
  EXPECT_TRUE(grants.unchanged(true, {1, 2}));
  EXPECT_FALSE(grants.unchanged(false, {1, 2}));  // a fresh solve always grants
  EXPECT_FALSE(grants.unchanged(true, {1, 3}));
  EXPECT_FALSE(grants.unchanged(true, {3, 1}));
  EXPECT_TRUE(grants.unchanged(true, {3, 1}));
  grants.forget();
  EXPECT_FALSE(grants.unchanged(true, {3, 1}));
}

// The standing guard against the policy's and the daemon's shared tail
// drifting apart: for a scalable app whose table has no sub-5 % points, the
// simulator policy's offline group and the daemon's group are the same
// candidates at the same costs.
TEST(PolicyDaemonParity, OfflinePolicyGroupEqualsDaemonGroup) {
  const platform::HardwareDescription hw = platform::raptor_lake();
  const model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  const model::AppBehavior& app = catalog.app("mg.C");
  ASSERT_NE(app.adaptivity, model::AdaptivityType::kStatic);
  const OperatingPointTable table = run_offline_dse(app, hw);
  std::vector<OperatingPoint> points = table.points(0);
  double best = 0.0;
  for (const OperatingPoint& p : points) best = std::max(best, p.nfc.utility);
  for (const OperatingPoint& p : points) ASSERT_GE(p.nfc.utility, 0.05 * best);

  HarpOptions options;
  options.mode = HarpOptions::Mode::kOffline;
  options.offline_tables[app.name] = table;
  HarpPolicy policy(options);
  AllocationGroup simulated;
  sim::RunOptions run;
  run.tick_hook = [&](double) {
    if (simulated.candidates.empty())
      if (const AllocationGroup* group = policy.group_of(app.name)) simulated = *group;
  };
  sim::ScenarioRunner runner(hw, catalog, model::Scenario{app.name, {{app.name, 0.0}}}, run);
  (void)runner.run(policy);
  ASSERT_FALSE(simulated.candidates.empty());

  RmServer rm(hw);
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  ipc::OperatingPointsMsg msg;
  for (const OperatingPoint& p : points)
    msg.points.push_back({p.erv, p.nfc.utility, p.nfc.power_w});
  ASSERT_TRUE(app_end->send(ipc::Message(ipc::RegisterRequest{
                                 1, app.name, ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  ASSERT_TRUE(app_end->send(ipc::Message(msg)).ok());
  rm.poll(0.0);
  std::vector<ExportedGroup> exported;
  rm.export_groups(exported);
  ASSERT_EQ(exported.size(), 1u);
  const AllocationGroup& daemon = *exported.front().group;

  ASSERT_EQ(simulated.candidates.size(), daemon.candidates.size());
  ASSERT_EQ(simulated.costs.size(), daemon.costs.size());
  for (std::size_t c = 0; c < daemon.candidates.size(); ++c) {
    EXPECT_EQ(simulated.candidates[c].erv, daemon.candidates[c].erv) << "candidate " << c;
    EXPECT_TRUE(same_bits(simulated.candidates[c].nfc.utility, daemon.candidates[c].nfc.utility));
    EXPECT_TRUE(same_bits(simulated.candidates[c].nfc.power_w, daemon.candidates[c].nfc.power_w));
    EXPECT_TRUE(same_bits(simulated.costs[c], daemon.costs[c])) << "candidate " << c;
  }
}

}  // namespace
}  // namespace harp::core
