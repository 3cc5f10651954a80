// The RM decision core shared by HarpPolicy and RmServer: the cached
// incremental cycle must equal a cold solve under arbitrary churn, the skip
// test must never swallow a new key, and the simulator policy and the
// daemon must build the same group from the same table and grant the same
// points decision by decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/rng.hpp"
#include "src/harp/decision_core.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/policy.hpp"
#include "src/harp/rm_server.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"
#include "src/sim/runner.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/trace.hpp"

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
  DecisionCore core(hw, nullptr, &metrics);
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

/// The offline HarpPolicy's group for `app` when it holds `table`, read at
/// its first allocation (the run stops after one simulated second).
AllocationGroup policy_group(const platform::HardwareDescription& hw,
                             const model::WorkloadCatalog& catalog, const std::string& app,
                             const OperatingPointTable& table) {
  HarpOptions options;
  options.mode = HarpOptions::Mode::kOffline;
  options.offline_tables[app] = table;
  HarpPolicy policy(options);
  AllocationGroup simulated;
  sim::RunOptions run;
  run.max_sim_seconds = 1.0;
  run.tick_hook = [&](double) {
    if (simulated.candidates.empty())
      if (const AllocationGroup* group = policy.group_of(app)) simulated = *group;
  };
  sim::ScenarioRunner runner(hw, catalog, model::Scenario{app, {{app, 0.0}}}, run);
  (void)runner.run(policy);
  return simulated;
}

ipc::OperatingPointsMsg points_msg(const OperatingPointTable& table) {
  ipc::OperatingPointsMsg msg;
  for (const OperatingPoint& p : table.points(0))
    msg.points.push_back({p.erv, p.nfc.utility, p.nfc.power_w});
  return msg;
}

/// The daemon's group for a client that registers as `app` and submits
/// `table`'s points.
AllocationGroup daemon_group(const platform::HardwareDescription& hw, const std::string& app,
                             const OperatingPointTable& table) {
  RmServer rm(hw);
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  EXPECT_TRUE(app_end->send(ipc::Message(ipc::RegisterRequest{
                                1, app, ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  EXPECT_TRUE(app_end->send(ipc::Message(points_msg(table))).ok());
  rm.poll(0.0);
  std::vector<ExportedGroup> exported;
  rm.export_groups(exported);
  EXPECT_EQ(exported.size(), 1u);
  return exported.empty() ? AllocationGroup{} : *exported.front().group;
}

void expect_same_group(const AllocationGroup& simulated, const AllocationGroup& daemon) {
  ASSERT_FALSE(simulated.candidates.empty());
  ASSERT_EQ(simulated.candidates.size(), daemon.candidates.size());
  ASSERT_EQ(simulated.costs.size(), daemon.costs.size());
  for (std::size_t c = 0; c < daemon.candidates.size(); ++c) {
    EXPECT_EQ(simulated.candidates[c].erv, daemon.candidates[c].erv) << "candidate " << c;
    EXPECT_TRUE(same_bits(simulated.candidates[c].nfc.utility, daemon.candidates[c].nfc.utility));
    EXPECT_TRUE(same_bits(simulated.candidates[c].nfc.power_w, daemon.candidates[c].nfc.power_w));
    EXPECT_TRUE(same_bits(simulated.costs[c], daemon.costs[c])) << "candidate " << c;
  }
}

// The standing guard against the simulator policy and the daemon drifting
// apart: for every Raptor Lake catalog app, the offline policy's group and
// the daemon's group for the same DSE table are the same candidates at the
// same costs.
TEST(PolicyDaemonParity, OfflinePolicyGroupEqualsDaemonGroup) {
  const platform::HardwareDescription hw = platform::raptor_lake();
  const model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  ASSERT_EQ(catalog.apps().size(), 17u);
  for (const model::AppBehavior& app : catalog.apps()) {
    SCOPED_TRACE(app.name);
    ASSERT_NE(app.adaptivity, model::AdaptivityType::kStatic);  // no thread cap in play
    const OperatingPointTable table = run_offline_dse(app, hw);
    expect_same_group(policy_group(hw, catalog, app.name, table),
                      daemon_group(hw, app.name, table));
  }
}

// The 5 % filter runs in both drivers: a point under 5 % of the best
// utility that is on the Pareto front (it draws the least power) and is not
// the smallest footprint leaves the group in the daemon as in the policy.
TEST(PolicyDaemonParity, SubFivePercentPointIsFilteredByBoth) {
  const platform::HardwareDescription hw = platform::raptor_lake();
  const model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  using platform::ExtendedResourceVector;
  const ExtendedResourceVector useless = ExtendedResourceVector::from_threads(hw, {0, 2});
  OperatingPointTable table("mg.C");
  table.set_point(ExtendedResourceVector::from_threads(hw, {8, 8}), NonFunctional{100.0, 50.0});
  table.set_point(ExtendedResourceVector::from_threads(hw, {0, 1}), NonFunctional{10.0, 2.0});
  table.set_point(useless, NonFunctional{1.0, 0.5});

  const AllocationGroup daemon = daemon_group(hw, "mg.C", table);
  expect_same_group(policy_group(hw, catalog, "mg.C", table), daemon);
  for (const OperatingPoint& p : daemon.candidates) EXPECT_NE(p.erv, useless);
}

/// One allocation decision as its driver reported it: the managed apps in
/// group order and, unless it co-allocated, the granted ERV of each.
struct Decision {
  std::vector<std::string> apps;
  bool feasible = false;
  std::vector<std::string> grants;
  bool operator==(const Decision&) const = default;
};

/// Forwards to HarpPolicy and records its decisions from the trace: the
/// grant instants between an allocation cycle's begin and end events.
class DecisionRecorder : public sim::Policy {
 public:
  DecisionRecorder(HarpPolicy& inner, telemetry::Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string name() const override { return inner_.name(); }
  void attach(sim::RunnerApi& api) override {
    api_ = &api;
    inner_.attach(api);
  }
  void on_app_start(sim::AppId id) override {
    for (const sim::RunningAppInfo& info : api_->running_apps())
      if (info.id == id) names_[id] = info.behavior->name;
    inner_.on_app_start(id);
  }
  void on_app_exit(sim::AppId id) override {
    names_.erase(id);
    inner_.on_app_exit(id);
  }
  void tick() override {
    const std::uint64_t before = tracer_.recorded();
    inner_.tick();
    for (const telemetry::TraceEvent& e : tracer_.events()) {
      if (e.seq < before) continue;
      if (e.type == telemetry::EventType::kAllocCycle && e.phase == telemetry::Phase::kBegin) {
        Decision& d = decisions.emplace_back();
        for (const auto& [id, name] : names_) d.apps.push_back(name);
      } else if (e.type == telemetry::EventType::kGrant) {
        decisions.back().grants.push_back(e.str.front().second);
      } else if (e.type == telemetry::EventType::kAllocCycle) {
        decisions.back().feasible = e.num.front().second == 1.0;
      }
    }
  }

  std::vector<Decision> decisions;

 private:
  HarpPolicy& inner_;
  telemetry::Tracer& tracer_;
  sim::RunnerApi* api_ = nullptr;
  std::map<sim::AppId, std::string> names_;
};

// ROADMAP item 3's acceptance: in all 8 Raptor Lake multi-app scenarios the
// offline simulator policy and a daemon fed the same DSE tables in the same
// arrival order grant the same operating points, decision by decision. The
// daemon decides when its app set changes; the policy also re-solves an
// unchanged set on its stable-regime interval, which must repeat its last
// decision.
TEST(DriverParity, MultiAppScenariosGrantTheSameSequence) {
  const platform::HardwareDescription hw = platform::raptor_lake();
  const model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  ASSERT_EQ(catalog.multi_scenarios().size(), 8u);
  for (const model::Scenario& scenario : catalog.multi_scenarios()) {
    SCOPED_TRACE(scenario.name);
    HarpOptions options;
    options.mode = HarpOptions::Mode::kOffline;
    for (const model::ScenarioApp& a : scenario.apps)
      options.offline_tables[a.app] = run_offline_dse(catalog.app(a.app), hw);
    telemetry::ManualClock clock;
    telemetry::Tracer tracer(&clock);
    options.tracer = &tracer;
    HarpPolicy policy(options);
    DecisionRecorder recorder(policy, tracer);
    sim::ScenarioRunner runner(hw, catalog, scenario, sim::RunOptions{});
    (void)runner.run(recorder);
    ASSERT_EQ(tracer.dropped(), 0u);

    std::vector<Decision> policy_decisions;
    for (const Decision& d : recorder.decisions) {
      if (!policy_decisions.empty() && policy_decisions.back().apps == d.apps) {
        EXPECT_EQ(d, policy_decisions.back());
        continue;
      }
      policy_decisions.push_back(d);
    }
    ASSERT_GE(policy_decisions.size(), scenario.apps.size());

    // The daemon, driven through the same app-set changes.
    RmServerOptions rm_options;
    rm_options.lease_seconds = 0;
    RmServer rm(hw, rm_options);
    std::vector<std::pair<std::string, std::unique_ptr<ipc::Channel>>> clients;
    std::int32_t next_pid = 1;
    for (std::size_t k = 0; k < policy_decisions.size(); ++k) {
      const std::vector<std::string>& apps = policy_decisions[k].apps;
      std::erase_if(clients, [&](auto& client) {
        if (std::find(apps.begin(), apps.end(), client.first) != apps.end()) return false;
        EXPECT_TRUE(client.second->send(ipc::Message(ipc::Deregister{})).ok());
        return true;
      });
      for (const std::string& app : apps) {
        if (std::any_of(clients.begin(), clients.end(),
                        [&](const auto& client) { return client.first == app; }))
          continue;
        auto [rm_end, app_end] = ipc::make_in_process_pair();
        rm.adopt_channel(std::move(rm_end));
        EXPECT_TRUE(app_end->send(ipc::Message(ipc::RegisterRequest{
                                      next_pid++, app, ipc::WireAdaptivity::kScalable, false}))
                        .ok());
        EXPECT_TRUE(app_end->send(ipc::Message(points_msg(options.offline_tables.at(app)))).ok());
        clients.emplace_back(app, std::move(app_end));
      }
      rm.poll(static_cast<double>(k));

      Decision daemon;
      daemon.feasible = true;
      for (const auto& [app, channel] : clients) {
        daemon.apps.push_back(app);
        std::optional<ipc::ActivateMsg> latest;
        while (true) {
          auto polled = channel->poll();
          if (!polled.ok() || !polled.value().has_value()) break;
          if (const auto* a = std::get_if<ipc::ActivateMsg>(&*polled.value())) latest = *a;
        }
        ASSERT_TRUE(latest.has_value()) << app << " got no activation in decision " << k;
        if (latest->cores.empty()) daemon.feasible = false;  // co-allocation
        daemon.grants.push_back(latest->erv.to_string(hw));
      }
      if (!daemon.feasible) daemon.grants.clear();
      EXPECT_EQ(daemon, policy_decisions[k]) << "decision " << k;
    }
  }
}

}  // namespace
}  // namespace harp::core
