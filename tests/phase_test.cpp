// Tests for the execution-stage extension (§7 outlook): phase-dependent
// behaviour in the model and simulator, stage notification, and the
// phase-aware HARP policy.
#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/harp/policy.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"
#include "src/sched/baselines.hpp"
#include "src/sim/runner.hpp"

namespace harp {
namespace {

model::AppBehavior two_phase_app() {
  model::AppBehavior app;
  app.name = "phased";
  app.framework = "openmp";
  app.adaptivity = model::AdaptivityType::kScalable;
  app.total_work_gi = 400;
  app.ipc = {1.0, 1.0};
  model::AppBehavior::Phase compute;
  compute.fraction = 0.5;
  compute.mem_fraction = 0.02;
  compute.ipc_scale = 1.2;
  model::AppBehavior::Phase memory;
  memory.fraction = 0.5;
  memory.mem_fraction = 0.9;
  memory.ipc_scale = 0.6;
  app.phases = {compute, memory};
  return app;
}

TEST(PhaseModel, PhaseAtProgress) {
  model::AppBehavior app = two_phase_app();
  EXPECT_EQ(app.phase_at(0.0), 0);
  EXPECT_EQ(app.phase_at(0.49), 0);
  EXPECT_EQ(app.phase_at(0.51), 1);
  EXPECT_EQ(app.phase_at(1.0), 1);
  model::AppBehavior single;
  single.ipc = {1.0, 1.0};
  EXPECT_EQ(single.phase_at(0.7), 0);
  EXPECT_FALSE(single.multi_phase());
  EXPECT_TRUE(app.multi_phase());
}

TEST(PhaseModel, BehaviorInPhaseAppliesOverrides) {
  model::AppBehavior app = two_phase_app();
  model::AppBehavior compute = app.behavior_in_phase(0);
  model::AppBehavior memory = app.behavior_in_phase(1);
  EXPECT_DOUBLE_EQ(compute.mem_fraction, 0.02);
  EXPECT_DOUBLE_EQ(memory.mem_fraction, 0.9);
  EXPECT_DOUBLE_EQ(compute.ipc[0], 1.2);
  EXPECT_DOUBLE_EQ(memory.ipc[0], 0.6);
  EXPECT_FALSE(compute.multi_phase());  // effective behaviour is single-stage
  EXPECT_THROW(app.behavior_in_phase(2), CheckFailure);
}

TEST(PhaseModel, CatalogValidatesPhases) {
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  model::AppBehavior bad = two_phase_app();
  bad.name = "bad-phases";
  bad.phases[0].fraction = 0.7;  // sums to 1.2
  EXPECT_THROW(catalog.add_app(bad), CheckFailure);
  EXPECT_THROW(catalog.add_app(catalog.app("ep.C")), CheckFailure);  // duplicate
  model::AppBehavior good = two_phase_app();
  EXPECT_NO_THROW(catalog.add_app(good));
  EXPECT_TRUE(catalog.has_app("phased"));
}

TEST(PhaseSim, RunnerReportsStageTransitions) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  catalog.add_app(two_phase_app());

  class PhaseProbe : public sim::Policy {
   public:
    std::string name() const override { return "probe"; }
    void attach(sim::RunnerApi& api) override { api_ = &api; }
    void tick() override {
      for (const sim::RunningAppInfo& app : api_->running_apps())
        phases_.insert(api_->app_phase(app.id));
    }
    sim::RunnerApi* api_ = nullptr;
    std::set<int> phases_;
  };
  PhaseProbe probe;
  sim::ScenarioRunner runner(hw, catalog, model::Scenario{"phased", {{"phased", 0.0}}},
                             sim::RunOptions{});
  sim::RunResult result = runner.run(probe);
  EXPECT_EQ(result.apps[0].completions, 1);
  EXPECT_EQ(probe.phases_, (std::set<int>{0, 1}));
}

TEST(PhaseSim, MemoryStageIsSlowerOnSameAllocation) {
  // The memory stage's effective behaviour must actually bite: the same app
  // on the same machine progresses slower per second in stage 1 than 0.
  platform::HardwareDescription hw = platform::raptor_lake();
  model::AppBehavior app = two_phase_app();
  model::AppRates compute = model::exclusive_rates(
      app.behavior_in_phase(0), hw, platform::ExtendedResourceVector::full(hw), 0.0);
  model::AppRates memory = model::exclusive_rates(
      app.behavior_in_phase(1), hw, platform::ExtendedResourceVector::full(hw), 0.0);
  EXPECT_GT(compute.useful_gips, 2.0 * memory.useful_gips);
}

TEST(PhasePolicy, KeepsPerStageTables) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  model::AppBehavior app = two_phase_app();
  app.total_work_gi = 3000;  // long enough to learn both stages
  catalog.add_app(app);

  core::HarpOptions options;
  options.phase_aware = true;
  core::HarpPolicy policy(options);
  sim::RunOptions run_options;
  run_options.repeat_horizon = 90.0;
  sim::ScenarioRunner runner(hw, catalog, model::Scenario{"phased", {{"phased", 0.0}}},
                             run_options);
  (void)runner.run(policy);

  auto tables = policy.tables();
  ASSERT_TRUE(tables.count("phased#0") == 1) << "missing stage-0 table";
  ASSERT_TRUE(tables.count("phased#1") == 1) << "missing stage-1 table";
  EXPECT_EQ(tables.count("phased"), 0u);  // no blurred joint table
  EXPECT_GT(tables.at("phased#0").size(), 3u);
  EXPECT_GT(tables.at("phased#1").size(), 3u);
  // The compute stage's best utility far exceeds the memory stage's.
  EXPECT_GT(tables.at("phased#0").utility_max(),
            1.5 * tables.at("phased#1").utility_max());
}

// Regression: a phase-aware policy handed learned per-stage tables installed
// only the table of the stage an app started in; on entering stage 1 it
// created an empty "<name>#1" table and relearned that stage from cold.
TEST(PhasePolicy, InstallsShippedTableOfEveryStage) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  model::AppBehavior app = two_phase_app();
  app.total_work_gi = 3000;
  catalog.add_app(app);
  model::Scenario scenario{"phased", {{"phased", 0.0}}};
  sim::RunOptions run_options;
  run_options.repeat_horizon = 90.0;

  core::HarpOptions options;
  options.phase_aware = true;
  core::HarpPolicy learner(options);
  (void)sim::ScenarioRunner(hw, catalog, scenario, run_options).run(learner);
  options.offline_tables = learner.tables();
  const core::OperatingPointTable& shipped = options.offline_tables.at("phased#1");
  ASSERT_GT(shipped.size(), 3u);

  core::HarpPolicy reuser(options);
  (void)sim::ScenarioRunner(hw, catalog, scenario, run_options).run(reuser);
  auto tables = reuser.tables();
  ASSERT_EQ(tables.count("phased#1"), 1u);
  for (const core::OperatingPoint& point : shipped.points()) {
    const core::OperatingPoint* kept = tables.at("phased#1").find(point.erv);
    ASSERT_NE(kept, nullptr) << point.erv.to_string(hw) << " was dropped";
    EXPECT_GE(kept->measurements, point.measurements) << point.erv.to_string(hw);
  }
}

TEST(PhasePolicy, DisabledByDefault) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  catalog.add_app(two_phase_app());
  core::HarpPolicy policy{core::HarpOptions{}};
  sim::RunOptions run_options;
  run_options.repeat_horizon = 20.0;
  sim::ScenarioRunner runner(hw, catalog, model::Scenario{"phased", {{"phased", 0.0}}},
                             run_options);
  (void)runner.run(policy);
  auto tables = policy.tables();
  EXPECT_EQ(tables.count("phased"), 1u);
  EXPECT_EQ(tables.count("phased#0"), 0u);
}

}  // namespace
}  // namespace harp
