// Cross-cutting property suites (TEST_P sweeps) over the whole stack:
// behaviour-model monotonicity, cost-function invariances, DSE table
// invariants for every catalog application, attribution conservation, and
// allocator sanity under randomized inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/energy/attribution.hpp"
#include "src/harp/allocator.hpp"
#include "src/harp/dse.hpp"
#include "src/model/catalog.hpp"
#include "src/platform/hardware.hpp"

namespace harp {
namespace {

// ---------------------------------------------------------------------------
// DSE table invariants for every application of both catalogs.
// ---------------------------------------------------------------------------

// gtest prints a parameter without operator<< as its raw bytes, and CTest
// discovery puts that print into each test's name. The names are kept inline
// (no heap pointers) so every build prints, and names, the cases the same way.
struct DseCase {
  char platform[8];
  char app[56];

  DseCase(const std::string& platform_name, const std::string& app_name) : platform{}, app{} {
    HARP_CHECK(platform_name.size() < sizeof(platform) && app_name.size() < sizeof(app));
    platform_name.copy(platform, platform_name.size());
    app_name.copy(app, app_name.size());
  }
  bool on_raptor() const { return std::string(platform) == "raptor"; }
};

std::vector<DseCase> all_dse_cases() {
  std::vector<DseCase> cases;
  model::WorkloadCatalog raptor = model::WorkloadCatalog::raptor_lake();
  model::WorkloadCatalog odroid = model::WorkloadCatalog::odroid();
  for (const model::AppBehavior& app : raptor.apps()) cases.push_back({"raptor", app.name});
  for (const model::AppBehavior& app : odroid.apps()) cases.push_back({"odroid", app.name});
  return cases;
}

class DseTableProperty : public ::testing::TestWithParam<DseCase> {};

TEST_P(DseTableProperty, TablesAreWellFormed) {
  const DseCase& c = GetParam();
  platform::HardwareDescription hw =
      c.on_raptor() ? platform::raptor_lake() : platform::odroid_xu3e();
  model::WorkloadCatalog catalog = c.on_raptor()
                                       ? model::WorkloadCatalog::raptor_lake()
                                       : model::WorkloadCatalog::odroid();
  core::OperatingPointTable table = core::run_offline_dse(catalog.app(c.app), hw);

  ASSERT_FALSE(table.empty());
  double v_max = table.utility_max();
  EXPECT_GT(v_max, 0.0);
  for (const core::OperatingPoint& p : table.points(0)) {
    EXPECT_TRUE(p.erv.fits(hw)) << p.erv.to_string(hw);
    EXPECT_GT(p.nfc.utility, 0.0);
    EXPECT_GT(p.nfc.power_w, 0.0);
    EXPECT_LE(p.nfc.utility, v_max + 1e-9);
    double zeta = table.cost_of(p);
    EXPECT_TRUE(std::isfinite(zeta));
    EXPECT_GT(zeta, 0.0);
  }
  // The table must contain a small configuration (multi-app feasibility).
  bool has_small = false;
  for (const core::OperatingPoint& p : table.points(0))
    if (p.erv.total_cores() <= 2) has_small = true;
  EXPECT_TRUE(has_small);
}

INSTANTIATE_TEST_SUITE_P(AllApps, DseTableProperty, ::testing::ValuesIn(all_dse_cases()),
                         [](const ::testing::TestParamInfo<DseCase>& info) {
                           std::string name = std::string(info.param.platform) + "_" +
                                              std::string(info.param.app);
                           for (char& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Behaviour-model monotonicity across the catalog.
// ---------------------------------------------------------------------------

class ModelMonotonicity : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelMonotonicity, MoreEfficientCoresNeverReduceUsefulRate) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  const model::AppBehavior& app = catalog.app(GetParam());
  if (app.contention > 0.0 || app.contention_quadratic > 0.0)
    GTEST_SKIP() << "contended apps legitimately slow down with more threads";
  // With full rebalancing, growing the E-core allocation monotonically
  // grows (or keeps) the useful rate.
  double previous = 0.0;
  for (int e = 1; e <= 16; ++e) {
    platform::ExtendedResourceVector erv =
        platform::ExtendedResourceVector::from_threads(hw, {4, e});
    double rate = model::exclusive_rates(app, hw, erv, 1.0).useful_gips;
    EXPECT_GE(rate, previous - 1e-9) << "at E=" << e;
    previous = rate;
  }
}

TEST_P(ModelMonotonicity, PowerGrowsWithAllocation) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  const model::AppBehavior& app = catalog.app(GetParam());
  double previous = 0.0;
  for (int e = 1; e <= 16; ++e) {
    platform::ExtendedResourceVector erv =
        platform::ExtendedResourceVector::from_threads(hw, {0, e});
    double power = model::exclusive_rates(app, hw, erv, 1.0).power_w;
    EXPECT_GT(power, previous) << "at E=" << e;
    previous = power;
  }
}

TEST_P(ModelMonotonicity, MeasuredIpsNeverBelowUseful) {
  platform::HardwareDescription hw = platform::raptor_lake();
  model::WorkloadCatalog catalog = model::WorkloadCatalog::raptor_lake();
  const model::AppBehavior& app = catalog.app(GetParam());
  for (const platform::ExtendedResourceVector& erv :
       {platform::ExtendedResourceVector::from_threads(hw, {4, 0}),
        platform::ExtendedResourceVector::from_threads(hw, {4, 8}),
        platform::ExtendedResourceVector::full(hw)}) {
    model::AppRates rates = model::exclusive_rates(app, hw, erv, 0.0);
    EXPECT_GE(rates.measured_gips, rates.useful_gips - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RaptorApps, ModelMonotonicity,
                         ::testing::Values("ep.C", "mg.C", "lu.C", "cg.C", "ft.C", "vgg",
                                           "fractal", "seismic", "binpack"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Cost-function invariances.
// ---------------------------------------------------------------------------

TEST(CostInvariance, UtilityUnitsDoNotChangeRanking) {
  // ζ ranking must be invariant under rescaling the utility metric (IPS vs
  // transactions/s): HARP normalises by v_max.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    core::NonFunctional a{rng.uniform(1.0, 50.0), rng.uniform(1.0, 100.0)};
    core::NonFunctional b{rng.uniform(1.0, 50.0), rng.uniform(1.0, 100.0)};
    double v_max = std::max(a.utility, b.utility);
    bool a_better = core::energy_utility_cost(a, v_max) < core::energy_utility_cost(b, v_max);

    double scale = rng.uniform(0.01, 1000.0);
    core::NonFunctional a2{a.utility * scale, a.power_w};
    core::NonFunctional b2{b.utility * scale, b.power_w};
    double v_max2 = v_max * scale;
    bool a_better2 =
        core::energy_utility_cost(a2, v_max2) < core::energy_utility_cost(b2, v_max2);
    EXPECT_EQ(a_better, a_better2);
  }
}

TEST(CostInvariance, CostIsEdpShaped) {
  // Halving utility at equal power quadruples ζ (delay enters twice).
  core::NonFunctional full{40.0, 10.0};
  core::NonFunctional half{20.0, 10.0};
  double zf = core::energy_utility_cost(full, 40.0);
  double zh = core::energy_utility_cost(half, 40.0);
  EXPECT_NEAR(zh / zf, 4.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Attribution conservation under random loads.
// ---------------------------------------------------------------------------

TEST(AttributionProperty, DynamicEnergyIsConserved) {
  platform::HardwareDescription hw = platform::raptor_lake();
  energy::EnergyAttributor attributor(hw);
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    int apps = rng.uniform_int(1, 6);
    std::vector<std::vector<double>> cpu(static_cast<std::size_t>(apps));
    double busy = 0.0;
    for (auto& row : cpu) {
      row = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 8.0)};
      busy += row[0] + row[1];
    }
    if (busy < 1e-6) continue;
    double window = rng.uniform(0.1, 5.0);
    double dynamic = rng.uniform(1.0, 500.0);
    std::vector<double> out =
        attributor.attribute(dynamic + attributor.idle_baseline_w() * window, window, cpu);
    double total = 0.0;
    for (double e : out) {
      EXPECT_GE(e, 0.0);
      total += e;
    }
    EXPECT_NEAR(total, dynamic, 1e-6 * std::max(dynamic, 1.0));
  }
}

// ---------------------------------------------------------------------------
// Allocator sanity under random group structures.
// ---------------------------------------------------------------------------

TEST(AllocatorProperty, SolutionsAlwaysRespectCapacity) {
  platform::HardwareDescription hw = platform::raptor_lake();
  core::Allocator allocator(hw);
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<core::AllocationGroup> groups;
    int n_apps = rng.uniform_int(1, 5);
    for (int a = 0; a < n_apps; ++a) {
      core::AllocationGroup group;
      group.app_name = "g" + std::to_string(a);
      int n = rng.uniform_int(1, 10);
      for (int c = 0; c < n; ++c) {
        core::OperatingPoint p;
        p.erv = platform::ExtendedResourceVector::from_threads(
            hw, {rng.uniform_int(0, 16), rng.uniform_int(0, 16)});
        if (p.erv.total_threads() == 0)
          p.erv = platform::ExtendedResourceVector::from_threads(hw, {0, 1});
        p.nfc.utility = rng.uniform(1.0, 100.0);
        p.nfc.power_w = rng.uniform(1.0, 100.0);
        group.candidates.push_back(p);
        group.costs.push_back(core::energy_utility_cost(p.nfc, 100.0));
      }
      groups.push_back(std::move(group));
    }
    core::AllocationResult result = allocator.solve(groups);
    if (!result.feasible) continue;
    // Capacity respected and concrete allocations disjoint.
    std::vector<int> usage(hw.core_types.size(), 0);
    std::set<std::pair<std::size_t, int>> cores_used;
    for (const platform::CoreAllocation& alloc : result.allocations) {
      for (std::size_t t = 0; t < alloc.cores.size(); ++t) {
        for (const auto& [core, threads] : alloc.cores[t]) {
          (void)threads;
          ++usage[t];
          EXPECT_TRUE(cores_used.insert({t, core}).second);
        }
      }
    }
    for (std::size_t t = 0; t < usage.size(); ++t)
      EXPECT_LE(usage[t], hw.core_types[t].core_count);
  }
}

}  // namespace
}  // namespace harp
