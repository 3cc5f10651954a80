#include "perfbench/src/checks.hpp"

#include <cmath>
#include <set>
#include <utility>

namespace perfbench {

namespace hp = harp::platform;

std::string check_grant_valid(const hp::HardwareDescription& hw, const std::vector<Grant>& grant) {
  std::set<std::pair<int, int>> seen;
  for (const Grant& g : grant) {
    if (g.type < 0 || g.type >= static_cast<int>(hw.core_types.size()))
      return "grant names core type " + std::to_string(g.type);
    const hp::CoreType& type = hw.core_types[static_cast<std::size_t>(g.type)];
    if (g.core < 0 || g.core >= type.core_count)
      return "grant names " + type.name + " core " + std::to_string(g.core);
    if (g.threads < 1 || g.threads > type.smt_width)
      return "grant puts " + std::to_string(g.threads) + " threads on " + type.name + " core " +
             std::to_string(g.core);
    if (!seen.insert({g.type, g.core}).second)
      return "grant lists " + type.name + " core " + std::to_string(g.core) + " twice";
  }
  return "";
}

std::string check_grant_matches(const hp::ExtendedResourceVector& erv,
                                const std::vector<Grant>& grant) {
  std::vector<int> cores(static_cast<std::size_t>(erv.num_types()), 0);
  for (const Grant& g : grant) {
    if (g.type < 0 || g.type >= erv.num_types()) return "grant type outside the vector";
    ++cores[static_cast<std::size_t>(g.type)];
  }
  for (int t = 0; t < erv.num_types(); ++t)
    if (cores[static_cast<std::size_t>(t)] != erv.cores_used(t))
      return "grant has " + std::to_string(cores[static_cast<std::size_t>(t)]) +
             " cores of type " + std::to_string(t) + ", vector uses " +
             std::to_string(erv.cores_used(t));
  return "";
}

std::string check_disjoint(const hp::HardwareDescription& hw,
                           const std::vector<std::vector<Grant>>& grants) {
  std::set<std::pair<int, int>> owned;
  std::vector<int> per_type(hw.core_types.size(), 0);
  for (std::size_t app = 0; app < grants.size(); ++app) {
    for (const Grant& g : grants[app]) {
      if (!owned.insert({g.type, g.core}).second)
        return "core " + std::to_string(g.type) + "/" + std::to_string(g.core) +
               " granted to two apps";
      if (g.type >= 0 && g.type < static_cast<int>(per_type.size()) &&
          ++per_type[static_cast<std::size_t>(g.type)] >
              hw.core_types[static_cast<std::size_t>(g.type)].core_count)
        return "more " + hw.core_types[static_cast<std::size_t>(g.type)].name +
               " cores granted than exist";
    }
  }
  return "";
}

std::string check_all_hold(const std::vector<std::string>& apps, const std::vector<bool>& holds) {
  for (std::size_t i = 0; i < apps.size() && i < holds.size(); ++i)
    if (!holds[i]) return "live app '" + apps[i] + "' holds no activation";
  if (apps.size() != holds.size()) return "activation count differs from live apps";
  return "";
}

std::string check_completed(const SimOutcome& run) {
  for (std::size_t i = 0; i < run.completions.size(); ++i)
    if (run.completions[i] < 1)
      return run.scenario + ": app " + std::to_string(i) + " never completed";
  if (run.completions.empty()) return run.scenario + ": no apps ran";
  return "";
}

std::string check_identical(const SimOutcome& reference, const SimOutcome& repeat) {
  if (reference.scenario != repeat.scenario) return "compared different scenarios";
  if (reference.energy_j != repeat.energy_j || reference.makespan_s != repeat.makespan_s ||
      reference.completions != repeat.completions)
    return repeat.scenario + ": repetition differs from the first run";
  return "";
}

std::vector<std::string> self_test() {
  std::vector<std::string> broken;
  auto expect = [&](const char* name, const std::string& good, const std::string& bad) {
    if (!good.empty()) broken.push_back(std::string(name) + " rejects a correct input: " + good);
    if (bad.empty()) broken.push_back(std::string(name) + " misses a corrupted input");
  };

  const hp::HardwareDescription hw = hp::raptor_lake();
  const std::vector<Grant> a{{0, 0, 2}, {1, 3, 1}};
  const std::vector<Grant> b{{0, 1, 1}, {1, 4, 1}};
  expect("check_grant_valid", check_grant_valid(hw, a),
         check_grant_valid(hw, {{1, hw.core_types[1].core_count, 1}}));
  expect("check_grant_valid(threads)", check_grant_valid(hw, b),
         check_grant_valid(hw, {{1, 0, 2}}));

  hp::ExtendedResourceVector erv = hp::ExtendedResourceVector::from_counts({{0, 1}, {1}});
  expect("check_grant_matches", check_grant_matches(erv, a),
         check_grant_matches(erv, {{1, 4, 1}}));

  expect("check_disjoint", check_disjoint(hw, {a, b}),
         check_disjoint(hw, {a, {{1, 3, 1}}}));
  std::vector<std::vector<Grant>> too_many;
  for (int core = 0; core < hw.core_types[0].core_count; ++core)
    too_many.push_back({{0, core, 1}});
  too_many.push_back({{0, hw.core_types[0].core_count, 1}});
  expect("check_disjoint(capacity)", check_disjoint(hw, {a, b}), check_disjoint(hw, too_many));

  expect("check_all_hold", check_all_hold({"x", "y"}, {true, true}),
         check_all_hold({"x", "y"}, {true, false}));

  SimOutcome run{"ep+mg", {2, 3}, 100.5, 60.0};
  SimOutcome starved = run;
  starved.completions[1] = 0;
  expect("check_completed", check_completed(run), check_completed(starved));
  SimOutcome drifted = run;
  drifted.energy_j = std::nextafter(run.energy_j, 200.0);
  expect("check_identical", check_identical(run, run), check_identical(run, drifted));
  return broken;
}

}  // namespace perfbench
