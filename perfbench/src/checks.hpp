// Output checks of the three workloads, as pure functions over plain data so
// the self-test can feed each one a corrupted input and watch it fire.
// Every check returns an empty string when the output is correct and a
// description of the first violation otherwise.
#pragma once

#include <string>
#include <vector>

#include "src/ipc/messages.hpp"
#include "src/platform/hardware.hpp"

namespace perfbench {

using Grant = harp::ipc::ActivateMsg::CoreGrant;

/// Every grant names an existing core of its type with at most smt_width
/// busy threads, and no core appears twice within one grant.
std::string check_grant_valid(const harp::platform::HardwareDescription& hw,
                              const std::vector<Grant>& grant);

/// A grant realises its activation's resource vector: as many cores of each
/// type as the vector uses.
std::string check_grant_matches(const harp::platform::ExtendedResourceVector& erv,
                                const std::vector<Grant>& grant);

/// The exclusive grants held by different apps share no core. With valid
/// core ids this also bounds the granted cores of each type by its capacity.
std::string check_disjoint(const harp::platform::HardwareDescription& hw,
                           const std::vector<std::vector<Grant>>& grants);

/// Every live app holds an activation.
std::string check_all_hold(const std::vector<std::string>& apps, const std::vector<bool>& holds);

/// One simulated scenario run: per-app completion counts and the outcome.
struct SimOutcome {
  std::string scenario;
  std::vector<int> completions;
  double energy_j = 0.0;
  double makespan_s = 0.0;
};

/// Every app completed at least once.
std::string check_completed(const SimOutcome& run);

/// A repetition of a scenario with the same seed reproduced the reference
/// outcome bit for bit.
std::string check_identical(const SimOutcome& reference, const SimOutcome& repeat);

/// Feed every check above a correct and a corrupted input; returns the
/// checks that failed to pass the first or to fire on the second.
std::vector<std::string> self_test();

}  // namespace perfbench
