// The HARP resource manager as a simulator policy (§4, §5).
//
// This is the full RM pipeline of Fig. 2: application registration, utility
// and power monitoring (perf IPS or the app's own metric, EnergAt-style
// energy attribution), operating-point tables with EMA smoothing, staged
// runtime exploration, MMKP allocation with Lagrangian relaxation, concrete
// spatially isolated core assignment, and the push of allocation decisions
// to applications (thread scaling for scalable apps, knob callbacks for
// custom apps, affinity only for static apps).
//
// Modes reproduce the paper's variants:
//   kOnline            — "HARP": operating points learned at runtime
//   kOffline           — "HARP (Offline)": tables from design-time DSE
// plus two switches:
//   apply_scaling = false  — "HARP (No Scaling)": allocations become pure
//                            affinity masks, thread counts stay default
//   apply_affinity = false — overhead-measurement mode (§6.6): the RM runs
//                            its full pipeline but libharp ignores the
//                            assignment messages, so apps schedule like CFS.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/energy/attribution.hpp"
#include "src/harp/decision_core.hpp"
#include "src/harp/exploration.hpp"
#include "src/harp/operating_point.hpp"
#include "src/sim/runner.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/metrics.hpp"

namespace harp::core {

struct HarpOptions {
  enum class Mode { kOnline, kOffline };
  Mode mode = Mode::kOnline;

  bool apply_scaling = true;
  bool apply_affinity = true;

  /// §7-outlook extension: maintain one operating-point table per execution
  /// stage (keyed "<name>#<stage>") for applications that notify the RM of
  /// stage transitions, and reallocate on every transition. Off by default
  /// — the paper's evaluation uses per-application tables.
  bool phase_aware = false;

  ExplorationConfig exploration;

  /// Pre-existing application profiles, keyed like the policy's tables
  /// (the application name, or "<name>#<stage>" under phase awareness): DSE
  /// tables in offline mode, or previously *learned* tables in online mode
  /// (the paper evaluates online HARP after its warm-up phase, §6.3/§6.5).
  std::map<std::string, OperatingPointTable> offline_tables;

  /// Overhead model: RM CPU charged per activity (stolen from app progress
  /// machine-wide) and the per-app management drag of the libharp hooks.
  double measurement_overhead_s = 120e-6;  ///< per app per measurement tick
  double realloc_overhead_s = 2.5e-3;      ///< per allocator invocation
  double message_overhead_s = 150e-6;      ///< per pushed reconfiguration
  double registration_overhead_s = 4e-3;   ///< per application registration
  double drag_base = 0.006;                ///< libharp hook drag, one app
  double drag_per_extra_app = 0.010;       ///< added per concurrent app

  /// Optional telemetry sinks (each may be null). The tracer receives
  /// allocation-cycle spans and grant/measurement/stage-transition instants;
  /// it is also propagated to the explorer and the MMKP allocator.
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
  /// When set, the policy pins this clock to the simulator time (api->now())
  /// at the top of every hook, so trace timestamps are sim seconds and runs
  /// are byte-reproducible regardless of host speed.
  telemetry::ManualClock* trace_clock = nullptr;
};

/// HARP RM driving the simulated machine. Operating-point tables persist
/// across application restarts (keyed by name), which is what lets repeated
/// executions converge during the learning-phase experiments (§6.5).
class HarpPolicy : public sim::Policy {
 public:
  explicit HarpPolicy(HarpOptions options);
  ~HarpPolicy() override;

  std::string name() const override;
  void attach(sim::RunnerApi& api) override;
  void on_app_start(sim::AppId id) override;
  void on_app_exit(sim::AppId id) override;
  void tick() override;

  /// Snapshot of all learned tables (Fig. 8 takes these every 5 s).
  std::map<std::string, OperatingPointTable> tables() const { return tables_; }
  /// True when every currently managed application reached the stable stage.
  bool all_stable() const;
  /// Stage of one application (by name); kInitial if unknown.
  MaturityStage stage_of(const std::string& app_name) const;
  /// RM-estimated cumulative energy (J) attributed to an app — compared
  /// against the simulator's ground truth by bench/energy_attribution.
  double attributed_energy_j(const std::string& app_name) const;

  /// Currently applied configuration per managed application (diagnostics).
  std::map<std::string, platform::ExtendedResourceVector> active_configs() const;
  /// Cached MMKP choice group of a managed application; null before its
  /// first allocation (diagnostics, the policy/daemon parity test).
  const AllocationGroup* group_of(const std::string& app_name) const;

 private:
  struct ManagedApp;

  void measurement_tick();
  void reallocate();
  void push_controls();
  std::vector<int> exploration_budget(const ManagedApp& app) const;
  /// Table key for an app: its name, plus "#<stage>" under phase awareness.
  std::string table_key(const ManagedApp& app) const;
  /// The table under the app's current key, installed on first use from
  /// `offline_tables` (or empty when no profile is shipped for that key).
  OperatingPointTable& table_of(const ManagedApp& app);
  const OperatingPointTable& table_of(const ManagedApp& app) const;

  HarpOptions options_;
  sim::RunnerApi* api_ = nullptr;
  std::unique_ptr<AppExplorer> explorer_;
  std::unique_ptr<energy::EnergyAttributor> attributor_;
  std::unique_ptr<DecisionCore> core_;

  std::map<std::string, OperatingPointTable> tables_;  // persists across restarts
  std::map<sim::AppId, std::unique_ptr<ManagedApp>> managed_;
  std::map<std::string, double> attributed_energy_;

  double next_measurement_time_ = 0.0;
  int stable_tick_counter_ = 0;
  bool needs_realloc_ = false;
  bool co_allocation_ = false;
  std::uint64_t alloc_cycles_ = 0;

  /// Counters resolved once in attach() (null when metrics are off).
  telemetry::Counter* reallocs_counter_ = nullptr;
  telemetry::Counter* measurements_counter_ = nullptr;
  telemetry::Counter* stage_transitions_counter_ = nullptr;

  // Capacity left unassigned by the last MMKP solve, per core type.
  std::vector<int> unassigned_cores_;
};

}  // namespace harp::core
