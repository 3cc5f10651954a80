// sim_learning: the paper's own experiment path — simulator, behaviour
// models, runtime exploration, regression and EnergAt attribution — with
// small MMKPs and no IPC.
//
// Online HarpPolicy starts from cold tables on every Raptor Lake multi-app
// scenario, with apps restarting on completion until a fixed horizon, so
// exploration passes through its initial, refinement and stable stages; an
// evaluation run to completion then starts from the learned tables. As in
// the paper's experiments the simulator seed is fixed, so the simulated
// energy and makespan are a bit-exact regression signal; --seed orders the
// scenarios of every pass. The run repeats passes, each of which must
// reproduce the first bit for bit.
//
// An op is a window of kWindowS simulated seconds of one run. Most simulated
// seconds only tick and the cost sits in the few that explore or re-solve;
// nearly every window holds some of those, so the op percentiles follow the
// work the simulator throughput measures rather than the idle seconds.
#include <algorithm>
#include <cinttypes>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/common.hpp"
#include "src/common/rng.hpp"
#include "src/harp/policy.hpp"
#include "src/model/catalog.hpp"
#include "src/sim/runner.hpp"

namespace perfbench {

namespace {

namespace hs = harp::sim;

constexpr double kHorizonS = 300.0;  // simulated seconds per learning run
constexpr int kWindowS = 10;         // simulated seconds per op
constexpr std::uint64_t kSimSeed = 1;
constexpr int kSetupRepeats = 51;  // at the start and again at the end
constexpr std::uint64_t kStableSample = 16;  // policy.stable_frac samples every 16th tick

/// Per-layer accounting of the traced passes.
struct LayerStats {
  double tick_s = 0.0;
  double hook_s = 0.0;
  double sense_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t sampled_ticks = 0;
  std::uint64_t stable_ticks = 0;
  std::uint64_t sense_calls = 0;
  std::uint64_t actuations = 0;
};

/// Forwards every RunnerApi call, timing and counting the sensing calls and
/// counting actuations.
class TimedRunner : public hs::RunnerApi {
 public:
  TimedRunner(hs::RunnerApi& inner, LayerStats& stats) : inner_(inner), stats_(stats) {}

  template <typename F>
  auto sense(F&& call) const -> decltype(call()) {
    const double t0 = now_s();
    auto value = call();
    stats_.sense_s += now_s() - t0;
    ++stats_.sense_calls;
    return value;
  }

  const harp::platform::HardwareDescription& hardware() const override { return inner_.hardware(); }
  const hs::SlotMap& slots() const override { return inner_.slots(); }
  double now() const override { return inner_.now(); }
  std::vector<hs::RunningAppInfo> running_apps() const override { return inner_.running_apps(); }
  double read_perf_gips(hs::AppId id) override {
    return sense([&] { return inner_.read_perf_gips(id); });
  }
  double read_package_energy() override {
    return sense([&] { return inner_.read_package_energy(); });
  }
  std::vector<double> cpu_time_by_type(hs::AppId id) const override {
    return sense([&] { return inner_.cpu_time_by_type(id); });
  }
  std::optional<double> read_app_utility(hs::AppId id) override {
    return sense([&] { return inner_.read_app_utility(id); });
  }
  int app_phase(hs::AppId id) const override { return inner_.app_phase(id); }
  std::optional<hs::QosSnapshot> qos_snapshot(hs::AppId id) const override {
    return inner_.qos_snapshot(id);
  }
  void set_control(hs::AppId id, const hs::AppControl& control) override {
    ++stats_.actuations;
    inner_.set_control(id, control);
  }
  void charge_overhead(double cpu_seconds) override { inner_.charge_overhead(cpu_seconds); }

 private:
  hs::RunnerApi& inner_;
  LayerStats& stats_;
};

/// Forwards every Policy hook to HarpPolicy, timing each and handing it a
/// TimedRunner in place of the simulator.
class TimedPolicy : public hs::Policy {
 public:
  TimedPolicy(harp::core::HarpPolicy& inner, LayerStats& stats) : inner_(inner), stats_(stats) {}

  std::string name() const override { return inner_.name(); }
  void attach(hs::RunnerApi& api) override {
    runner_ = std::make_unique<TimedRunner>(api, stats_);
    timed([&] { inner_.attach(*runner_); });
  }
  void on_app_start(hs::AppId id) override { timed([&] { inner_.on_app_start(id); }); }
  void on_app_exit(hs::AppId id) override { timed([&] { inner_.on_app_exit(id); }); }
  void tick() override {
    const double t0 = now_s();
    inner_.tick();
    const double dt = now_s() - t0;
    stats_.hook_s += dt;
    stats_.tick_s += dt;
    // all_stable() walks every managed app; sampling keeps it from
    // dominating the traced run.
    if (stats_.ticks++ % kStableSample == 0) {
      ++stats_.sampled_ticks;
      if (inner_.all_stable()) ++stats_.stable_ticks;
    }
  }

 private:
  template <typename F>
  void timed(F&& hook) {
    const double t0 = now_s();
    hook();
    stats_.hook_s += now_s() - t0;
  }

  harp::core::HarpPolicy& inner_;
  LayerStats& stats_;
  std::unique_ptr<TimedRunner> runner_;
};

struct Setup {
  harp::platform::HardwareDescription hw;
  harp::model::WorkloadCatalog catalog;
  std::vector<harp::model::Scenario> scenarios;
};

struct Pass {
  std::vector<SimOutcome> outcomes;
  std::vector<double> window_ms;  ///< host ms per op (kWindowS simulated seconds)
  double host_s = 0.0;
  double sim_s = 0.0;
  int unfinished = 0;  ///< learning-run apps without a completion before the horizon
};

/// Simulate one scenario under `policy` — through the timing decorators
/// when `layers` is set — timing every full window of kWindowS simulated
/// seconds and, in a traced run, recording a span per simulated second.
hs::RunResult simulate(const Setup& setup, const harp::model::Scenario& scenario, double horizon,
                       harp::core::HarpPolicy& policy, LayerStats* layers, Pass& pass,
                       SpanLog* spans, std::uint64_t op) {
  hs::RunOptions options;
  options.seed = kSimSeed;
  options.repeat_horizon = horizon;
  double next_second = 1.0;
  double last = now_s();
  double window_start = last;
  int window_seconds = 0;
  options.tick_hook = [&](double sim_now) {
    if (sim_now + 1e-9 < next_second) return;
    const double t = now_s();
    if (spans != nullptr) spans->add("sim.second", last, t, -1, op);
    last = t;
    next_second += 1.0;
    if (++window_seconds == kWindowS) {
      pass.window_ms.push_back((t - window_start) * 1e3);
      window_start = t;
      window_seconds = 0;
    }
  };
  hs::ScenarioRunner runner(setup.hw, setup.catalog, scenario, options);
  hs::RunResult result;
  if (layers != nullptr) {
    TimedPolicy timed(policy, *layers);
    result = runner.run(timed);
  } else {
    result = runner.run(policy);
  }
  pass.sim_s += next_second - 1.0;
  return result;
}

/// One pass: for every scenario, a learning run from cold tables with apps
/// restarting until the horizon, then — as in the paper's Fig. 8 — an
/// evaluation run to completion that starts from the learned tables.
Pass run_pass(const Setup& setup, LayerStats* layers, SpanLog* spans) {
  Pass pass;
  const double start = now_s();
  for (std::size_t i = 0; i < setup.scenarios.size(); ++i) {
    const harp::model::Scenario& scenario = setup.scenarios[i];
    harp::core::HarpPolicy learner{harp::core::HarpOptions{}};
    hs::RunResult learned = simulate(setup, scenario, kHorizonS, learner, layers, pass, spans, 2 * i);
    for (const hs::AppRunStats& app : learned.apps)
      if (app.completions == 0) ++pass.unfinished;

    harp::core::HarpOptions warm;
    warm.offline_tables = learner.tables();
    harp::core::HarpPolicy evaluator{warm};
    hs::RunResult result = simulate(setup, scenario, 0.0, evaluator, layers, pass, spans, 2 * i + 1);
    SimOutcome outcome{scenario.name, {}, result.package_energy_j, result.makespan};
    for (const hs::AppRunStats& app : result.apps)
      outcome.completions.push_back(app.finish >= 0.0 ? app.completions : 0);
    pass.outcomes.push_back(std::move(outcome));
  }
  pass.host_s = now_s() - start;
  return pass;
}

}  // namespace

void run_sim_learning(const Options& options, Output& out) {
  // Set-up: the hardware description, the catalog and its scenarios, and
  // the simulator and RM every simulation starts from — a ScenarioRunner
  // and a cold HarpPolicy per scenario — so that work moved into their
  // construction shows in setup_s. It is repeated at the start and again at
  // the end of the run, and setup_s is the median.
  std::vector<double> setup_times;
  Setup setup;
  auto set_up = [&] {
    for (int r = 0; r < kSetupRepeats; ++r) {
      const double t0 = now_s();
      setup = Setup{harp::platform::raptor_lake(), harp::model::WorkloadCatalog::raptor_lake(), {}};
      setup.scenarios = setup.catalog.multi_scenarios();
      harp::Rng rng(options.seed);
      std::shuffle(setup.scenarios.begin(), setup.scenarios.end(), rng.engine());
      for (const harp::model::Scenario& scenario : setup.scenarios) {
        hs::ScenarioRunner runner(setup.hw, setup.catalog, scenario, hs::RunOptions{});
        harp::core::HarpPolicy policy{harp::core::HarpOptions{}};
      }
      setup_times.push_back(now_s() - t0);
    }
  };
  set_up();

  // Passes until the time is spent (at least two, for the rerun check).
  auto run_passes = [&](double seconds, LayerStats* layers, SpanLog* spans) {
    std::vector<Pass> passes;
    double spent = 0.0;
    while (passes.size() < 2 || spent + passes.back().host_s <= seconds) {
      passes.push_back(run_pass(setup, layers, spans));
      spent += passes.back().host_s;
    }
    return passes;
  };
  std::vector<Pass> reference;
  auto check = [&](const std::vector<Pass>& passes) {
    if (reference.empty()) reference = {passes.front()};
    const Pass& first = reference.front();
    for (const Pass& pass : passes) {
      for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
        ++out.attempted;
        std::string error = check_completed(pass.outcomes[i]);
        if (error.empty()) error = check_identical(first.outcomes[i], pass.outcomes[i]);
        if (!error.empty()) {
          ++out.failed;
          out.check_failed(error);
        }
      }
    }
  };

  if (!options.trace) {
    std::vector<Pass> passes = run_passes(options.seconds, nullptr, nullptr);
    check(passes);
    std::vector<double> window_ms;
    double host = 0.0, sim = 0.0;
    for (const Pass& p : passes) {
      window_ms.insert(window_ms.end(), p.window_ms.begin(), p.window_ms.end());
      host += p.host_s;
      sim += p.sim_s;
    }
    double energy = 0.0;
    for (const SimOutcome& o : passes.front().outcomes) energy += o.energy_j;
    log_note("sim_learning: %zu passes of %zu scenarios, %.0f simulated s (%zu ops of %d s) in "
             "%.2f host s; evaluation energy %.6f J per pass; %d learning-run apps had no "
             "completion before the %.0f s horizon",
             passes.size(), setup.scenarios.size(), sim, window_ms.size(), kWindowS, host, energy,
             passes.front().unfinished, kHorizonS);
    out.add("op_p50_ms", percentile(window_ms, 50.0), "ms");
    out.add("op_p95_ms", percentile(window_ms, 95.0), "ms");
    out.add("ops_per_s", sim / kWindowS / host, "1/s");
    set_up();
    out.add("setup_s", median(setup_times), "s");
    return;
  }

  // Traced run: untraced passes for the overhead reference, then traced
  // passes through the forwarding decorators.
  std::vector<Pass> plain = run_passes(options.seconds / 2.0, nullptr, nullptr);
  LayerStats layers;
  SpanLog spans(true);
  std::vector<Pass> traced = run_passes(options.seconds / 2.0, &layers, &spans);
  check(plain);
  check(traced);
  double host = 0.0, plain_host = 0.0, sim = 0.0, plain_sim = 0.0;
  for (const Pass& p : traced) host += p.host_s, sim += p.sim_s;
  for (const Pass& p : plain) plain_host += p.host_s, plain_sim += p.sim_s;
  const double passes = static_cast<double>(traced.size());
  double energy = 0.0, makespan = 0.0;
  for (const SimOutcome& o : traced.front().outcomes) energy += o.energy_j, makespan += o.makespan_s;
  const double runner_self = host - layers.hook_s;
  // Mean, not median: most ticks do nothing and the cost sits in the few
  // that measure, explore or re-solve.
  out.add("policy.tick_us", ratio(layers.tick_s, static_cast<double>(layers.ticks)) * 1e6, "us");
  out.add("policy.ticks", static_cast<double>(layers.ticks) / passes, "count");
  out.add("policy.hook_share", ratio(layers.hook_s, host), "ratio");
  out.add("policy.stable_frac",
          ratio(static_cast<double>(layers.stable_ticks), static_cast<double>(layers.sampled_ticks)),
          "ratio");
  out.add("runner.self_s", runner_self / passes, "s");
  out.add("runner.sense_calls", static_cast<double>(layers.sense_calls) / passes, "count");
  out.add("runner.sense_us", ratio(layers.sense_s, static_cast<double>(layers.sense_calls)) * 1e6,
          "us");
  out.add("runner.actuations", static_cast<double>(layers.actuations) / passes, "count");
  out.add("sim.energy_j", energy, "J");
  out.add("sim.makespan_s", makespan, "s");
  out.add("sim.unfinished_apps", static_cast<double>(traced.front().unfinished), "count");
  out.add("failed_frac", ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
          "ratio");
  const double speed = sim / host, plain_speed = plain_sim / plain_host;
  const double overhead = ratio(plain_speed, speed) - 1.0;
  const double coverage = ratio(layers.hook_s + runner_self, host);
  out.add("trace.overhead", overhead, "ratio");
  out.add("trace.coverage", coverage, "ratio");
  log_note("sim_learning: trace overhead %+.1f%% host time per simulated second (%.1f vs %.1f "
           "simulated s per host s)",
           overhead * 100.0, speed, plain_speed);
  log_note("sim_learning: coverage %.1f%% of host time: policy hooks %.1f%% (of which runner "
           "sensing %.1f%%) + simulator self %.1f%%",
           coverage * 100.0, ratio(layers.hook_s, host) * 100.0,
           ratio(layers.sense_s, host) * 100.0, ratio(runner_self, host) * 100.0);
  if (!options.trace_out.empty() && !spans.write(options.trace_out))
    out.check_failed("cannot write " + options.trace_out);
}

}  // namespace perfbench
