// rm_catalog_walk: the RM decision path without sockets or sleeps.
//
// An in-process core::RmServer (the class harpd runs) with a telemetry
// Tracer + MetricsRegistry attached is driven from one thread over
// in-process channels. The apps are the Raptor Lake catalog applications,
// each submitting its offline-DSE operating-point table — the description
// file `harpd --config` would load. The script walks the population
// 4 → 16 → 28 → 4 apps, crossing the machine's capacity (24 cores), so some
// decisions fall back to co-allocation. In cycles without an arrival or a
// departure a live app either resubmits a perturbed table (a re-solve) or
// sends a UtilityReport (folded into the table, no re-solve); the seed draws
// the perturbations and the reported utilities. RM time advances 10 ms per cycle, so
// the RM's decisions depend on the script alone.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/common.hpp"
#include "src/common/rng.hpp"
#include "src/harp/allocator.hpp"
#include "src/harp/dse.hpp"
#include "src/harp/rm_server.hpp"
#include "src/ipc/transport.hpp"
#include "src/model/catalog.hpp"
#include "src/telemetry/clock.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace perfbench {

namespace {

namespace hc = harp::core;
namespace hi = harp::ipc;
namespace hp = harp::platform;

/// A population level of the walk and the cycles spent on it.
struct Plateau {
  int apps;
  int cycles;
};
/// 4 → 16 → 28 → 4 apps. The machine has 24 cores, so from 25 apps on every
/// decision is a co-allocation; most decisions fall on the 16-app plateau.
/// The walk only passes through 25–28 apps: co-allocation solves track host
/// noise most, and with a plateau there they made up the p95.
constexpr Plateau kWalk[] = {{4, 20}, {16, 215}, {28, 0}, {4, 0}};
constexpr double kCycleSeconds = 0.01;  // RM clock advance per cycle
constexpr int kSetupRepeats = 3;  // at the start and again at the end

struct CatalogEntry {
  std::string name;
  hi::WireAdaptivity adaptivity = hi::WireAdaptivity::kScalable;
  std::vector<hi::OperatingPointsMsg::Point> points;
};

hi::WireAdaptivity wire(harp::model::AdaptivityType type) {
  switch (type) {
    case harp::model::AdaptivityType::kStatic: return hi::WireAdaptivity::kStatic;
    case harp::model::AdaptivityType::kCustom: return hi::WireAdaptivity::kCustom;
    default: return hi::WireAdaptivity::kScalable;
  }
}

/// The description files of every catalog app (the set-up work timed as
/// setup_s).
std::vector<CatalogEntry> build_catalog(const hp::HardwareDescription& hw) {
  harp::model::WorkloadCatalog catalog = harp::model::WorkloadCatalog::raptor_lake();
  std::vector<CatalogEntry> entries;
  for (const harp::model::AppBehavior& app : catalog.apps()) {
    hc::OperatingPointTable table = hc::run_offline_dse(app, hw);
    CatalogEntry entry{app.name, wire(app.adaptivity), {}};
    for (const hc::OperatingPoint& p : table.points())
      entry.points.push_back(hi::OperatingPointsMsg::Point{p.erv, p.nfc.utility, p.nfc.power_w});
    entries.push_back(std::move(entry));
  }
  return entries;
}

struct Step {
  enum Kind { kAdd, kRemove, kResubmit, kReport } kind = kReport;
  int slot = 0;               ///< app instance (never reused)
  int entry = 0;              ///< catalog entry (kAdd)
  std::uint64_t perturb = 0;  ///< perturbation seed (kResubmit)
  double utility = 0.0;       ///< reported / profiled utility of the running point (kReport)
};

/// The script. Its structure is fixed, so every seed makes the same
/// decisions on the same populations: the population ramps through the
/// plateaus of kWalk one arrival or departure per cycle — apps arrive in
/// catalog order and leave oldest first — and on a plateau the live apps
/// take turns, three resubmits to every two utility reports. The seed draws
/// the values: each resubmit's perturbation of its table and each report's
/// deviation from the profiled utility of the running point.
std::vector<Step> make_script(std::uint64_t seed, std::size_t entries) {
  harp::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<Step> script;
  std::vector<int> live;
  int next_slot = 0;
  std::size_t turn = 0;
  for (const Plateau& plateau : kWalk) {
    while (static_cast<int>(live.size()) != plateau.apps) {
      Step step;
      if (static_cast<int>(live.size()) < plateau.apps) {
        step.kind = Step::kAdd;
        step.slot = next_slot++;
        step.entry = step.slot % static_cast<int>(entries);
        live.push_back(step.slot);
      } else {
        step.kind = Step::kRemove;
        step.slot = live.front();
        live.erase(live.begin());
      }
      script.push_back(step);
    }
    for (int c = 0; c < plateau.cycles; ++c) {
      Step step;
      step.slot = live[turn % live.size()];
      if (turn % 5 < 3) {
        step.kind = Step::kResubmit;
        step.perturb = rng.engine()();
      } else {
        step.kind = Step::kReport;
        step.utility = rng.uniform(0.95, 1.05);
      }
      ++turn;
      script.push_back(step);
    }
  }
  return script;
}

/// The app side of one registered instance.
struct AppEnd {
  std::unique_ptr<hi::Channel> channel;
  std::string name;
  int entry = 0;
  bool holds = false;
  hi::ActivateMsg activation;
};

/// Measurements of one pass over the script.
struct Pass {
  std::vector<double> decide_ms;   ///< poll + activation drain, per decision
  std::vector<double> poll_fit_ms;
  std::vector<double> poll_coalloc_ms;
  std::vector<double> poll_idle_us;
  std::vector<double> send_points_us;
  std::vector<double> recv_activation_us;
  std::vector<double> drain_ms;     ///< per decision
  std::vector<double> solve_fit_ms;  ///< cold attribution solves (traced pass)
  std::vector<double> solve_coalloc_ms;
  double poll_total_s = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t coalloc = 0;
  std::uint64_t cycles = 0;
  std::uint64_t failed = 0;
  std::uint64_t points_sent = 0;
  std::uint64_t points_frames = 0;
  std::uint64_t activations = 0;
  std::uint64_t trace_events = 0;
  double groups_sum = 0.0;
  double candidates_sum = 0.0;
  std::uint64_t grant_hash = 1469598103934665603ull;
  std::string error;  ///< first failed output check
};

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

struct PassConfig {
  bool telemetry = true;  ///< Tracer + MetricsRegistry attached to the RM
  SpanLog* spans = nullptr;
  bool attribute = false;  ///< export groups and cold-solve each decision
};

Pass run_pass(const hp::HardwareDescription& hw, const std::vector<CatalogEntry>& catalog,
              const std::vector<Step>& script, const PassConfig& config) {
  Pass pass;
  harp::telemetry::ManualClock clock;
  harp::telemetry::Tracer tracer(&clock);
  harp::telemetry::MetricsRegistry metrics;
  hc::RmServerOptions rm_options;
  if (config.telemetry) {
    rm_options.tracer = &tracer;
    rm_options.metrics = &metrics;
  }
  hc::RmServer rm(hw, rm_options);
  hc::Allocator cold(hw);
  SpanLog* spans = config.spans;
  SpanLog off(false);
  if (spans == nullptr) spans = &off;

  std::map<int, AppEnd> apps;
  std::vector<hc::ExportedGroup> exported;
  std::vector<hc::AllocationGroup> groups;
  auto send = [&](AppEnd& app, const hi::Message& m, std::int64_t parent, std::uint64_t op) {
    double t0 = now_s();
    harp::Status sent = app.channel->send(m);
    double t1 = now_s();
    if (const auto* points = std::get_if<hi::OperatingPointsMsg>(&m)) {
      pass.send_points_us.push_back((t1 - t0) * 1e6);
      pass.points_sent += points->points.size();
      ++pass.points_frames;
    }
    spans->add("ipc.send", t0, t1, parent, op);
    if (!sent.ok()) {
      ++pass.failed;
      if (pass.error.empty()) pass.error = "send failed: " + sent.error().message;
    }
  };

  const double start = now_s();
  for (std::size_t c = 0; c < script.size(); ++c) {
    const Step& step = script[c];
    const double rm_now = static_cast<double>(c + 1) * kCycleSeconds;
    clock.set(rm_now);
    const double t_cycle = now_s();
    const std::int64_t root = spans->open("cycle", t_cycle, -1, c);

    switch (step.kind) {
      case Step::kAdd: {
        auto [rm_end, app_end] = hi::make_in_process_pair();
        rm.adopt_channel(std::move(rm_end));
        AppEnd& app = apps[step.slot];
        const CatalogEntry& entry = catalog[static_cast<std::size_t>(step.entry)];
        app.channel = std::move(app_end);
        app.name = entry.name;
        app.entry = step.entry;
        hi::RegisterRequest request;
        request.pid = 10000 + step.slot;
        request.app_name = entry.name;
        request.adaptivity = entry.adaptivity;
        request.provides_utility = true;
        send(app, hi::Message(request), root, c);
        send(app, hi::Message(hi::OperatingPointsMsg{entry.points}), root, c);
        break;
      }
      case Step::kRemove: {
        AppEnd& app = apps.at(step.slot);
        send(app, hi::Message(hi::Deregister{}), root, c);
        app.channel->close();
        apps.erase(step.slot);
        break;
      }
      case Step::kResubmit: {
        AppEnd& app = apps.at(step.slot);
        harp::Rng rng(step.perturb);
        hi::OperatingPointsMsg msg{catalog[static_cast<std::size_t>(app.entry)].points};
        for (hi::OperatingPointsMsg::Point& p : msg.points) {
          p.utility *= rng.uniform(0.95, 1.05);
          p.power_w *= rng.uniform(0.95, 1.05);
        }
        send(app, hi::Message(msg), root, c);
        break;
      }
      case Step::kReport: {
        // A measurement near the profiled utility of the point the app runs.
        AppEnd& app = apps.at(step.slot);
        double profiled = 1.0;
        for (const hi::OperatingPointsMsg::Point& p : catalog[static_cast<std::size_t>(app.entry)].points)
          if (app.holds && p.erv == app.activation.erv) profiled = p.utility;
        send(app, hi::Message(hi::UtilityReport{profiled * step.utility}), root, c);
        break;
      }
    }

    const std::uint64_t reallocs_before = rm.realloc_count();
    const std::uint64_t events_before = tracer.recorded();
    const double t0 = now_s();
    rm.poll(rm_now);
    const double t1 = now_s();
    spans->add("rm.poll", t0, t1, root, c);
    const bool decided = rm.realloc_count() != reallocs_before;

    // Drain every app end: the grant reaches the apps.
    bool coalloc = false;
    for (auto& [slot, app] : apps) {
      while (true) {
        const double r0 = now_s();
        harp::Result<std::optional<hi::Message>> got = app.channel->poll();
        const double r1 = now_s();
        if (!got.ok()) {
          ++pass.failed;
          if (pass.error.empty()) pass.error = app.name + ": link failed";
          break;
        }
        if (!got.value().has_value()) break;
        if (const auto* act = std::get_if<hi::ActivateMsg>(&*got.value())) {
          pass.recv_activation_us.push_back((r1 - r0) * 1e6);
          spans->add("ipc.recv", r0, r1, root, c);
          ++pass.activations;
          app.activation = *act;
          app.holds = true;
          coalloc = coalloc || act->cores.empty();
          mix(pass.grant_hash, static_cast<std::uint64_t>(slot));
          for (const Grant& g : act->cores)
            mix(pass.grant_hash, static_cast<std::uint64_t>(g.type * 4096 + g.core * 4 + g.threads));
        }
      }
    }
    const double t2 = now_s();
    pass.poll_total_s += t1 - t0;
    ++pass.cycles;

    if (decided) {
      pass.decide_ms.push_back((t2 - t0) * 1e3);
      pass.drain_ms.push_back((t2 - t1) * 1e3);
      (coalloc ? pass.poll_coalloc_ms : pass.poll_fit_ms).push_back((t1 - t0) * 1e3);
      if (coalloc) ++pass.coalloc;
      pass.trace_events += tracer.recorded() - events_before;

      // Output checks: every live app holds an activation; exclusive grants
      // are valid, realise their vectors, and are disjoint.
      std::vector<std::string> names;
      std::vector<bool> holds;
      std::vector<std::vector<Grant>> grants;
      std::string error;
      for (const auto& [slot, app] : apps) {
        names.push_back(app.name);
        holds.push_back(app.holds);
        if (!app.holds || app.activation.cores.empty()) continue;
        grants.push_back(app.activation.cores);
        if (error.empty()) error = check_grant_valid(hw, app.activation.cores);
        if (error.empty()) error = check_grant_matches(app.activation.erv, app.activation.cores);
      }
      if (error.empty()) error = check_all_hold(names, holds);
      if (error.empty()) error = check_disjoint(hw, grants);
      if (!error.empty()) {
        ++pass.failed;
        if (pass.error.empty()) pass.error = "cycle " + std::to_string(c) + ": " + error;
      }

      if (config.attribute) {
        // Attribution estimate: a cold solve of the exported instance, which
        // the benchmark owns and times outside the decision.
        rm.export_groups(exported);
        groups.clear();
        for (const hc::ExportedGroup& g : exported) groups.push_back(*g.group);
        pass.groups_sum += static_cast<double>(groups.size());
        for (const hc::AllocationGroup& g : groups)
          pass.candidates_sum += static_cast<double>(g.candidates.size());
        if (!groups.empty()) {
          const double s0 = now_s();
          hc::AllocationResult result = cold.solve(groups);
          const double s1 = now_s();
          spans->add("allocator.cold_solve", s0, s1, root, c);
          (result.feasible ? pass.solve_fit_ms : pass.solve_coalloc_ms)
              .push_back((s1 - s0) * 1e3);
        }
      }
    } else {
      pass.poll_idle_us.push_back((t1 - t0) * 1e6);
    }
    spans->close(root, now_s());
  }
  pass.elapsed_s = now_s() - start;
  return pass;
}

}  // namespace

void run_rm_catalog_walk(const Options& options, Output& out) {
  const hp::HardwareDescription hw = hp::raptor_lake();

  // Set-up: the description files of every catalog app (offline DSE) and
  // the script. It is repeated at the start and again at the end of the
  // run, and setup_s is the median, so a moment of host noise at start-up
  // does not decide it.
  std::vector<double> setup;
  std::vector<CatalogEntry> catalog;
  std::vector<Step> script;
  auto set_up = [&] {
    for (int r = 0; r < kSetupRepeats; ++r) {
      double t0 = now_s();
      catalog = build_catalog(hw);
      script = make_script(options.seed * 1000, catalog.size());
      setup.push_back(now_s() - t0);
    }
  };
  set_up();
  double points = 0.0;
  for (const CatalogEntry& e : catalog) points += static_cast<double>(e.points.size());
  log_note("rm_catalog_walk: %zu catalog apps, %.1f points per table on average, %zu-cycle script",
           catalog.size(), points / static_cast<double>(catalog.size()), script.size());

  auto account = [&](const Pass& pass) {
    out.attempted += pass.cycles;
    out.failed += pass.failed;
    if (!pass.error.empty()) out.check_failed(pass.error);
  };

  if (!options.trace) {
    // Whole passes until the time is spent, each on a fresh RM with its own
    // draw of values (the structure is the same).
    std::vector<Pass> passes;
    double spent = 0.0;
    while (passes.empty() || spent + passes.back().elapsed_s <= options.seconds) {
      if (!passes.empty()) script = make_script(options.seed * 1000 + passes.size(), catalog.size());
      passes.push_back(run_pass(hw, catalog, script, PassConfig{}));
      spent += passes.back().elapsed_s;
    }
    // Host noise comes in bursts of seconds, so the p50 and the rate are
    // medians over passes. The p95 pools all passes: one pass has only 193
    // decisions, fewer than 10 of them beyond its own p95.
    std::vector<double> p50, rate, all;
    for (const Pass& p : passes) {
      account(p);
      p50.push_back(percentile(p.decide_ms, 50.0));
      rate.push_back(static_cast<double>(p.decide_ms.size()) / p.elapsed_s);
      all.insert(all.end(), p.decide_ms.begin(), p.decide_ms.end());
    }
    log_note("rm_catalog_walk: %zu passes, %zu decisions (%" PRIu64
             " co-allocations per pass) in %.2f s",
             passes.size(), all.size(), passes.front().coalloc, spent);
    out.add("op_p50_ms", median(p50), "ms");
    out.add("op_p95_ms", percentile(all, 95.0), "ms");
    out.add("ops_per_s", median(rate), "1/s");
    set_up();
    out.add("setup_s", median(setup), "s");
    return;
  }

  // Traced run: an untraced reference pass, a traced pass that also runs
  // the attribution solves, and a pass with the RM's telemetry detached —
  // all on the same script, so all three must grant identically.
  SpanLog spans(true);
  Pass plain = run_pass(hw, catalog, script, PassConfig{});
  Pass traced = run_pass(hw, catalog, script, PassConfig{true, &spans, true});
  Pass detached = run_pass(hw, catalog, script, PassConfig{false, nullptr, false});
  for (const Pass* p : {&plain, &traced, &detached}) {
    account(*p);
    if (p->grant_hash != plain.grant_hash)
      out.check_failed("a rerun of the same script granted differently");
  }

  const Pass& t = traced;
  const double decisions = static_cast<double>(t.decide_ms.size());
  const double decide_sum = sum(t.decide_ms);
  const double poll_decide_sum = sum(t.poll_fit_ms) + sum(t.poll_coalloc_ms);
  const double solve_sum = sum(t.solve_fit_ms) + sum(t.solve_coalloc_ms);
  const double drain_sum = sum(t.drain_ms);
  out.add("rm.groups", ratio(t.groups_sum, decisions), "count");
  out.add("rm.candidates_per_group", ratio(t.candidates_sum, t.groups_sum), "count");
  out.add("rm.poll_idle_us", median(t.poll_idle_us), "us");
  out.add("rm.poll_decide_ms", median(t.poll_fit_ms), "ms");
  out.add("rm.poll_coalloc_ms", median(t.poll_coalloc_ms), "ms");
  out.add("rm.coalloc_frac", ratio(static_cast<double>(t.coalloc), decisions), "ratio");
  out.add("allocator.solve_fit_ms", median(t.solve_fit_ms), "ms");
  out.add("allocator.solve_coalloc_ms", median(t.solve_coalloc_ms), "ms");
  out.add("allocator.solve_share", ratio(solve_sum, poll_decide_sum), "ratio");
  out.add("ipc.send_points_us", median(t.send_points_us), "us");
  out.add("ipc.recv_activation_us", median(t.recv_activation_us), "us");
  out.add("ipc.points_per_frame",
          ratio(static_cast<double>(t.points_sent), static_cast<double>(t.points_frames)),
          "count");
  out.add("ipc.activations_per_decision", ratio(static_cast<double>(t.activations), decisions),
          "count");
  out.add("telemetry.events_per_decision", ratio(static_cast<double>(t.trace_events), decisions),
          "count");
  out.add("telemetry.share", ratio(plain.poll_total_s - detached.poll_total_s, plain.poll_total_s),
          "ratio");
  out.add("failed_frac", ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
          "ratio");
  const double overhead = ratio(median(t.decide_ms), median(plain.decide_ms)) - 1.0;
  const double coverage = ratio(solve_sum + drain_sum, decide_sum);
  out.add("trace.overhead", overhead, "ratio");
  out.add("trace.coverage", coverage, "ratio");
  log_note("rm_catalog_walk: trace overhead %+.1f%% on the decision p50 (%.3f ms traced vs %.3f ms "
           "untraced, %zu decisions each)",
           overhead * 100.0, median(t.decide_ms), median(plain.decide_ms), t.decide_ms.size());
  log_note("rm_catalog_walk: coverage %.1f%% of decision time: allocator solve (cold estimate) "
           "%.1f%% + activation drain %.1f%%; RM poll self time (group building, Pareto filter, "
           "codec, bookkeeping) is the remaining %.1f%%",
           coverage * 100.0, ratio(solve_sum, decide_sum) * 100.0,
           ratio(drain_sum, decide_sum) * 100.0, (1.0 - coverage) * 100.0);
  if (!options.trace_out.empty() && !spans.write(options.trace_out))
    out.check_failed("cannot write " + options.trace_out);
}

}  // namespace perfbench
