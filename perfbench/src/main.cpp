// harp_perfbench: runs one workload for a fixed time and prints one
// JSON result line (see perfbench/README.md).
//
//   harp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --run-dir <dir> [--harpd <path>] [--trace-out <file>]
//   harp_perfbench --self-test
//
// An untraced run reports the end-to-end metrics, a traced run the per-layer
// metrics. Every run first self-tests the output checks.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/common.hpp"
#include "src/common/logging.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them (see README.md for
// what an "op" is on each workload).
const MetricSpec kEndToEnd[] = {
    {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
};

// Per-layer metrics of the traced run. A workload reports the ones its path
// exercises; the rest print as 0 (the layer is not on that path).
const MetricSpec kPerLayer[] = {
    {"daemon.wait_ms", "ms"},
    {"libharp.submit_us", "us"},
    {"libharp.poll_us", "us"},
    {"libharp.polls_per_rt", "ratio"},
    {"libharp.start_ms", "ms"},
    {"libharp.reconnects", "count"},
    {"libharp.dropped_sends", "count"},
    {"rm.groups", "count"},
    {"rm.candidates_per_group", "count"},
    {"rm.poll_idle_us", "us"},
    {"rm.poll_decide_ms", "ms"},
    {"rm.poll_coalloc_ms", "ms"},
    {"rm.coalloc_frac", "ratio"},
    {"allocator.solve_fit_ms", "ms"},
    {"allocator.solve_coalloc_ms", "ms"},
    {"allocator.solve_share", "ratio"},
    {"ipc.send_points_us", "us"},
    {"ipc.recv_activation_us", "us"},
    {"ipc.points_per_frame", "count"},
    {"ipc.activations_per_decision", "count"},
    {"telemetry.events_per_decision", "count"},
    {"telemetry.share", "ratio"},
    {"policy.tick_us", "us"},
    {"policy.ticks", "count"},
    {"policy.hook_share", "ratio"},
    {"policy.stable_frac", "ratio"},
    {"runner.self_s", "s"},
    {"runner.sense_calls", "count"},
    {"runner.sense_us", "us"},
    {"runner.actuations", "count"},
    {"sim.energy_j", "J"},
    {"sim.makespan_s", "s"},
    {"sim.unfinished_apps", "count"},
    {"failed_frac", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: harp_perfbench --workload daemon_roundtrip|rm_catalog_walk|sim_learning\n"
               "                      --seed N --seconds S --trace 0|1 --run-dir DIR\n"
               "                      [--harpd PATH] [--trace-out FILE]\n"
               "       harp_perfbench --self-test\n");
}

// Arrange the workload's metrics in spec order, filling absent per-layer
// metrics with 0. Returns false when the workload reported an unknown or
// duplicate name, or missed an end-to-end metric.
template <std::size_t N>
bool canonicalize(const MetricSpec (&specs)[N], bool fill_missing, Output& out) {
  std::map<std::string, Metric> given;
  for (Metric& m : out.metrics) {
    if (!given.emplace(m.name, m).second) {
      log_note("metric %s reported twice", m.name.c_str());
      return false;
    }
  }
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    auto it = given.find(spec.name);
    if (it == given.end()) {
      if (!fill_missing) {
        log_note("metric %s missing", spec.name);
        return false;
      }
      ordered.push_back(Metric{spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->second.unit != spec.unit) {
      log_note("metric %s has unit %s, expected %s", spec.name, it->second.unit.c_str(),
               spec.unit);
      return false;
    }
    ordered.push_back(it->second);
    given.erase(it);
  }
  if (!given.empty()) {
    log_note("unknown metric %s", given.begin()->first.c_str());
    return false;
  }
  out.metrics = std::move(ordered);
  return true;
}

void print_result(const Output& out) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool self_test_only = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (value == nullptr) return usage(), 2;
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else if (arg == "--harpd") {
      options.harpd = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(), 2;
    }
  }

  std::vector<std::string> broken = self_test();
  for (const std::string& b : broken) log_note("self-test: %s", b.c_str());
  if (self_test_only) {
    if (broken.empty()) log_note("self-test: every check passes correct input and fires on corrupted input");
    return broken.empty() ? 0 : 1;
  }
  if (options.workload.empty() || !have_trace || options.seconds <= 0.0 ||
      options.run_dir.empty())
    return usage(), 2;

  // The RM logs a warning per co-allocation decision; keep stderr readable.
  harp::set_log_level(harp::LogLevel::kError);

  Output out;
  if (options.workload == "daemon_roundtrip") {
    run_daemon_roundtrip(options, out);
  } else if (options.workload == "rm_catalog_walk") {
    run_rm_catalog_walk(options, out);
  } else if (options.workload == "sim_learning") {
    run_sim_learning(options, out);
  } else {
    log_note("unknown workload '%s'", options.workload.c_str());
    return 2;
  }
  if (!broken.empty()) out.correct = false;
  if (out.attempted == 0) {
    log_note("no operation was attempted");
    return 1;
  }
  bool ok = options.trace ? canonicalize(kPerLayer, true, out)
                          : canonicalize(kEndToEnd, false, out);
  if (!ok) return 1;
  print_result(out);
  return 0;
}
