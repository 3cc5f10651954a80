// harp-trace — render telemetry traces (src/telemetry) for humans.
//
// Reads a JSONL trace produced by telemetry::write_trace_file and prints
// per-cycle allocation summaries, an exploration convergence table, a
// per-service deadline/QoS table, and a fault/recovery timeline. Sections
// can be selected individually; with no selection flags every section is
// printed.
//
// Usage:
//   harp-trace [--summary] [--cycles] [--exploration] [--qos] [--faults] <trace.jsonl>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/export.hpp"
#include "src/telemetry/trace.hpp"

namespace {

using harp::telemetry::EventType;
using harp::telemetry::Phase;
using harp::telemetry::TraceEvent;

void usage() {
  std::fprintf(stderr,
               "usage: harp-trace [--summary] [--cycles] [--exploration] [--qos] [--faults] "
               "<trace.jsonl>\n");
}

double num_arg(const TraceEvent& event, const std::string& key, double fallback = 0.0) {
  for (const auto& [k, v] : event.num)
    if (k == key) return v;
  return fallback;
}

std::string str_arg(const TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.str)
    if (k == key) return v;
  return {};
}

void print_summary(const std::vector<TraceEvent>& events) {
  std::printf("== summary ==\n");
  if (events.empty()) {
    std::printf("empty trace\n");
    return;
  }
  std::printf("%zu events, t = [%.6f, %.6f] s\n", events.size(), events.front().t,
              events.back().t);
  std::map<std::string, std::size_t> by_type;
  for (const TraceEvent& event : events) ++by_type[to_string(event.type)];
  for (const auto& [type, count] : by_type) std::printf("  %-20s %zu\n", type.c_str(), count);
}

void print_cycles(const std::vector<TraceEvent>& events) {
  std::printf("== allocation cycles ==\n");
  std::printf("%10s %7s %5s %9s %11s %11s %7s\n", "t", "cycle", "apps", "feasible", "total_cost",
              "duration_s", "solver");
  // Grants arrive between a cycle's begin and end; the allocator span
  // (mmkp_solve) nests inside, so match on the alloc_cycle type alone.
  bool in_cycle = false;
  double begin_t = 0.0;
  double cycle = 0.0, apps = 0.0;
  std::vector<const TraceEvent*> grants;
  std::size_t printed = 0;
  // Solver-path mix: mmkp_solve end events carry {"replayed", 1.0} when the
  // cached selection was replayed wholesale and {"incremental", 0/1} when a
  // dirty-subset re-solve ran vs a cold/full one.
  const char* solver_mode = "-";
  std::size_t n_replay = 0, n_inc = 0, n_full = 0;
  for (const TraceEvent& event : events) {
    if (event.type == EventType::kAllocCycle && event.phase == Phase::kBegin) {
      in_cycle = true;
      begin_t = event.t;
      cycle = num_arg(event, "cycle");
      apps = num_arg(event, "apps");
      grants.clear();
      solver_mode = "-";
      continue;
    }
    if (in_cycle && event.type == EventType::kGrant) {
      grants.push_back(&event);
      continue;
    }
    if (in_cycle && event.type == EventType::kMmkpSolve && event.phase == Phase::kEnd) {
      if (num_arg(event, "replayed") > 0.5) {
        solver_mode = "replay";
        ++n_replay;
      } else if (num_arg(event, "incremental") > 0.5) {
        solver_mode = "inc";
        ++n_inc;
      } else {
        solver_mode = "full";
        ++n_full;
      }
      continue;
    }
    if (in_cycle && event.type == EventType::kAllocCycle && event.phase == Phase::kEnd) {
      in_cycle = false;
      ++printed;
      bool feasible = num_arg(event, "feasible") > 0.5;
      std::printf("%10.4f %7.0f %5.0f %9s %11.2f %11.6f %7s\n", begin_t, cycle, apps,
                  feasible ? "yes" : "no", num_arg(event, "total_cost"), event.t - begin_t,
                  solver_mode);
      for (const TraceEvent* grant : grants)
        std::printf("    %-12s %-24s u=%-8.2f p=%-7.2f zeta=%-8.1f meas=%.0f\n",
                    grant->scope.c_str(), str_arg(*grant, "erv").c_str(),
                    num_arg(*grant, "utility"), num_arg(*grant, "power_w"),
                    num_arg(*grant, "cost"), num_arg(*grant, "measured"));
    }
  }
  if (printed == 0) {
    std::printf("no allocation cycles in trace\n");
    return;
  }
  if (n_replay + n_inc + n_full > 0)
    std::printf("solver mix: %zu replay, %zu incremental, %zu full (%zu cycles)\n", n_replay,
                n_inc, n_full, printed);
}

void print_exploration(const std::vector<TraceEvent>& events) {
  std::printf("== exploration convergence ==\n");
  struct AppProgress {
    std::size_t selections = 0;
    std::size_t measurements = 0;
    std::string last_stage = "initial";
    double last_measured = 0.0;
  };
  std::map<std::string, AppProgress> apps;
  std::vector<const TraceEvent*> transitions;
  for (const TraceEvent& event : events) {
    switch (event.type) {
      case EventType::kExplorationSelect: {
        AppProgress& app = apps[event.scope];
        ++app.selections;
        app.last_measured = num_arg(event, "measured");
        app.last_stage = str_arg(event, "stage");
        break;
      }
      case EventType::kMeasurement: ++apps[event.scope].measurements; break;
      case EventType::kStageTransition: {
        transitions.push_back(&event);
        AppProgress& app = apps[event.scope];
        app.last_stage = str_arg(event, "to");
        app.last_measured = num_arg(event, "measured");
        break;
      }
      default: break;
    }
  }
  if (apps.empty() && transitions.empty()) {
    std::printf("no exploration events in trace\n");
    return;
  }
  std::printf("%-16s %11s %13s %9s %11s\n", "app", "selections", "measurements", "measured",
              "stage");
  for (const auto& [name, app] : apps)
    std::printf("%-16s %11zu %13zu %9.0f %11s\n", name.c_str(), app.selections,
                app.measurements, app.last_measured, app.last_stage.c_str());
  if (!transitions.empty()) {
    std::printf("stage transitions:\n");
    for (const TraceEvent* event : transitions)
      std::printf("%10.4f  %-16s %s -> %s (%.0f configs measured)\n", event->t,
                  event->scope.c_str(), str_arg(*event, "from").c_str(),
                  str_arg(*event, "to").c_str(), num_arg(*event, "measured"));
  }
}

void print_qos(const std::vector<TraceEvent>& events) {
  std::printf("== deadline / qos ==\n");
  struct ServiceStats {
    std::size_t completed = 0;
    std::size_t hits = 0;
    double tardiness_sum_s = 0.0;
    double max_tardiness_s = 0.0;
    double max_queue_depth = 0.0;
  };
  std::map<std::string, ServiceStats> services;
  for (const TraceEvent& event : events) {
    if (event.type != EventType::kQosRequest) continue;
    ServiceStats& service = services[event.scope];
    ++service.completed;
    if (num_arg(event, "hit") > 0.5) ++service.hits;
    double tardiness = num_arg(event, "tardiness_s");
    service.tardiness_sum_s += tardiness;
    if (tardiness > service.max_tardiness_s) service.max_tardiness_s = tardiness;
    double depth = num_arg(event, "queue_depth");
    if (depth > service.max_queue_depth) service.max_queue_depth = depth;
  }
  if (services.empty()) {
    std::printf("no qos_request events in trace\n");
    return;
  }
  std::printf("%-16s %9s %8s %12s %12s %9s\n", "service", "requests", "hit_rate",
              "mean_tard_s", "max_tard_s", "max_queue");
  for (const auto& [name, service] : services) {
    double denom = static_cast<double>(service.completed);
    std::printf("%-16s %9zu %8.4f %12.6f %12.6f %9.0f\n", name.c_str(), service.completed,
                static_cast<double>(service.hits) / denom, service.tardiness_sum_s / denom,
                service.max_tardiness_s, service.max_queue_depth);
  }
}

void print_faults(const std::vector<TraceEvent>& events) {
  std::printf("== fault / recovery timeline ==\n");
  std::size_t printed = 0;
  for (const TraceEvent& event : events) {
    switch (event.type) {
      case EventType::kFaultInjected:
        std::printf("%10.4f  %-16s fault: %s (send #%.0f)\n", event.t, event.scope.c_str(),
                    str_arg(event, "kind").c_str(), num_arg(event, "seq"));
        break;
      case EventType::kLinkDown:
        std::printf("%10.4f  %-16s link down: %s\n", event.t, event.scope.c_str(),
                    str_arg(event, "error").c_str());
        break;
      case EventType::kReconnect:
        std::printf("%10.4f  %-16s reconnected (attempt %.0f)\n", event.t, event.scope.c_str(),
                    num_arg(event, "attempt"));
        break;
      case EventType::kLease:
        std::printf("%10.4f  %-16s lease expired after %.2f s silence\n", event.t,
                    event.scope.c_str(), num_arg(event, "silent_s"));
        break;
      case EventType::kRegistration:
        std::printf("%10.4f  %-16s registered\n", event.t, event.scope.c_str());
        break;
      default: continue;
    }
    ++printed;
  }
  if (printed == 0) std::printf("no fault or link events in trace\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false, cycles = false, exploration = false, qos = false, faults = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--summary") {
      summary = true;
    } else if (arg == "--cycles") {
      cycles = true;
    } else if (arg == "--exploration") {
      exploration = true;
    } else if (arg == "--qos") {
      qos = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(), 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(), 2;
    }
  }
  if (path.empty()) return usage(), 2;
  if (!summary && !cycles && !exploration && !qos && !faults)
    summary = cycles = exploration = qos = faults = true;

  auto loaded = harp::telemetry::load_trace_file(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "harp-trace: %s: %s\n", path.c_str(), loaded.error().message.c_str());
    return 1;
  }
  const std::vector<TraceEvent>& events = loaded.value();

  if (summary) print_summary(events);
  if (cycles) print_cycles(events);
  if (exploration) print_exploration(events);
  if (qos) print_qos(events);
  if (faults) print_faults(events);
  return 0;
}
