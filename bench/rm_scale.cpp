// RM transport scale (DESIGN.md "Event loop"): how the per-cycle cost of
// the RM control loop scales with the connected-client population under the
// readiness event loop.
//
// Two measurements, both against one RmServer:
//
//  - cycle: a mostly-idle population (the realistic regime — managed
//    applications mostly compute and occasionally heartbeat). Per cycle a
//    small active set sends one heartbeat each; the bench times rm.poll()
//    and reports p50/p99. In-process (100k clients full, 10k --quick)
//    isolates the cycle bookkeeping, real AF_UNIX sockets (10k full, 1k
//    --quick) add the kernel.
//
//  - roundtrip: 64 registered apps resubmit operating points under a large
//    idle population; the bench times burst → every app holds its fresh
//    activation.
//
// Writes BENCH_rm_scale.json (schema: bench_json.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/harp/rm_server.hpp"
#include "src/ipc/transport.hpp"
#include "src/platform/hardware.hpp"

using namespace harp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t index = static_cast<std::size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

/// Raise RLIMIT_NOFILE toward `want` fds and return what the socket mode may
/// actually use (connect pairs cost two fds each, plus slack for the rest of
/// the process).
int usable_socket_clients(int want_clients) {
  rlim_t want = static_cast<rlim_t>(want_clients) * 2 + 256;
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return want_clients;
  if (limit.rlim_cur < want) {
    struct rlimit raised = limit;
    raised.rlim_cur = std::min<rlim_t>(want, limit.rlim_max);
    (void)::setrlimit(RLIMIT_NOFILE, &raised);
    (void)::getrlimit(RLIMIT_NOFILE, &limit);
  }
  if (limit.rlim_cur >= want) return want_clients;
  int usable = static_cast<int>((limit.rlim_cur - 256) / 2);
  std::fprintf(stderr, "rm_scale: RLIMIT_NOFILE=%llu caps socket clients at %d (wanted %d)\n",
               static_cast<unsigned long long>(limit.rlim_cur), usable, want_clients);
  return std::max(usable, 0);
}

struct CycleStats {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Sends one heartbeat from every active (registered) app end, then runs one
/// server cycle and times it. The bulk population stays silent: heartbeats
/// from unregistered clients are a protocol violation (the RM drops the
/// client), and registering the bulk would stage a fair-share MMKP over the
/// whole population — allocator scale is allocator_scale's bench, not this
/// one.
CycleStats run_cycles(core::RmServer& rm, std::vector<std::unique_ptr<ipc::Channel>>& active_ends,
                      int cycles) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cycles));
  double now = 1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& end : active_ends) (void)end->send(ipc::Message(ipc::Heartbeat{}));
    now += 0.01;
    auto t0 = std::chrono::steady_clock::now();
    rm.poll(now);
    samples.push_back(seconds_since(t0));
  }
  return CycleStats{percentile(samples, 0.50), percentile(samples, 0.99)};
}

/// Prints one event-loop cycle measurement and appends its JSON row.
void report_cycle(json::Array& rows, const char* transport, int clients, int active, int cycles,
                  const CycleStats& stats) {
  std::printf("%-8s %-12s %8d %14.1f %14.1f\n", transport, "event_loop", clients,
              stats.p50 * 1e6, stats.p99 * 1e6);
  std::fflush(stdout);
  json::Object row;
  row["mode"] = json::Value("cycle");
  row["transport"] = json::Value(transport);
  row["server"] = json::Value("event_loop");
  row["clients"] = json::Value(clients);
  row["active_per_cycle"] = json::Value(active);
  row["cycles"] = json::Value(cycles);
  row["p50_cycle_seconds"] = json::Value(stats.p50);
  row["p99_cycle_seconds"] = json::Value(stats.p99);
  rows.push_back(json::Value(std::move(row)));
}

ipc::RegisterRequest registration(int index) {
  ipc::RegisterRequest reg;
  reg.pid = 100000 + index;
  reg.app_name = "app_" + std::to_string(index);
  return reg;
}

/// Adopts `count` in-process clients into `rm` and keeps their app ends in
/// `ends` (closing one would make the next cycle drop its client). With
/// `registered`, each client's registration is queued before adoption.
void adopt_clients(core::RmServer& rm, std::vector<std::unique_ptr<ipc::Channel>>& ends,
                   int count, bool registered) {
  ends.reserve(ends.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    if (registered) (void)app_end->send(ipc::Message(registration(i)));
    rm.adopt_channel(std::move(rm_end));
    ends.push_back(std::move(app_end));
  }
}

/// In-process cycle benchmark: `clients` silent unregistered channels plus
/// `active` registered heartbeaters, all adopted by `rm`.
CycleStats inproc_cycle_bench(core::RmServer& rm, int clients, int active, int cycles) {
  std::vector<std::unique_ptr<ipc::Channel>> bulk_ends, active_ends;
  adopt_clients(rm, bulk_ends, clients, false);
  adopt_clients(rm, active_ends, active, true);
  rm.poll(0.5);  // settle: registrations, lease clocks, one fair-share solve
  return run_cycles(rm, active_ends, cycles);
}

/// Socket-transport cycle benchmark: `clients` real AF_UNIX connections into
/// one RmServer.
CycleStats socket_cycle_bench(int clients, int active, int cycles,
                              const std::string& socket_path) {
  core::RmServerOptions options;
  options.lease_seconds = 0;
  core::RmServer rm(platform::raptor_lake(), options);
  Status listening = rm.listen(socket_path);
  if (!listening.ok()) {
    std::fprintf(stderr, "rm_scale: listen failed: %s\n", listening.error().message.c_str());
    return CycleStats{};
  }

  std::vector<std::unique_ptr<ipc::Channel>> bulk_ends, active_ends;
  bulk_ends.reserve(static_cast<std::size_t>(clients));
  // Connect in small batches, polling so the accept queue never overflows.
  while (static_cast<int>(bulk_ends.size() + active_ends.size()) < clients + active) {
    int remaining = clients + active - static_cast<int>(bulk_ends.size() + active_ends.size());
    int batch = std::min(64, remaining);
    for (int i = 0; i < batch; ++i) {
      Result<std::unique_ptr<ipc::Channel>> connected = ipc::unix_connect(socket_path);
      if (!connected.ok()) {
        std::fprintf(stderr, "rm_scale: connect %zu failed: %s\n",
                     bulk_ends.size() + active_ends.size(),
                     connected.error().message.c_str());
        return CycleStats{};
      }
      if (static_cast<int>(bulk_ends.size()) < clients) {
        bulk_ends.push_back(std::move(connected).take());
      } else {
        int index = static_cast<int>(active_ends.size());
        (void)connected.value()->send(ipc::Message(registration(index)));
        active_ends.push_back(std::move(connected).take());
      }
    }
    rm.poll(0.1);
  }
  std::size_t want = bulk_ends.size() + active_ends.size();
  for (int settle = 0; settle < 8 && rm.client_count() < want; ++settle) rm.poll(0.2);
  if (rm.client_count() < want)
    std::fprintf(stderr, "rm_scale: warning: only %zu/%zu socket clients adopted\n",
                 rm.client_count(), want);

  return run_cycles(rm, active_ends, cycles);
}

/// Burst → all-activated round-trip against `registered` point-submitting
/// apps on top of `idle` silent clients; `rm` polls once per spin.
double roundtrip_bench(core::RmServer& rm,
                       std::vector<std::unique_ptr<ipc::Channel>>& registered_ends, int bursts) {
  platform::HardwareDescription hw = platform::raptor_lake();
  double best = 0.0;
  double now = 10.0;
  for (int burst = 0; burst < bursts; ++burst) {
    double wiggle = (burst % 2 == 0) ? 0.0 : 1.0;  // never a no-op resubmission
    ipc::OperatingPointsMsg msg;
    msg.points = {
        {platform::ExtendedResourceVector::from_threads(hw, {2, 0}), 100.0 + wiggle, 6.0},
        {platform::ExtendedResourceVector::from_threads(hw, {0, 2}), 50.0 + wiggle, 1.2}};
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& end : registered_ends) (void)end->send(ipc::Message(msg));
    std::vector<bool> activated(registered_ends.size(), false);
    std::size_t remaining = registered_ends.size();
    while (remaining > 0 && seconds_since(t0) < 30.0) {
      now += 0.01;
      rm.poll(now);
      for (std::size_t i = 0; i < registered_ends.size(); ++i) {
        if (activated[i]) continue;
        for (;;) {
          Result<std::optional<ipc::Message>> polled = registered_ends[i]->poll();
          if (!polled.ok() || !polled.value().has_value()) break;
          if (std::holds_alternative<ipc::ActivateMsg>(*polled.value())) {
            if (!activated[i]) --remaining;
            activated[i] = true;
          }
        }
      }
    }
    double elapsed = seconds_since(t0);
    if (burst == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

json::Object roundtrip_row(int idle, int registered, int bursts, double best_seconds) {
  json::Object row;
  row["mode"] = json::Value("roundtrip");
  row["server"] = json::Value("single");
  row["idle_clients"] = json::Value(idle);
  row["registered_apps"] = json::Value(registered);
  row["bursts"] = json::Value(bursts);
  row["best_roundtrip_seconds"] = json::Value(best_seconds);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_rm_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out path]\n", argv[0]);
      return 2;
    }
  }

  const int inproc_clients = quick ? 10000 : 100000;
  const int active = quick ? 64 : 256;
  // The active heartbeaters connect over the same socket, so budget fds for
  // bulk + active and carve the active set out of what the limit allows.
  const int socket_clients =
      std::max(0, usable_socket_clients((quick ? 1000 : 10000) + active) - active);
  const int cycles = quick ? 30 : 100;
  const int bursts = quick ? 4 : 10;
  platform::HardwareDescription hw = platform::raptor_lake();

  json::Array rows;
  std::printf("== RM cycle latency, mostly-idle population (%d heartbeats/cycle) ==\n", active);
  std::printf("%-8s %-12s %8s %14s %14s\n", "wire", "server", "clients", "p50[us]", "p99[us]");

  // In-process: the cycle bookkeeping alone.
  {
    core::RmServerOptions options;
    options.lease_seconds = 0;
    core::RmServer rm(hw, options);
    report_cycle(rows, "inproc", inproc_clients, active, cycles,
                 inproc_cycle_bench(rm, inproc_clients, active, cycles));
  }

  // Real sockets: the same cycle with the kernel's readiness reporting.
  if (socket_clients > 0) {
    report_cycle(rows, "socket", socket_clients, active, cycles,
                 socket_cycle_bench(socket_clients, active, cycles,
                                    "/tmp/harp_rm_scale_loop.sock"));
  }

  // Round-trip: burst of point submissions → all activations delivered.
  const int registered = 64;
  const int idle = quick ? 10000 : 100000;
  std::printf("\n== Activation round-trip, %d apps under %d idle clients ==\n", registered,
              idle);
  {
    core::RmServerOptions options;
    options.lease_seconds = 0;
    core::RmServer rm(hw, options);
    std::vector<std::unique_ptr<ipc::Channel>> registered_ends, idle_ends;
    adopt_clients(rm, registered_ends, registered, true);
    adopt_clients(rm, idle_ends, idle, false);
    rm.poll(0.5);
    double best = roundtrip_bench(rm, registered_ends, bursts);
    std::printf("%-18s best %.3f ms\n", "single", best * 1e3);
    rows.push_back(json::Value(roundtrip_row(idle, registered, bursts, best)));
  }

  if (!bench::write_bench_file(out_path, "rm_scale", std::move(rows))) return 1;
  return 0;
}
