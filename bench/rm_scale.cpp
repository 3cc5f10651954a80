// RM transport scale-out (DESIGN.md "Event loop & sharding"): how the
// per-cycle cost of the RM control loop scales with the connected-client
// population, and what the readiness event loop and sharding buy.
//
// Two measurements:
//
//  - cycle: a mostly-idle population (the realistic regime — managed
//    applications mostly compute and occasionally heartbeat). Per cycle a
//    small active set sends one heartbeat each; the bench times rm.poll()
//    and reports p50/p99 for one event-loop server and, in process, for 4
//    coordinated shards. In-process (100k clients full, 10k --quick)
//    isolates the cycle bookkeeping, real AF_UNIX sockets (10k full, 1k
//    --quick) add the kernel.
//
//  - roundtrip: 64 registered apps resubmit operating points under a large
//    idle population; the bench times burst → every app holds its fresh
//    activation. A single event-loop server vs 4 threaded λ-drift shards
//    (each solving its own sub-budget) gives the sharded-vs-single speedup
//    quoted in EXPERIMENTS.md.
//
// Writes BENCH_rm_scale.json (schema: bench_json.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/harp/rm_server.hpp"
#include "src/harp/rm_shard.hpp"
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
/// server cycle via `poll_once` and times it. The bulk population stays
/// silent: heartbeats from unregistered clients are a protocol violation
/// (the RM drops the client), and registering the bulk would stage a
/// fair-share MMKP over the whole population — allocator scale is
/// allocator_scale's bench, not this one.
template <typename PollFn>
CycleStats run_cycles(std::vector<std::unique_ptr<ipc::Channel>>& active_ends, int cycles,
                      PollFn poll_once) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cycles));
  double now = 1.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& end : active_ends) (void)end->send(ipc::Message(ipc::Heartbeat{}));
    now += 0.01;
    auto t0 = std::chrono::steady_clock::now();
    poll_once(now);
    samples.push_back(seconds_since(t0));
  }
  return CycleStats{percentile(samples, 0.50), percentile(samples, 0.99)};
}

json::Object cycle_row(const char* transport, const char* server, int clients, int active,
                       int cycles, const CycleStats& stats) {
  json::Object row;
  row["mode"] = json::Value("cycle");
  row["transport"] = json::Value(transport);
  row["server"] = json::Value(server);
  row["clients"] = json::Value(clients);
  row["active_per_cycle"] = json::Value(active);
  row["cycles"] = json::Value(cycles);
  row["p50_cycle_seconds"] = json::Value(stats.p50);
  row["p99_cycle_seconds"] = json::Value(stats.p99);
  return row;
}

void print_cycle(const char* transport, const char* server, int clients,
                 const CycleStats& stats) {
  std::printf("%-8s %-12s %8d %14.1f %14.1f\n", transport, server, clients, stats.p50 * 1e6,
              stats.p99 * 1e6);
  std::fflush(stdout);
}

ipc::RegisterRequest active_registration(int index) {
  ipc::RegisterRequest reg;
  reg.pid = 100000 + index;
  reg.app_name = "hb_" + std::to_string(index);
  return reg;
}

/// In-process cycle benchmark against one RmServer or a sharded
/// coordinator, chosen by the poll functor: `clients` silent unregistered
/// channels plus `active` registered heartbeaters.
template <typename MakeServer>
CycleStats inproc_cycle_bench(int clients, int active, int cycles, MakeServer make_server) {
  auto [adopt, poll_once] = make_server();
  std::vector<std::unique_ptr<ipc::Channel>> bulk_ends, active_ends;
  bulk_ends.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    adopt(std::move(rm_end));
    bulk_ends.push_back(std::move(app_end));
  }
  for (int i = 0; i < active; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    (void)app_end->send(ipc::Message(active_registration(i)));
    adopt(std::move(rm_end));
    active_ends.push_back(std::move(app_end));
  }
  poll_once(0.5);  // settle: registrations, lease clocks, one fair-share solve
  return run_cycles(active_ends, cycles, poll_once);
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
        (void)connected.value()->send(ipc::Message(active_registration(index)));
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

  return run_cycles(active_ends, cycles, [&rm](double now) { rm.poll(now); });
}

/// Burst → all-activated round-trip against `registered` point-submitting
/// apps on top of `idle` silent clients. The driver functor runs the server
/// side once per spin (single server: one poll; threaded shards: nothing).
template <typename Drive>
double roundtrip_bench(std::vector<std::unique_ptr<ipc::Channel>>& registered_ends,
                       int bursts, Drive drive) {
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
      drive(now);
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

json::Object roundtrip_row(const char* server, int idle, int registered, int bursts,
                           double best_seconds) {
  json::Object row;
  row["mode"] = json::Value("roundtrip");
  row["server"] = json::Value(server);
  row["idle_clients"] = json::Value(idle);
  row["registered_apps"] = json::Value(registered);
  row["bursts"] = json::Value(bursts);
  row["best_roundtrip_seconds"] = json::Value(best_seconds);
  return row;
}

void register_apps(std::vector<std::unique_ptr<ipc::Channel>>& ends,
                   const std::function<void(std::unique_ptr<ipc::Channel>)>& adopt,
                   int count) {
  for (int i = 0; i < count; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    ipc::RegisterRequest reg;
    reg.pid = 1000 + i;
    reg.app_name = "scale_" + std::to_string(i);
    (void)app_end->send(ipc::Message(reg));
    adopt(std::move(rm_end));
    ends.push_back(std::move(app_end));
  }
}

void adopt_idle(const std::function<void(std::unique_ptr<ipc::Channel>)>& adopt,
                std::vector<std::unique_ptr<ipc::Channel>>& keepalive, int count) {
  for (int i = 0; i < count; ++i) {
    auto [rm_end, app_end] = ipc::make_in_process_pair();
    adopt(std::move(rm_end));
    keepalive.push_back(std::move(app_end));  // closing would force drop work
  }
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

  // In-process: one event-loop server vs 4 coordinated shards.
  {
    auto make_single = [&hw]() {
      core::RmServerOptions options;
      options.lease_seconds = 0;
      auto rm = std::make_shared<core::RmServer>(hw, options);
      return std::make_pair(
          std::function<void(std::unique_ptr<ipc::Channel>)>(
              [rm](std::unique_ptr<ipc::Channel> c) { rm->adopt_channel(std::move(c)); }),
          std::function<void(double)>([rm](double now) { rm->poll(now); }));
    };
    CycleStats loop = inproc_cycle_bench(inproc_clients, active, cycles, make_single);
    print_cycle("inproc", "event_loop", inproc_clients, loop);
    rows.push_back(json::Value(
        cycle_row("inproc", "event_loop", inproc_clients, active, cycles, loop)));

    auto make_sharded = [&hw]() {
      core::ShardedRmOptions options;
      options.num_shards = 4;
      options.server.lease_seconds = 0;
      auto rm = std::make_shared<core::ShardedRmServer>(hw, options);
      return std::make_pair(
          std::function<void(std::unique_ptr<ipc::Channel>)>(
              [rm](std::unique_ptr<ipc::Channel> c) { rm->adopt_channel(std::move(c)); }),
          std::function<void(double)>([rm](double now) { rm->poll(now); }));
    };
    CycleStats sharded = inproc_cycle_bench(inproc_clients, active, cycles, make_sharded);
    print_cycle("inproc", "sharded4", inproc_clients, sharded);
    rows.push_back(json::Value(
        cycle_row("inproc", "sharded4", inproc_clients, active, cycles, sharded)));
  }

  // Real sockets: the same cycle with the kernel's readiness reporting.
  if (socket_clients > 0) {
    CycleStats loop =
        socket_cycle_bench(socket_clients, active, cycles, "/tmp/harp_rm_scale_loop.sock");
    print_cycle("socket", "event_loop", socket_clients, loop);
    rows.push_back(json::Value(
        cycle_row("socket", "event_loop", socket_clients, active, cycles, loop)));
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
    auto adopt = std::function<void(std::unique_ptr<ipc::Channel>)>(
        [&rm](std::unique_ptr<ipc::Channel> c) { rm.adopt_channel(std::move(c)); });
    std::vector<std::unique_ptr<ipc::Channel>> registered_ends, keepalive;
    register_apps(registered_ends, adopt, registered);
    adopt_idle(adopt, keepalive, idle);
    rm.poll(0.5);
    double best = roundtrip_bench(registered_ends, bursts,
                                  [&rm](double now) { rm.poll(now); });
    std::printf("%-18s best %.3f ms\n", "single", best * 1e3);
    rows.push_back(json::Value(roundtrip_row("single", idle, registered, bursts, best)));
  }
  double single_best = 0.0;
  if (!rows.empty()) {
    const json::Object& last = rows.back().as_object();
    single_best = last.at("best_roundtrip_seconds").as_number();
  }
  {
    core::ShardedRmOptions options;
    options.num_shards = 4;
    options.rebalance = core::RebalanceMode::kLambdaDrift;
    options.server.lease_seconds = 0;
    core::ShardedRmServer rm(hw, options);
    rm.start_threads();
    auto adopt = std::function<void(std::unique_ptr<ipc::Channel>)>(
        [&rm](std::unique_ptr<ipc::Channel> c) { rm.adopt_channel(std::move(c)); });
    std::vector<std::unique_ptr<ipc::Channel>> registered_ends, keepalive;
    register_apps(registered_ends, adopt, registered);
    adopt_idle(adopt, keepalive, idle);
    double best = roundtrip_bench(registered_ends, bursts, [](double) {});
    rm.stop_threads();
    std::printf("%-18s best %.3f ms", "sharded4_threaded", best * 1e3);
    if (best > 0.0 && single_best > 0.0)
      std::printf("  (%.2fx vs single)", single_best / best);
    std::printf("\n");
    rows.push_back(
        json::Value(roundtrip_row("sharded4_threaded", idle, registered, bursts, best)));
  }

  if (!bench::write_bench_file(out_path, "rm_scale", std::move(rows))) return 1;
  return 0;
}
