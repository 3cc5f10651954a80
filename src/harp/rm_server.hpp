// The HARP RM as a user-space daemon (§4.3, Fig. 4): a central service —
// akin to systemd/launchd — that applications register with over a Unix
// socket (or an in-process channel in tests).
//
// The daemon side of the Fig. 3 control flow: it accepts registrations,
// ingests operating points from application description files, solves the
// MMKP (Eq. 1) whenever the application set or the point tables change,
// pushes operating-point activations with concrete spatially isolated core
// grants, and polls utility feedback from applications that provide it.
//
// I/O is readiness-driven (DESIGN.md "Event loop"): an ipc::EventLoop owns
// every client fd, so a poll() cycle drains only the clients with work
// instead of issuing one recv(2) per connected client. In-process channels
// participate through ready hooks that set a per-client atomic flag and
// nudge the loop's wakeup pipe. One RmServer serves the whole machine.
//
// The decision is the DecisionCore (decision_core.hpp) that HarpPolicy
// drives too. RmServer senses neither power nor utility (its Tracer and
// MetricsRegistry record only its own decisions), so applications without
// description files receive a fair-share allocation until they submit
// points or report utility.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/harp/decision_core.hpp"
#include "src/harp/operating_point.hpp"
#include "src/ipc/event_loop.hpp"
#include "src/ipc/transport.hpp"

namespace harp::core {

struct RmServerOptions {
  /// Seconds between utility-feedback requests (§4.1.1 step 4).
  double utility_poll_interval_s = 1.0;
  /// Client lease: a client silent for longer than this is evicted and its
  /// cores reclaimed within the same poll() cycle. Any received frame (even
  /// a malformed one) renews the lease; libharp sends heartbeats when idle.
  /// 0 disables lease tracking.
  double lease_seconds = 30.0;
  /// Optional telemetry sinks (may each be null): allocation-cycle spans,
  /// grant/registration/lease instants, and "rm_*_total" counters.
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Diagnostic view of one connected client (scenario tests, harp-inspect).
struct ClientSnapshot {
  std::string name;
  std::int32_t pid = 0;
  std::int32_t app_id = -1;
  bool registered = false;
  double last_heard = 0.0;
  /// Exclusive core grants currently held (empty under co-allocation).
  std::vector<ipc::ActivateMsg::CoreGrant> granted;
};

/// One registered client's choice group, exported for inspection and
/// offline solves. `group` points into the server's client record and is
/// valid only until the server's next poll() or adoption.
struct ExportedGroup {
  const AllocationGroup* group = nullptr;
};

class RmServer {
 public:
  RmServer(platform::HardwareDescription hw, RmServerOptions options = {});
  ~RmServer();
  RmServer(const RmServer&) = delete;
  RmServer& operator=(const RmServer&) = delete;

  /// Bind the registration socket (Fig. 3 step 1).
  Status listen(const std::string& socket_path);

  /// Adopt an already connected channel (in-process transport). Wakes a
  /// blocked poll(now, timeout) so frames queued before adoption are served
  /// at once. Thread-safe.
  void adopt_channel(std::unique_ptr<ipc::Channel> channel);

  /// One event-loop iteration: accept clients, process pending messages,
  /// reallocate if anything changed, and issue due utility requests.
  /// `now_seconds` is the caller's clock (monotonic); drives utility polls.
  void poll(double now_seconds);

  /// Blocking variant for a dedicated RM thread: waits up to `timeout_ms`
  /// (-1 = indefinitely) for readiness before running the cycle. Returns
  /// immediately when wakeup() or readiness arrives.
  void poll(double now_seconds, int timeout_ms);

  /// Nudge a poll(now, timeout) blocked on the event loop (cross-thread
  /// adoption, shutdown). Thread-safe.
  void wakeup();

  /// Export the choice groups of all registered clients in adoption order,
  /// refreshing dirty group caches. See ExportedGroup for lifetime rules.
  void export_groups(std::vector<ExportedGroup>& out);

  // Read-only accessors. ------------------------------------------------

  /// The accessors below may be called from a monitoring thread while
  /// another thread drives poll(); they copy out under the lock and never
  /// hand back references into client state.

  std::size_t client_count() const;

  /// Most recent utility reported by a named application (0 if none).
  double last_utility(const std::string& app_name) const;

  /// The activation most recently pushed to a named application.
  std::optional<OperatingPoint> current_point(const std::string& app_name) const;

  /// Per-client diagnostic snapshot (invariant checks, tooling).
  std::vector<ClientSnapshot> snapshot() const;

  /// Times the MMKP ran since construction (observability for tests).
  std::uint64_t realloc_count() const;
  /// Clients evicted for lease expiry since construction.
  std::uint64_t lease_evictions() const;

 private:
  struct Client;

  void accept_pending_locked() HARP_REQUIRES(mutex_);
  void process_cycle_locked(double now_seconds) HARP_REQUIRES(mutex_);
  void adopt_channel_locked(std::unique_ptr<ipc::Channel> channel) HARP_REQUIRES(mutex_);
  void process_client_messages(Client& client, double now_seconds) HARP_REQUIRES(mutex_);
  void handle_registration(Client& client, const ipc::RegisterRequest& request)
      HARP_REQUIRES(mutex_);
  void drop_client(std::size_t index) HARP_REQUIRES(mutex_);
  /// Start the core's cycle over the registered clients (cycle_clients_).
  void begin_cycle_locked() HARP_REQUIRES(mutex_);
  void reallocate() HARP_REQUIRES(mutex_);
  void send_activation_locked(Client& client, const OperatingPoint& point,
                              const platform::CoreAllocation& cores, double cost)
      HARP_REQUIRES(mutex_);
  void send_coallocation_locked(Client& client) HARP_REQUIRES(mutex_);

  /// Readiness loop; created at construction, immutable after. Shared so
  /// in-process ready hooks can hold a weak_ptr for their wakeup nudge
  /// without dangling after destruction. Declared before clients_ so it
  /// outlives every hook-owning channel during teardown.
  const std::shared_ptr<ipc::EventLoop> loop_;
  /// wait() output, reused across cycles; touched only by the poll thread.
  std::vector<ipc::EventLoop::Ready> ready_scratch_;  // harp-lint: allow(all poll-thread-only)

  /// Guards all server state: poll() holds it for a full event-loop
  /// iteration; accessors take it briefly. hw_/options_ are written only at
  /// construction but are kept under the same lock so the invariant stays
  /// one sentence long.
  mutable Mutex mutex_;
  platform::HardwareDescription hw_ HARP_GUARDED_BY(mutex_);
  RmServerOptions options_ HARP_GUARDED_BY(mutex_);
  /// The decision core: cached-group refresh, incremental solve, λ.
  DecisionCore core_ HARP_GUARDED_BY(mutex_);
  std::unique_ptr<ipc::UnixServer> server_ HARP_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Client>> clients_ HARP_GUARDED_BY(mutex_);
  /// fd → client, for routing readiness events (fd-backed channels only).
  std::map<int, Client*> by_fd_ HARP_GUARDED_BY(mutex_);
  /// Registered identity → client, for O(log n) zombie supersession.
  std::map<std::pair<std::string, std::int32_t>, Client*> identity_ HARP_GUARDED_BY(mutex_);
  /// Clients adopted since the last cycle, awaiting their lease-clock start
  /// (adoption has no clock; poll() provides one).
  std::vector<Client*> lease_init_pending_ HARP_GUARDED_BY(mutex_);
  std::int32_t next_app_id_ HARP_GUARDED_BY(mutex_) = 1;
  bool needs_realloc_ HARP_GUARDED_BY(mutex_) = false;
  /// True from an infeasible (co-allocating) decision until the next
  /// feasible or empty one: the overload warning is logged once per episode.
  bool overloaded_ HARP_GUARDED_BY(mutex_) = false;
  double last_utility_poll_ HARP_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t realloc_count_ HARP_GUARDED_BY(mutex_) = 0;
  std::uint64_t lease_evictions_ HARP_GUARDED_BY(mutex_) = 0;
  /// clients_ indices of the core's current cycle, in group order.
  std::vector<std::size_t> cycle_clients_ HARP_GUARDED_BY(mutex_);
  /// app_ids of the last cycle that actually sent activations (skip test).
  GrantMemo grants_ HARP_GUARDED_BY(mutex_);
  /// Counters resolved once at construction from options.metrics (all null
  /// when metrics are off, making every increment a single null check).
  telemetry::Counter* reallocs_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* registrations_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* evictions_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* malformed_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* realloc_skips_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* eventloop_cycles_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Counter* eventloop_ready_counter_ HARP_GUARDED_BY(mutex_) = nullptr;
  telemetry::Histogram* solve_histogram_ HARP_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace harp::core
