// libharp — the application-side library (§4.1).
//
// libharp mediates between an application and the HARP RM: it registers the
// application (adaptivity type, capability flags), optionally submits the
// operating points from its description file, receives operating-point
// activations, and reports utility on request.
//
// Adaptivity integration (§4.1.3/§4.1.4):
//  - static apps need nothing beyond registration; the activation carries
//    the affinity grant the RM chose.
//  - scalable apps (OpenMP/TBB-style runtimes) read
//    recommended_parallelism() where the real library hooks GOMP_parallel —
//    the returned team size is max(user requested, RM assignment), exactly
//    the paper's num_threads adjustment.
//  - custom apps register an on_activate callback and reconfigure
//    themselves (the KPN parallel-region scaling of the paper).
//
// Fault tolerance: the RM is a long-lived daemon, but the link to it is not
// (RM restarts, socket hiccups). The client therefore runs a small link
// state machine — registering → connected → disconnected → (reconnect) —
// with capped exponential backoff + deterministic jitter, idempotent
// re-registration that replays the submitted operating-point table, and a
// bounded outbound queue so utility reports survive a transient disconnect.
// See DESIGN.md "Failure model & recovery".
//
// Thread safety: every public method may be called from any thread. One
// internal mutex guards the link state machine, the pending-send queue and
// the activation snapshot; user callbacks (on_activate, utility_provider)
// are always invoked with that mutex RELEASED, so a callback may call back
// into the client without deadlocking. The real library needs this because
// GOMP_parallel hooks poll from worker threads while the main thread
// submits operating points.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/common/race_registry.hpp"
#include "src/common/result.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/ipc/transport.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace harp::client {

/// A received operating-point activation (Fig. 3 step 3).
struct Activation {
  platform::ExtendedResourceVector erv;
  std::vector<ipc::ActivateMsg::CoreGrant> cores;
  int parallelism = 0;  ///< 0 = keep application default
  bool rebalance = false;
};

/// Reconnect backoff: capped exponential with deterministic jitter.
struct RetryPolicy {
  double initial_backoff_s = 0.05;
  double max_backoff_s = 2.0;
  double jitter_frac = 0.1;  ///< ± fraction of the backoff, seeded PRNG
  int max_attempts = 0;      ///< consecutive failed attempts before giving up; 0 = forever
};

struct Config {
  std::string app_name;
  ipc::WireAdaptivity adaptivity = ipc::WireAdaptivity::kScalable;
  bool provides_utility = false;
  /// PID reported to the RM; 0 = use the current process id.
  std::int32_t pid = 0;

  RetryPolicy retry;
  /// Outbound messages buffered while the link is down or busy; when full,
  /// the oldest droppable message (utility report, heartbeat) is discarded.
  std::size_t max_pending_sends = 64;
  /// Seconds of send-side silence before a liveness heartbeat; 0 = disabled.
  /// The default stays well below the RM's default 30 s lease, so an idle
  /// but healthy application is never evicted.
  double heartbeat_interval_s = 10.0;
  /// Retransmit interval for an unacknowledged RegisterRequest; 0 = never.
  double register_retry_s = 0.5;
  /// Seed for backoff jitter (deterministic reconnect timing in tests).
  std::uint64_t jitter_seed = 1;

  /// Optional telemetry sinks (each may be null): kReconnect / kLinkDown
  /// instants scoped by app_name plus "client_*_total" counters. These live
  /// on the client, not the channel — they survive reconnects.
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct Callbacks {
  /// Invoked whenever the RM pushes a new activation (custom adaptivity).
  std::function<void(const Activation&)> on_activate;
  /// Polled when the RM requests utility (requires provides_utility).
  std::function<double()> utility_provider;
};

/// Produces a fresh channel to the RM; consulted on every reconnect attempt.
using ChannelFactory = std::function<Result<std::unique_ptr<ipc::Channel>>()>;

/// Link state machine (see header comment).
enum class LinkState {
  kRegistering,   ///< channel up, RegisterRequest sent, awaiting ack
  kConnected,     ///< registered; normal protocol flow
  kDisconnected,  ///< link lost; reconnect pending (requires a factory)
  kClosed,        ///< deregistered or permanently given up
};

const char* to_string(LinkState state);

/// One application's connection to the HARP RM.
class HarpClient {
 public:
  /// Connect over a Unix socket and register (Fig. 3 step 1). Blocks (with
  /// a bounded number of polls) until the RM acknowledges registration.
  /// Installs a reconnect factory dialing the same socket path.
  static Result<std::unique_ptr<HarpClient>> connect(const std::string& socket_path,
                                                     Config config, Callbacks callbacks = {});

  /// Register over an existing channel — the in-process transport for tests
  /// and deterministic integrations. Blocks like connect(); the RM must be
  /// polled concurrently (e.g. from another thread).
  static Result<std::unique_ptr<HarpClient>> over_channel(std::unique_ptr<ipc::Channel> channel,
                                                          Config config,
                                                          Callbacks callbacks = {});

  /// Non-blocking construction: the RegisterRequest is sent immediately but
  /// the handshake completes during subsequent poll() calls — required for
  /// single-threaded deterministic harnesses, where blocking would deadlock.
  static Result<std::unique_ptr<HarpClient>> deferred(std::unique_ptr<ipc::Channel> channel,
                                                      Config config, Callbacks callbacks = {},
                                                      ChannelFactory factory = nullptr);

  ~HarpClient();
  HarpClient(const HarpClient&) = delete;
  HarpClient& operator=(const HarpClient&) = delete;

  /// Fig. 3 step 2: submit operating points from the description file. The
  /// points are retained and replayed on every re-registration.
  Status submit_operating_points(const std::vector<ipc::OperatingPointsMsg::Point>& points);

  /// Pump the protocol: handle pending RM messages (activations, utility
  /// requests), advance the registration handshake, attempt reconnects and
  /// emit heartbeats. Call regularly from the application's main/worker
  /// loop; the real library does this from its function hooks.
  Status poll();
  /// Same, with an explicit monotonic clock (drives backoff + heartbeats
  /// deterministically in tests).
  Status poll(double now_seconds);

  /// Snapshot of the most recent activation, if any. Returned by value: the
  /// stored activation can be replaced by a concurrent poll() at any time,
  /// so a reference would be a use-after-move hazard.
  std::optional<Activation> current_activation() const {
    MutexLock lock(mutex_);
    return activation_;
  }

  /// Team size a scalable runtime should use: the RM assignment when one is
  /// active, otherwise the user's request (the GOMP_parallel hook).
  int recommended_parallelism(int user_requested) const;

  /// Clean shutdown (also performed by the destructor). Best-effort and
  /// bounded: on a half-open or dead link the Deregister notice is skipped —
  /// the RM reclaims the grant via lease expiry — and the call still
  /// succeeds without blocking.
  Status deregister();

  /// Abrupt link loss without the Deregister notice — simulates an
  /// application crash in fault scenarios. No reconnect is attempted.
  void drop_link();

  /// Install (or replace) the reconnect factory.
  void set_channel_factory(ChannelFactory factory) {
    MutexLock lock(mutex_);
    factory_ = std::move(factory);
  }

  std::int32_t app_id() const {
    MutexLock lock(mutex_);
    return app_id_;
  }
  const std::string& app_name() const { return config_.app_name; }
  LinkState link_state() const {
    MutexLock lock(mutex_);
    return state_;
  }
  bool registered() const { return link_state() == LinkState::kConnected; }
  std::size_t pending_sends() const {
    MutexLock lock(mutex_);
    HARP_TRACK_SHARED(&pending_);
    return pending_.size();
  }
  std::uint64_t dropped_sends() const {
    MutexLock lock(mutex_);
    return dropped_sends_;
  }
  int reconnect_count() const {
    MutexLock lock(mutex_);
    return reconnects_;
  }

 private:
  struct Pending {
    ipc::Message message;
    bool droppable = false;
  };

  /// Side effects collected under the lock and executed after it is
  /// released: activations to deliver to on_activate, and how many utility
  /// requests arrived (the provider runs unlocked, then the report is
  /// transmitted under a fresh lock).
  struct DeferredWork {
    std::vector<Activation> activations;
    int utility_requests = 0;
  };

  HarpClient(std::unique_ptr<ipc::Channel> channel, Config config, Callbacks callbacks,
             ChannelFactory factory);
  static Result<std::unique_ptr<HarpClient>> make(std::unique_ptr<ipc::Channel> channel,
                                                  Config config, Callbacks callbacks,
                                                  ChannelFactory factory, bool blocking);
  ipc::Message register_request() const;
  Status begin_registration() HARP_REQUIRES(mutex_);
  Status block_until_registered();
  Status poll_locked(double now_seconds, DeferredWork& deferred) HARP_REQUIRES(mutex_);
  Status handle(const ipc::Message& message, double now_seconds, DeferredWork& deferred)
      HARP_REQUIRES(mutex_);
  void on_registered(double now_seconds) HARP_REQUIRES(mutex_);
  /// Send now if the link is up and nothing is queued ahead, otherwise
  /// buffer (bounded). Returns an error only when the message can never be
  /// delivered (no factory).
  Status transmit(const ipc::Message& message, bool droppable, double now_seconds)
      HARP_REQUIRES(mutex_);
  void enqueue(ipc::Message message, bool droppable) HARP_REQUIRES(mutex_);
  void flush_pending(double now_seconds) HARP_REQUIRES(mutex_);
  /// React to a fatal channel error: schedule a reconnect or go kClosed.
  Status link_down(const Error& error, double now_seconds) HARP_REQUIRES(mutex_);
  void try_reconnect(double now_seconds) HARP_REQUIRES(mutex_);
  double backoff_delay(int attempt) HARP_REQUIRES(mutex_);
  double wall_clock_seconds();

  /// Immutable after construction; read freely from any thread.
  const Config config_;
  /// Invoked only with mutex_ released; the function objects are set once
  /// at construction and never reassigned.
  const Callbacks callbacks_;

  mutable Mutex mutex_;
  std::unique_ptr<ipc::Channel> channel_ HARP_GUARDED_BY(mutex_);
  ChannelFactory factory_ HARP_GUARDED_BY(mutex_);
  LinkState state_ HARP_GUARDED_BY(mutex_) = LinkState::kRegistering;
  std::int32_t app_id_ HARP_GUARDED_BY(mutex_) = -1;
  std::optional<Activation> activation_ HARP_GUARDED_BY(mutex_);
  bool deregistered_ HARP_GUARDED_BY(mutex_) = false;

  std::deque<Pending> pending_ HARP_GUARDED_BY(mutex_);
  std::uint64_t dropped_sends_ HARP_GUARDED_BY(mutex_) = 0;
  std::vector<ipc::OperatingPointsMsg::Point> submitted_points_ HARP_GUARDED_BY(mutex_);
  Rng jitter_rng_ HARP_GUARDED_BY(mutex_);
  int attempt_ HARP_GUARDED_BY(mutex_) = 0;
  double next_retry_at_ HARP_GUARDED_BY(mutex_) = 0.0;
  double register_sent_at_ HARP_GUARDED_BY(mutex_) = 0.0;
  int reconnects_ HARP_GUARDED_BY(mutex_) = 0;
  int malformed_from_rm_ HARP_GUARDED_BY(mutex_) = 0;
  double last_tx_ HARP_GUARDED_BY(mutex_) = 0.0;
  /// Most recent poll() clock; timestamps out-of-poll sends.
  double last_now_ HARP_GUARDED_BY(mutex_) = 0.0;
  std::optional<std::chrono::steady_clock::time_point> clock_base_ HARP_GUARDED_BY(mutex_);

  /// Counters resolved once at construction (null when metrics are off);
  /// Counter increments are internally atomic.
  telemetry::Counter* const reconnects_counter_;
  telemetry::Counter* const link_down_counter_;
  telemetry::Counter* const dropped_sends_counter_;
  telemetry::Counter* const heartbeats_counter_;
};

}  // namespace harp::client
