#include "src/harp/rm_server.hpp"

#include <algorithm>
#include <chrono>

#include "src/common/check.hpp"
#include "src/common/logging.hpp"
#include "src/common/race_registry.hpp"

namespace harp::core {

struct RmServer::Client {
  std::unique_ptr<ipc::Channel> channel;
  /// Cached native_handle() (the channel forgets it on close); -1 = in-proc.
  int fd = -1;
  /// Readiness flag, set by the event loop (fd channels) or by the channel's
  /// ready hook (in-process channels, possibly from the sending thread) and
  /// test-and-cleared by the poll cycle. Shared so a hook outliving a poll
  /// cycle can never dangle.
  std::shared_ptr<std::atomic<bool>> ready;
  /// True while the event loop watches this fd for writability (a partial
  /// frame is buffered awaiting flush_pending()).
  bool watching_write = false;
  bool registered = false;
  std::int32_t app_id = -1;
  std::int32_t pid = 0;
  std::string name;
  ipc::WireAdaptivity adaptivity = ipc::WireAdaptivity::kStatic;
  bool provides_utility = false;
  OperatingPointTable table;
  OperatingPoint active_point;
  bool has_active = false;
  double last_utility = 0.0;
  /// Lease bookkeeping: renewed by any received frame; < 0 = not seen yet.
  double last_heard = -1.0;
  /// Consecutive malformed frames (reset by any valid message).
  int malformed = 0;
  /// Last activation pushed, replayed on idempotent re-registration.
  ipc::ActivateMsg last_activation;
  bool activation_sent = false;
  /// Choice group, rebuilt (build_group + usage rows) only when the
  /// operating-point table changed since it was built. The table version is
  /// a conservative dirty signal — any table mutation invalidates; the
  /// solver's instance fingerprint catches equal-content rebuilds.
  CachedGroup cached;
};

RmServer::RmServer(platform::HardwareDescription hw, RmServerOptions options)
    : loop_(std::make_shared<ipc::EventLoop>()),
      hw_(std::move(hw)),
      options_(options),
      core_(hw_, options.tracer, options.metrics) {
  // Without its event loop (pipe/epoll fds exhausted) the process could not
  // serve sockets either.
  HARP_CHECK_MSG(loop_->valid(), "RM event loop unavailable (file descriptors exhausted?)");
  if (options_.metrics != nullptr) {
    reallocs_counter_ = &options_.metrics->counter("rm_reallocs_total");
    registrations_counter_ = &options_.metrics->counter("rm_registrations_total");
    evictions_counter_ = &options_.metrics->counter("rm_lease_evictions_total");
    malformed_counter_ = &options_.metrics->counter("rm_malformed_frames_total");
    realloc_skips_counter_ = &options_.metrics->counter("rm_realloc_skips_total");
    eventloop_cycles_counter_ = &options_.metrics->counter("rm_eventloop_cycles_total");
    eventloop_ready_counter_ = &options_.metrics->counter("rm_eventloop_ready_fds");
    solve_histogram_ = &options_.metrics->histogram(
        "rm_solve_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1});
  }
}

RmServer::~RmServer() { HARP_UNTRACK_SHARED(&clients_); }

Status RmServer::listen(const std::string& socket_path) {
  Result<std::unique_ptr<ipc::UnixServer>> server = ipc::UnixServer::listen(socket_path);
  if (!server.ok()) return Status(server.error());
  MutexLock lock(mutex_);
  server_ = std::move(server).take();
  (void)loop_->add(server_->fd(), ipc::kEventReadable);
  return Status{};
}

void RmServer::adopt_channel(std::unique_ptr<ipc::Channel> channel) {
  MutexLock lock(mutex_);
  adopt_channel_locked(std::move(channel));
  wakeup();  // a blocked poll() must not sit out its timeout on queued frames
}

void RmServer::adopt_channel_locked(std::unique_ptr<ipc::Channel> channel) {
  auto client = std::make_unique<Client>();
  client->channel = std::move(channel);
  client->fd = client->channel->native_handle();
  // New channels start ready: frames may have arrived before adoption.
  client->ready = std::make_shared<std::atomic<bool>>(true);
  if (client->fd >= 0) {
    // A client whose channel died (a failed send closes its fd) stays
    // mapped until the next cycle drops it. If the kernel has already
    // handed its fd number to this channel, drop it now: its drop would
    // otherwise unwatch and unmap the new client.
    if (auto stale = by_fd_.find(client->fd); stale != by_fd_.end()) {
      auto owner = std::find_if(clients_.begin(), clients_.end(),
                                [&](const auto& c) { return c.get() == stale->second; });
      drop_client(static_cast<std::size_t>(owner - clients_.begin()));
    }
    (void)loop_->add(client->fd, ipc::kEventReadable);
    by_fd_[client->fd] = client.get();
    // Never block the cycle on one slow peer; partial frames buffer and
    // flush on the fd's next writable event.
    client->channel->set_nonblocking_send(true);
  } else {
    // In-process transport: readiness arrives through the push hook, which
    // may fire from the sending thread. The shared flag keeps the store safe
    // even if the hook outlives this client; the weak loop pointer keeps the
    // wakeup safe even if it outlives this server.
    std::shared_ptr<std::atomic<bool>> ready = client->ready;
    std::weak_ptr<ipc::EventLoop> weak_loop = loop_;
    client->channel->set_ready_hook([ready, weak_loop] {
      ready->store(true, std::memory_order_release);
      if (std::shared_ptr<ipc::EventLoop> loop = weak_loop.lock()) loop->wakeup();
    });
  }
  lease_init_pending_.push_back(client.get());
  clients_.push_back(std::move(client));
}

std::size_t RmServer::client_count() const {
  MutexLock lock(mutex_);
  return clients_.size();
}

std::uint64_t RmServer::realloc_count() const {
  MutexLock lock(mutex_);
  return realloc_count_;
}

std::uint64_t RmServer::lease_evictions() const {
  MutexLock lock(mutex_);
  return lease_evictions_;
}

double RmServer::last_utility(const std::string& app_name) const {
  MutexLock lock(mutex_);
  for (const auto& client : clients_)
    if (client->registered && client->name == app_name) return client->last_utility;
  return 0.0;
}

std::optional<OperatingPoint> RmServer::current_point(const std::string& app_name) const {
  MutexLock lock(mutex_);
  for (const auto& client : clients_)
    if (client->registered && client->name == app_name && client->has_active)
      return client->active_point;
  return std::nullopt;
}

std::vector<ClientSnapshot> RmServer::snapshot() const {
  MutexLock lock(mutex_);
  HARP_TRACK_SHARED(&clients_);
  std::vector<ClientSnapshot> out;
  out.reserve(clients_.size());
  for (const auto& client : clients_) {
    ClientSnapshot snap;
    snap.name = client->name;
    snap.pid = client->pid;
    snap.app_id = client->app_id;
    snap.registered = client->registered;
    snap.last_heard = client->last_heard;
    if (client->activation_sent && client->has_active) snap.granted = client->last_activation.cores;
    out.push_back(std::move(snap));
  }
  return out;
}

void RmServer::poll(double now_seconds) { poll(now_seconds, 0); }

void RmServer::wakeup() { loop_->wakeup(); }

void RmServer::poll(double now_seconds, int timeout_ms) {
  // Wait outside the lock so accessors (and wakeup-triggering adopters) are
  // never blocked behind the kernel wait.
  Result<int> waited = loop_->wait(timeout_ms, ready_scratch_);
  if (!waited.ok()) {
    HARP_WARN << "event loop wait failed: " << waited.error().message;
    ready_scratch_.clear();
  }

  MutexLock lock(mutex_);
  HARP_TRACK_SHARED(&clients_);
  if (eventloop_cycles_counter_ != nullptr) eventloop_cycles_counter_->inc();
  if (eventloop_ready_counter_ != nullptr && !ready_scratch_.empty())
    eventloop_ready_counter_->inc(ready_scratch_.size());

  const int listen_fd = server_ != nullptr ? server_->fd() : -1;
  for (const ipc::EventLoop::Ready& event : ready_scratch_) {
    if (event.fd == listen_fd) {
      accept_pending_locked();
      continue;
    }
    auto it = by_fd_.find(event.fd);
    if (it == by_fd_.end()) continue;  // raced with a drop; stale event
    Client* client = it->second;
    if ((event.events & (ipc::kEventReadable | ipc::kEventError)) != 0)
      client->ready->store(true, std::memory_order_relaxed);
    if ((event.events & ipc::kEventWritable) != 0) {
      (void)client->channel->flush_pending();
      if (client->watching_write && !client->channel->has_pending_send()) {
        (void)loop_->modify(event.fd, ipc::kEventReadable);
        client->watching_write = false;
      }
    }
  }
  process_cycle_locked(now_seconds);
}

void RmServer::accept_pending_locked() {
  if (server_ == nullptr) return;
  while (true) {
    // harp-lint: allow(r12 listener fd is nonblocking: accept reports no-peer on EAGAIN, never waits)
    auto accepted = server_->accept();
    if (!accepted.ok()) {
      HARP_WARN << "accept failed: " << accepted.error().message;
      break;
    }
    if (!accepted.value().has_value()) break;
    adopt_channel_locked(std::move(*accepted.value()));
  }
}

void RmServer::process_cycle_locked(double now_seconds) {
  // Start the lease clock for channels adopted since the last cycle.
  for (Client* client : lease_init_pending_)
    if (client->last_heard < 0.0) client->last_heard = now_seconds;
  lease_init_pending_.clear();

  // Drain the ready clients' messages and drop broken/closed clients.
  // Iteration stays in adoption order so message processing (and therefore
  // allocation state) is deterministic regardless of the order the kernel
  // reported readiness in.
  for (std::size_t i = 0; i < clients_.size();) {
    Client& client = *clients_[i];
    if (client.ready->exchange(false, std::memory_order_acq_rel))
      process_client_messages(client, now_seconds);
    if (client.channel->closed()) {
      drop_client(i);
      continue;
    }
    ++i;
  }

  // Lease expiry: evict silent clients and reclaim their grants in this same
  // cycle (the reallocation below reruns the MMKP over the survivors).
  if (options_.lease_seconds > 0.0) {
    for (std::size_t i = 0; i < clients_.size();) {
      if (now_seconds - clients_[i]->last_heard > options_.lease_seconds) {
        HARP_WARN << "client '" << clients_[i]->name << "' lease expired ("
                  << options_.lease_seconds << " s silent); evicting";
        clients_[i]->channel->close();
        ++lease_evictions_;
        if (evictions_counter_ != nullptr) evictions_counter_->inc();
        if (options_.tracer != nullptr)
          options_.tracer->instant(telemetry::EventType::kLease, clients_[i]->name,
                                   {{"silent_s", now_seconds - clients_[i]->last_heard}});
        drop_client(i);
        continue;
      }
      ++i;
    }
  }

  if (needs_realloc_) reallocate();

  // Periodic utility feedback (Fig. 3 step 4).
  if (now_seconds - last_utility_poll_ >= options_.utility_poll_interval_s) {
    last_utility_poll_ = now_seconds;
    for (const auto& client : clients_)
      if (client->registered && client->provides_utility)
        // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
        (void)client->channel->send(ipc::Message(ipc::UtilityRequest{}));
  }

  // Sends above may have left partial frames buffered on slow peers; ask the
  // loop to tell us when those fds drain. fd-backed clients only — in-proc
  // channels never buffer.
  for (auto& [fd, client] : by_fd_) {
    if (!client->watching_write && client->channel->has_pending_send()) {
      (void)loop_->modify(fd, ipc::kEventReadable | ipc::kEventWritable);
      client->watching_write = true;
    }
  }
}

void RmServer::process_client_messages(Client& client, double now_seconds) {
  constexpr int kMaxMalformedFrames = 8;  // consecutive, per client
  while (true) {
    // harp-lint: allow(r12 channel poll is nonblocking: reports empty when no full frame is buffered)
    Result<std::optional<ipc::Message>> message = client.channel->poll();
    if (!message.ok()) {
      const std::string& what = message.error().message;
      if (!client.channel->closed() && what.rfind("proto:", 0) == 0) {
        // A single malformed frame was consumed; the stream is intact. Keep
        // the client (a garbage frame must not take down the event loop) but
        // bound its strikes. Receiving anything still proves liveness.
        client.last_heard = now_seconds;
        if (malformed_counter_ != nullptr) malformed_counter_->inc();
        if (++client.malformed > kMaxMalformedFrames) {
          HARP_WARN << "client '" << client.name << "': too many malformed frames; dropping";
          client.channel->close();
          return;
        }
        HARP_WARN << "malformed frame from '" << client.name << "' (" << what << "); ignored";
        continue;
      }
      client.channel->close();
      return;
    }
    if (!message.value().has_value()) return;
    client.last_heard = now_seconds;
    client.malformed = 0;
    const ipc::Message& m = *message.value();

    if (const auto* request = std::get_if<ipc::RegisterRequest>(&m)) {
      handle_registration(client, *request);
      if (client.channel->closed()) return;
      continue;
    }
    if (!client.registered) {
      HARP_WARN << "message before registration; dropping client";
      client.channel->close();
      return;
    }
    if (const auto* points = std::get_if<ipc::OperatingPointsMsg>(&m)) {
      for (const ipc::OperatingPointsMsg::Point& p : points->points) {
        if (static_cast<std::size_t>(p.erv.num_types()) != hw_.core_types.size() ||
            !p.erv.fits(hw_)) {
          HARP_WARN << "rejecting out-of-shape operating point from '" << client.name << "'";
          continue;
        }
        client.table.set_point(p.erv, NonFunctional{p.utility, p.power_w});
      }
      needs_realloc_ = true;
      continue;
    }
    if (const auto* report = std::get_if<ipc::UtilityReport>(&m)) {
      client.last_utility = report->utility;
      // Fold the live feedback into the active point so future allocations
      // use the refined characteristic (§4.2.1).
      if (client.has_active && report->utility >= 0.0 &&
          client.table.contains(client.active_point.erv))
        client.table.record_measurement(client.active_point.erv, report->utility,
                                        client.active_point.nfc.power_w);
      continue;
    }
    if (std::holds_alternative<ipc::Deregister>(m)) {
      client.channel->close();
      needs_realloc_ = true;
      return;
    }
    if (std::holds_alternative<ipc::Heartbeat>(m)) continue;  // lease already renewed
    HARP_WARN << "unexpected message type from '" << client.name << "'";
  }
}

void RmServer::handle_registration(Client& client, const ipc::RegisterRequest& request) {
  if (client.registered) {
    if (request.app_name == client.name && request.pid == client.pid) {
      // Idempotent re-registration: the client lost our ack (flaky link) and
      // retried. Re-ack with the original id and replay the last activation
      // so both sides converge without a fresh allocation round.
      // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
      (void)client.channel->send(ipc::Message(ipc::RegisterAck{client.app_id}));
      if (client.activation_sent)
        // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
        (void)client.channel->send(ipc::Message(client.last_activation));
      return;
    }
    HARP_WARN << "conflicting re-registration from '" << client.name << "' as '"
              << request.app_name << "'; dropping client";
    client.channel->close();
    return;
  }

  // A registration with the identity of an existing client supersedes it:
  // the old connection is a zombie of a crashed/restarted process whose
  // socket has not been torn down yet. Evict it so its cores free up now.
  // Unregistering (not just closing) matters: the zombie may already have
  // been drained this cycle, and a still-registered zombie would be handed
  // a grant by the reallocation running later in the same poll().
  auto key = std::make_pair(request.app_name, request.pid);
  auto stale = identity_.find(key);
  if (stale != identity_.end() && stale->second != &client) {
    Client* zombie = stale->second;
    HARP_WARN << "registration of '" << request.app_name << "' (pid " << request.pid
              << ") supersedes a stale connection; evicting the old one";
    zombie->registered = false;
    zombie->channel->close();
    identity_.erase(stale);
    needs_realloc_ = true;
  }

  client.registered = true;
  client.app_id = next_app_id_++;
  client.pid = request.pid;
  client.name = request.app_name;
  client.adaptivity = request.adaptivity;
  client.provides_utility = request.provides_utility;
  client.table = OperatingPointTable(client.name);
  // The replacement table restarts at version 0; drop any cached group so
  // the version comparison cannot pair the fresh table with a stale build.
  client.cached.valid = false;
  identity_[key] = &client;
  // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
  (void)client.channel->send(ipc::Message(ipc::RegisterAck{client.app_id}));
  needs_realloc_ = true;
  if (registrations_counter_ != nullptr) registrations_counter_->inc();
  if (options_.tracer != nullptr)
    options_.tracer->instant(telemetry::EventType::kRegistration, client.name,
                             {{"app_id", static_cast<double>(client.app_id)},
                              {"pid", static_cast<double>(client.pid)}});
  HARP_INFO << "registered '" << client.name << "' (pid " << request.pid << ")";
}

void RmServer::drop_client(std::size_t index) {
  Client& client = *clients_[index];
  HARP_INFO << "client '" << client.name << "' left";
  if (client.registered) {
    auto it = identity_.find(std::make_pair(client.name, client.pid));
    if (it != identity_.end() && it->second == &client) identity_.erase(it);
  }
  if (client.fd >= 0) {
    loop_->remove(client.fd);
    by_fd_.erase(client.fd);
  }
  clients_.erase(clients_.begin() + static_cast<long>(index));
  needs_realloc_ = true;
}

void RmServer::send_activation_locked(Client& client, const OperatingPoint& point,
                                      const platform::CoreAllocation& cores, double cost) {
  ipc::ActivateMsg activate;
  activate.erv = point.erv;
  for (std::size_t t = 0; t < cores.cores.size(); ++t) {
    for (const auto& [core, threads] : cores.cores[t])
      activate.cores.push_back(
          ipc::ActivateMsg::CoreGrant{static_cast<std::int32_t>(t), core, threads});
  }
  bool scalable = client.adaptivity != ipc::WireAdaptivity::kStatic;
  activate.parallelism = scalable ? point.erv.total_threads() : 0;
  activate.rebalance = client.adaptivity == ipc::WireAdaptivity::kCustom;
  client.active_point = point;
  client.has_active = true;
  client.last_activation = activate;
  client.activation_sent = true;
  // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
  (void)client.channel->send(ipc::Message(activate));
  if (options_.tracer != nullptr)
    options_.tracer->instant(telemetry::EventType::kGrant, client.name,
                             {{"cost", cost},
                              {"cycle", static_cast<double>(realloc_count_)},
                              {"power_w", point.nfc.power_w},
                              {"utility", point.nfc.utility}},
                             {{"erv", point.erv.to_string(hw_)}});
}

void RmServer::send_coallocation_locked(Client& client) {
  ipc::ActivateMsg activate;
  activate.erv = platform::ExtendedResourceVector::full(hw_);
  activate.parallelism = 0;
  client.has_active = false;
  client.last_activation = activate;
  client.activation_sent = true;
  // harp-lint: allow(r12 channel sends are nonblocking: partial frames buffer and drain via the loop)
  (void)client.channel->send(ipc::Message(activate));
}

void RmServer::begin_cycle_locked() {
  // Rebuild only the groups whose operating-point table changed since the
  // cached build; the core solves incrementally over the rest.
  const platform::HardwareDescription& hw = hw_;
  cycle_clients_.clear();
  core_.begin_cycle();
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client* client = clients_[i].get();
    if (!client->registered) continue;
    cycle_clients_.push_back(i);
    // No learning, thread cap or QoS contract crosses the wire.
    core_.add(static_cast<std::uint64_t>(client->app_id), client->cached, {},
              client->table.version(), [&hw, client] {
                return build_group(hw, client->name, client->table, /*learning=*/false,
                                   /*max_threads=*/0, std::nullopt);
              });
  }
}

void RmServer::export_groups(std::vector<ExportedGroup>& out) {
  out.clear();
  MutexLock lock(mutex_);
  begin_cycle_locked();
  for (std::size_t g = 0; g < cycle_clients_.size(); ++g)
    out.push_back(ExportedGroup{&core_.group(g)});
}

void RmServer::reallocate() {
  needs_realloc_ = false;
  ++realloc_count_;
  if (reallocs_counter_ != nullptr) reallocs_counter_->inc();
  begin_cycle_locked();
  if (cycle_clients_.empty()) {
    overloaded_ = false;
    return;
  }

  telemetry::Tracer* tracer = options_.tracer;
  if (tracer != nullptr)
    tracer->begin(telemetry::EventType::kAllocCycle, "rm",
                  {{"apps", static_cast<double>(cycle_clients_.size())},
                   {"cycle", static_cast<double>(realloc_count_)}});
  auto t0 = std::chrono::steady_clock::now();
  const AllocationResult& result = core_.solve();
  if (solve_histogram_ != nullptr)
    solve_histogram_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

  // Skip-cycle: every client already holds exactly this activation.
  if (grants_.unchanged(core_.replayed(), core_.ids())) {
    if (realloc_skips_counter_ != nullptr) realloc_skips_counter_->inc();
    if (tracer != nullptr)
      tracer->end(telemetry::EventType::kAllocCycle, "rm",
                  {{"feasible", result.feasible ? 1.0 : 0.0}, {"skipped", 1.0}});
    return;
  }

  if (!result.feasible) {
    // Co-allocation fallback (§4.2.2): every app gets the whole machine and
    // the OS scheduler time-shares. Warn once per overload episode.
    if (!overloaded_) {
      HARP_WARN << "demand exceeds capacity; falling back to co-allocation";
      overloaded_ = true;
    }
    for (std::size_t index : cycle_clients_) send_coallocation_locked(*clients_[index]);
    if (tracer != nullptr)
      tracer->end(telemetry::EventType::kAllocCycle, "rm", {{"feasible", 0.0}});
    return;
  }

  overloaded_ = false;
  for (std::size_t g = 0; g < cycle_clients_.size(); ++g) {
    const AllocationGroup& group = core_.group(g);
    send_activation_locked(*clients_[cycle_clients_[g]], group.candidates[result.selection[g]],
                           result.allocations[g], group.costs[result.selection[g]]);
  }
  if (tracer != nullptr)
    tracer->end(telemetry::EventType::kAllocCycle, "rm",
                {{"feasible", 1.0}, {"total_cost", result.total_cost}});
}

}  // namespace harp::core
