#include "src/libharp/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/check.hpp"
#include "src/common/logging.hpp"

namespace harp::client {

namespace {

/// Send-path errors that leave the channel open are transient (e.g. an
/// injected fault or a slow peer); the message is safe to retry.
bool is_transient(const ipc::Channel& channel) { return !channel.closed(); }

constexpr int kMaxMalformedFromRm = 8;

}  // namespace

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kRegistering: return "registering";
    case LinkState::kConnected: return "connected";
    case LinkState::kDisconnected: return "disconnected";
    case LinkState::kClosed: return "closed";
  }
  return "?";
}

namespace {

telemetry::Counter* resolve_counter(telemetry::MetricsRegistry* metrics, const char* name) {
  return metrics != nullptr ? &metrics->counter(name) : nullptr;
}

}  // namespace

HarpClient::HarpClient(std::unique_ptr<ipc::Channel> channel, Config config, Callbacks callbacks,
                       ChannelFactory factory)
    : config_(std::move(config)),
      callbacks_(std::move(callbacks)),
      channel_(std::move(channel)),
      factory_(std::move(factory)),
      jitter_rng_(config_.jitter_seed),
      reconnects_counter_(resolve_counter(config_.metrics, "client_reconnects_total")),
      link_down_counter_(resolve_counter(config_.metrics, "client_link_down_total")),
      dropped_sends_counter_(resolve_counter(config_.metrics, "client_dropped_sends_total")),
      heartbeats_counter_(resolve_counter(config_.metrics, "client_heartbeats_total")) {}

HarpClient::~HarpClient() {
  bool need_deregister = false;
  {
    MutexLock lock(mutex_);
    need_deregister = !deregistered_;
  }
  if (need_deregister) (void)deregister();
  HARP_UNTRACK_SHARED(&pending_);
}

Result<std::unique_ptr<HarpClient>> HarpClient::make(std::unique_ptr<ipc::Channel> channel,
                                                     Config config, Callbacks callbacks,
                                                     ChannelFactory factory, bool blocking) {
  if (config.app_name.empty())
    return Result<std::unique_ptr<HarpClient>>(make_error("proto: app_name required"));
  if (config.provides_utility && !callbacks.utility_provider)
    return Result<std::unique_ptr<HarpClient>>(
        make_error("proto: provides_utility requires a utility_provider callback"));
  auto client = std::unique_ptr<HarpClient>(new HarpClient(
      std::move(channel), std::move(config), std::move(callbacks), std::move(factory)));
  Status begun;
  bool has_factory = false;
  {
    MutexLock lock(client->mutex_);
    begun = client->begin_registration();
    has_factory = static_cast<bool>(client->factory_);
  }
  if (!begun.ok() && !has_factory)
    return Result<std::unique_ptr<HarpClient>>(begun.error());
  if (blocking) {
    Status registered = client->block_until_registered();
    if (!registered.ok()) return Result<std::unique_ptr<HarpClient>>(registered.error());
  }
  return client;
}

Result<std::unique_ptr<HarpClient>> HarpClient::connect(const std::string& socket_path,
                                                        Config config, Callbacks callbacks) {
  Result<std::unique_ptr<ipc::Channel>> channel = ipc::unix_connect(socket_path);
  if (!channel.ok()) return Result<std::unique_ptr<HarpClient>>(channel.error());
  ChannelFactory factory = [socket_path] { return ipc::unix_connect(socket_path); };
  return make(std::move(channel).take(), std::move(config), std::move(callbacks),
              std::move(factory), /*blocking=*/true);
}

Result<std::unique_ptr<HarpClient>> HarpClient::over_channel(
    std::unique_ptr<ipc::Channel> channel, Config config, Callbacks callbacks) {
  return make(std::move(channel), std::move(config), std::move(callbacks), nullptr,
              /*blocking=*/true);
}

Result<std::unique_ptr<HarpClient>> HarpClient::deferred(std::unique_ptr<ipc::Channel> channel,
                                                         Config config, Callbacks callbacks,
                                                         ChannelFactory factory) {
  return make(std::move(channel), std::move(config), std::move(callbacks), std::move(factory),
              /*blocking=*/false);
}

ipc::Message HarpClient::register_request() const {
  ipc::RegisterRequest request;
  request.pid = config_.pid != 0 ? config_.pid : static_cast<std::int32_t>(::getpid());
  request.app_name = config_.app_name;
  request.adaptivity = config_.adaptivity;
  request.provides_utility = config_.provides_utility;
  return ipc::Message(request);
}

Status HarpClient::begin_registration() {
  state_ = LinkState::kRegistering;
  register_sent_at_ = last_now_;
  // harp-lint: allow(r12 channel sends are nonblocking: transient errors enqueue and retry, never wait)
  Status sent = channel_->send(register_request());
  if (!sent.ok()) {
    if (is_transient(*channel_)) return Status{};  // kRegistering retry timer re-sends
    // Channel already dead; reconnect machinery (if any) takes over on poll.
    state_ = factory_ ? LinkState::kDisconnected : LinkState::kClosed;
    if (factory_) next_retry_at_ = last_now_ + backoff_delay(attempt_);
    return sent;
  }
  return Status{};
}

Status HarpClient::block_until_registered() {
  // The RM answers registrations promptly, so a short poll loop suffices
  // even over real sockets. Requires the RM to be polled concurrently.
  for (int iteration = 0; iteration < 2000; ++iteration) {
    Status polled = poll();
    if (!polled.ok()) return polled;
    if (registered()) return Status{};
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status(make_error("io: registration timed out"));
}

double HarpClient::wall_clock_seconds() {
  auto now = std::chrono::steady_clock::now();
  MutexLock lock(mutex_);
  if (!clock_base_.has_value()) clock_base_ = now;
  return std::chrono::duration<double>(now - *clock_base_).count();
}

Status HarpClient::poll() { return poll(wall_clock_seconds()); }

Status HarpClient::poll(double now_seconds) {
  DeferredWork deferred;
  Status status;
  {
    MutexLock lock(mutex_);
    HARP_TRACK_SHARED(&pending_);
    status = poll_locked(now_seconds, deferred);
  }
  // Callbacks run with the mutex released: they may re-enter the client
  // (submit points, read state) without deadlocking, and a slow provider
  // cannot stall concurrent pollers.
  for (const Activation& activation : deferred.activations)
    if (callbacks_.on_activate) callbacks_.on_activate(activation);
  for (int i = 0; i < deferred.utility_requests; ++i) {
    ipc::UtilityReport report;
    report.utility = callbacks_.utility_provider ? callbacks_.utility_provider() : 0.0;
    MutexLock lock(mutex_);
    (void)transmit(ipc::Message(report), /*droppable=*/true, now_seconds);
  }
  return status;
}

Status HarpClient::poll_locked(double now_seconds, DeferredWork& deferred) {
  last_now_ = now_seconds;
  if (state_ == LinkState::kClosed)
    return Status(make_error("io: client closed"));
  if (state_ == LinkState::kDisconnected) {
    try_reconnect(now_seconds);
    if (state_ == LinkState::kDisconnected) return Status{};  // retry scheduled
    if (state_ == LinkState::kClosed)
      return Status(make_error("io: reconnect attempts exhausted"));
  }

  while (true) {
    // harp-lint: allow(r12 channel poll is nonblocking: reports empty when no full frame is buffered)
    Result<std::optional<ipc::Message>> message = channel_->poll();
    if (!message.ok()) {
      const std::string& what = message.error().message;
      if (!channel_->closed() && what.rfind("proto:", 0) == 0) {
        // One malformed frame from the RM; the stream is still in sync.
        if (++malformed_from_rm_ > kMaxMalformedFromRm) {
          channel_->close();
          return link_down(message.error(), now_seconds);
        }
        continue;
      }
      return link_down(message.error(), now_seconds);
    }
    if (!message.value().has_value()) break;
    malformed_from_rm_ = 0;
    Status handled = handle(*message.value(), now_seconds, deferred);
    if (!handled.ok()) return handled;
  }

  // Frames queued by a transient send failure go out as soon as the link
  // takes them again, not at the next re-registration.
  flush_pending(now_seconds);

  // The RegisterRequest or its ack can be lost on a flaky link; registration
  // is idempotent server-side, so retransmit on a timer until acknowledged.
  if (state_ == LinkState::kRegistering && config_.register_retry_s > 0.0 &&
      now_seconds - register_sent_at_ >= config_.register_retry_s) {
    register_sent_at_ = now_seconds;
    // harp-lint: allow(r12 channel sends are nonblocking: transient errors enqueue and retry, never wait)
    Status sent = channel_->send(register_request());
    if (!sent.ok() && !is_transient(*channel_)) return link_down(sent.error(), now_seconds);
  }

  // Liveness heartbeat: keep the RM-side lease fresh during idle stretches.
  if (state_ == LinkState::kConnected && config_.heartbeat_interval_s > 0.0 &&
      now_seconds - last_tx_ >= config_.heartbeat_interval_s) {
    if (heartbeats_counter_ != nullptr) heartbeats_counter_->inc();
    (void)transmit(ipc::Message(ipc::Heartbeat{}), /*droppable=*/true, now_seconds);
  }
  return Status{};
}

Status HarpClient::handle(const ipc::Message& message, double now_seconds,
                          DeferredWork& deferred) {
  if (const auto* ack = std::get_if<ipc::RegisterAck>(&message)) {
    if (state_ == LinkState::kConnected) return Status{};  // duplicate ack; idempotent
    if (ack->app_id < 0) {
      channel_->close();
      state_ = LinkState::kClosed;
      return Status(make_error("proto: registration rejected"));
    }
    app_id_ = ack->app_id;
    on_registered(now_seconds);
    return Status{};
  }
  if (const auto* activate = std::get_if<ipc::ActivateMsg>(&message)) {
    Activation activation;
    activation.erv = activate->erv;
    activation.cores = activate->cores;
    activation.parallelism = activate->parallelism;
    activation.rebalance = activate->rebalance;
    activation_ = std::move(activation);
    // Deliver after the lock is released (poll() drains deferred work).
    deferred.activations.push_back(*activation_);
    return Status{};
  }
  if (std::holds_alternative<ipc::UtilityRequest>(message)) {
    // The provider is user code: run it unlocked, then transmit the report
    // under a fresh lock (poll() drains deferred work).
    ++deferred.utility_requests;
    return Status{};
  }
  // Other message kinds are RM-bound; a misdelivered one is a peer bug but
  // not worth killing the link over.
  HARP_WARN << "libharp '" << config_.app_name << "': ignoring unexpected message from RM";
  return Status{};
}

void HarpClient::on_registered(double now_seconds) {
  state_ = LinkState::kConnected;
  attempt_ = 0;
  last_tx_ = now_seconds;
  // Replay the description-file table so a restarted RM regains the same
  // view it had before the link dropped (idempotent re-registration).
  if (!submitted_points_.empty()) {
    ipc::OperatingPointsMsg msg;
    msg.points = submitted_points_;
    (void)transmit(ipc::Message(msg), /*droppable=*/false, now_seconds);
  }
  flush_pending(now_seconds);
}

Status HarpClient::submit_operating_points(
    const std::vector<ipc::OperatingPointsMsg::Point>& points) {
  MutexLock lock(mutex_);
  submitted_points_.insert(submitted_points_.end(), points.begin(), points.end());
  if (state_ == LinkState::kClosed)
    return Status(make_error("io: client closed"));
  if (state_ != LinkState::kConnected) return Status{};  // replayed after registration
  ipc::OperatingPointsMsg msg;
  msg.points = points;
  return transmit(ipc::Message(msg), /*droppable=*/false, last_now_);
}

Status HarpClient::transmit(const ipc::Message& message, bool droppable, double now_seconds) {
  // Queued frames go first: a new frame never overtakes them.
  flush_pending(now_seconds);
  if (state_ == LinkState::kClosed)
    return Status(make_error("io: client closed"));
  if (state_ == LinkState::kDisconnected) {
    enqueue(message, droppable);
    return factory_ ? Status{} : Status(make_error("io: link down and no reconnect factory"));
  }
  if (!pending_.empty()) {
    enqueue(message, droppable);
    return Status{};
  }
  // harp-lint: allow(r12 channel sends are nonblocking: transient errors enqueue and retry, never wait)
  Status sent = channel_->send(message);
  if (sent.ok()) {
    last_tx_ = now_seconds;
    return Status{};
  }
  if (is_transient(*channel_)) {
    enqueue(message, droppable);
    return Status{};
  }
  enqueue(message, droppable);
  return link_down(sent.error(), now_seconds);
}

void HarpClient::enqueue(ipc::Message message, bool droppable) {
  if (pending_.size() >= config_.max_pending_sends) {
    auto oldest_droppable = std::find_if(pending_.begin(), pending_.end(),
                                         [](const Pending& p) { return p.droppable; });
    if (oldest_droppable != pending_.end()) {
      pending_.erase(oldest_droppable);
      ++dropped_sends_;
      if (dropped_sends_counter_ != nullptr) dropped_sends_counter_->inc();
    } else if (droppable) {
      ++dropped_sends_;  // queue full of must-deliver messages; shed the new one
      if (dropped_sends_counter_ != nullptr) dropped_sends_counter_->inc();
      return;
    } else {
      pending_.pop_front();  // bound memory even in pathological cases
      ++dropped_sends_;
      if (dropped_sends_counter_ != nullptr) dropped_sends_counter_->inc();
    }
  }
  pending_.push_back(Pending{std::move(message), droppable});
}

void HarpClient::flush_pending(double now_seconds) {
  while (!pending_.empty() && state_ == LinkState::kConnected) {
    Pending entry = std::move(pending_.front());
    pending_.pop_front();
    // harp-lint: allow(r12 channel sends are nonblocking: transient errors enqueue and retry, never wait)
    Status sent = channel_->send(entry.message);
    if (sent.ok()) {
      last_tx_ = now_seconds;
      continue;
    }
    // Put it back and stop: either a transient hiccup (retried on the next
    // flush) or the link just died (reconnect machinery takes over).
    pending_.push_front(std::move(entry));
    if (!is_transient(*channel_)) (void)link_down(sent.error(), now_seconds);
    break;
  }
}

Status HarpClient::link_down(const Error& error, double now_seconds) {
  channel_->close();
  if (link_down_counter_ != nullptr) link_down_counter_->inc();
  if (config_.tracer != nullptr)
    config_.tracer->instant(telemetry::EventType::kLinkDown, config_.app_name, {},
                            {{"error", error.message}});
  if (deregistered_) {
    state_ = LinkState::kClosed;
    return Status{};
  }
  if (!factory_) {
    state_ = LinkState::kClosed;
    return Status(error);
  }
  state_ = LinkState::kDisconnected;
  attempt_ = 0;
  next_retry_at_ = now_seconds + backoff_delay(attempt_);
  HARP_INFO << "libharp '" << config_.app_name << "': link lost (" << error.message
            << "); reconnecting";
  return Status{};
}

double HarpClient::backoff_delay(int attempt) {
  double base = config_.retry.initial_backoff_s * static_cast<double>(1ull << std::min(attempt, 20));
  base = std::min(base, config_.retry.max_backoff_s);
  double jitter = 1.0 + config_.retry.jitter_frac * (2.0 * jitter_rng_.uniform() - 1.0);
  return base * std::max(jitter, 0.0);
}

void HarpClient::try_reconnect(double now_seconds) {
  if (now_seconds < next_retry_at_) return;
  Result<std::unique_ptr<ipc::Channel>> fresh = factory_();
  if (fresh.ok()) {
    channel_ = std::move(fresh).take();
    ++reconnects_;
    if (reconnects_counter_ != nullptr) reconnects_counter_->inc();
    if (config_.tracer != nullptr)
      config_.tracer->instant(telemetry::EventType::kReconnect, config_.app_name,
                              {{"attempt", static_cast<double>(attempt_)}});
    malformed_from_rm_ = 0;
    Status begun = begin_registration();
    if (begun.ok() || state_ == LinkState::kRegistering) return;
  }
  ++attempt_;
  if (config_.retry.max_attempts > 0 && attempt_ >= config_.retry.max_attempts) {
    state_ = LinkState::kClosed;
    return;
  }
  state_ = LinkState::kDisconnected;
  next_retry_at_ = now_seconds + backoff_delay(attempt_);
}

int HarpClient::recommended_parallelism(int user_requested) const {
  HARP_CHECK(user_requested >= 1);
  MutexLock lock(mutex_);
  if (!activation_.has_value() || activation_->parallelism <= 0) return user_requested;
  // §4.1.3: the GOMP_parallel hook sets num_threads to the maximum of the
  // user-given number and the RM-provided parallelisation degree.
  return std::max(user_requested, activation_->parallelism);
}

Status HarpClient::deregister() {
  // Take ownership of the channel under the lock, then do the farewell I/O
  // outside it (r12): once state_ is kClosed every other locked path bails
  // before touching channel_, so a slow half-open peer can no longer hold the
  // client mutex against concurrent pollers during shutdown.
  std::unique_ptr<ipc::Channel> channel;
  {
    MutexLock lock(mutex_);
    HARP_TRACK_SHARED(&pending_);
    deregistered_ = true;
    if (channel_ != nullptr && !channel_->closed() &&
        (state_ == LinkState::kConnected || state_ == LinkState::kRegistering))
      channel = std::move(channel_);
    else if (channel_ != nullptr)
      channel_->close();
    pending_.clear();
    state_ = LinkState::kClosed;
  }
  if (channel != nullptr) {
    // Single bounded, best-effort send: a half-open peer must not block or
    // fail shutdown — the RM's lease reclaims the grant either way.
    (void)channel->send(ipc::Message(ipc::Deregister{}));
    channel->close();
  }
  return Status{};
}

void HarpClient::drop_link() {
  MutexLock lock(mutex_);
  HARP_TRACK_SHARED(&pending_);
  if (channel_ != nullptr) channel_->close();
  pending_.clear();
  deregistered_ = true;  // crash semantics: no Deregister notice ever goes out
  state_ = LinkState::kClosed;
}

}  // namespace harp::client
