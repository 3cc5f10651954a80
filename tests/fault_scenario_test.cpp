// Deterministic fault scenarios for the RM ↔ libharp protocol.
//
// Each scenario drives a real RmServer plus real HarpClients through the
// scenario harness (one thread, virtual clock, seeded fault injection) and
// relies on World::check_invariants after every step: no core double-grant,
// capacity conservation, no client retained past its lease. The scenarios
// are parameterized over fault-plan seeds, so each timeline is exercised
// under several distinct (but reproducible) fault interleavings.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/ipc/transport_hooks.hpp"
#include "src/platform/hardware.hpp"
#include "src/telemetry/export.hpp"
#include "tests/scenario_harness.hpp"

namespace harp {
namespace {

using client::HarpClient;
using client::LinkState;
using ipc::FaultKind;
using ipc::FaultPlan;
using scenario::App;
using scenario::World;

std::vector<ipc::OperatingPointsMsg::Point> two_points(
    const platform::HardwareDescription& hw) {
  return {{platform::ExtendedResourceVector::from_threads(hw, {4, 0}), 100.0, 6.0},
          {platform::ExtendedResourceVector::from_threads(hw, {0, 4}), 50.0, 1.2}};
}

client::Config app_config(const std::string& name, std::int32_t pid,
                          std::uint64_t seed) {
  client::Config config;
  config.app_name = name;
  config.pid = pid;
  config.heartbeat_interval_s = 0.2;
  config.jitter_seed = seed;
  return config;
}

core::RmServerOptions rm_options() {
  core::RmServerOptions options;
  options.lease_seconds = 2.0;
  options.utility_poll_interval_s = 0.25;
  return options;
}

/// A lossy-but-alive link: frames drop, duplicate, garble and the sender
/// sees transient errors, yet the link itself never closes.
FaultPlan flaky(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_p = 0.12;
  plan.duplicate_p = 0.08;
  plan.reorder_p = 0.05;
  plan.garbage_p = 0.04;
  plan.transient_error_p = 0.08;
  return plan;
}

class FaultScenario : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::uint64_t seed() const { return GetParam(); }
};

// Scenario 1 — crash during registration. Two clients die mid-handshake:
// one before the RM ever sees its RegisterRequest processed to completion
// (link already closed when the ack goes out), one after the ack was queued
// but before the app reads it. A healthy bystander must keep its grant and
// the RM must converge back to exactly one client.
TEST_P(FaultScenario, CrashDuringRegistration) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* steady = world.spawn(app_config("steady", 100, seed()), flaky(seed()));
  ASSERT_TRUE(steady->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(steady->client->registered());
  ASSERT_TRUE(steady->client->current_activation().has_value());

  // Crash A: link drops before the RM even polls — the RegisterRequest sits
  // in a closed queue; the RM reads it, fails to ack, and must drop the
  // corpse without disturbing the event loop.
  App* corpse_a = world.spawn(app_config("corpse-a", 200, seed()), FaultPlan::clean());
  world.crash(*corpse_a);
  world.run(0.5);
  EXPECT_EQ(world.registered_count("corpse-a"), 0);

  // Crash B: the RM registers the app and queues the ack, then the app dies
  // before ever reading it (RM-only step exposes the window).
  App* corpse_b = world.spawn(app_config("corpse-b", 300, seed()), FaultPlan::clean());
  world.step_rm_only(0.05);
  world.crash(*corpse_b);
  // The closed link (or, failing that, the lease) reclaims the slot.
  world.run(3.0);
  EXPECT_EQ(world.registered_count("corpse-b"), 0);

  EXPECT_TRUE(steady->client->registered());
  EXPECT_TRUE(steady->client->current_activation().has_value());
  EXPECT_EQ(world.rm().client_count(), 1u);
}

// Scenario 2 — kill and restart. An app with a grant dies abruptly (no
// Deregister) and a new instance with the same (name, pid) registers right
// away. The RM must evict the zombie on the spot — not after the lease —
// and the restarted instance must re-submit points and get a fresh grant.
TEST_P(FaultScenario, AppKillAndRestart) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* first = world.spawn(app_config("phoenix", 4242, seed()), flaky(seed()));
  ASSERT_TRUE(first->client->submit_operating_points(two_points(hw)).ok());
  App* other = world.spawn(app_config("bystander", 7, seed()), flaky(seed() + 17));
  ASSERT_TRUE(other->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(first->client->registered());
  ASSERT_TRUE(other->client->registered());

  world.crash(*first);

  App* reborn = world.spawn(app_config("phoenix", 4242, seed() + 1), flaky(seed() + 1));
  ASSERT_TRUE(reborn->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);

  EXPECT_TRUE(reborn->client->registered());
  EXPECT_TRUE(reborn->client->current_activation().has_value());
  // Zombie evicted immediately on identity collision: never two phoenixes.
  EXPECT_EQ(world.registered_count("phoenix"), 1);
  EXPECT_EQ(world.rm().client_count(), 2u);
  EXPECT_TRUE(other->client->registered());
}

// Scenario 3 — RM restart with clients alive. The daemon is torn down and
// replaced; clients see the dead link, back off, redial through their
// factories and re-register idempotently, replaying their operating-point
// tables so the new RM can allocate without any application involvement.
TEST_P(FaultScenario, RmRestartWithClientsAlive) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* a = world.spawn(app_config("alpha", 11, seed()), flaky(seed()));
  ASSERT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 22, seed()), flaky(seed() + 31));
  ASSERT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(a->client->registered());
  ASSERT_TRUE(b->client->registered());
  std::int32_t old_a_id = a->client->app_id();

  world.restart_rm();
  world.run(3.0);

  EXPECT_TRUE(a->client->registered());
  EXPECT_TRUE(b->client->registered());
  EXPECT_GE(a->client->reconnect_count(), 1);
  EXPECT_GE(b->client->reconnect_count(), 1);
  EXPECT_EQ(world.rm().client_count(), 2u);
  // The new RM re-learned the tables: both apps hold fresh activations.
  EXPECT_TRUE(a->client->current_activation().has_value());
  EXPECT_TRUE(b->client->current_activation().has_value());
  // The id may change across RM generations; the client must track it.
  EXPECT_GE(a->client->app_id(), 1);
  (void)old_a_id;
}

// Scenario 4 — flaky link during exploration. An app streams operating
// points incrementally (as online exploration would) and reports utility
// over a link that drops/duplicates/garbles frames. Heartbeats and register
// retransmits must keep the lease alive; utility must still reach the RM.
TEST_P(FaultScenario, FlakyLinkDuringExploration) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  client::Callbacks callbacks;
  callbacks.utility_provider = [] { return 77.5; };
  client::Config config = app_config("explorer", 55, seed());
  config.provides_utility = true;
  // Faults in both directions: the app's sends AND the RM's acks/requests.
  App* explorer = world.spawn(config, flaky(seed()), flaky(seed() + 101),
                              std::move(callbacks));

  // Stream the table in three installments, a second apart, while faults
  // are active — the cumulative table is replayed on any re-registration.
  std::vector<ipc::OperatingPointsMsg::Point> table = two_points(hw);
  ASSERT_TRUE(explorer->client->submit_operating_points({table[0]}).ok());
  world.run(1.0);
  ASSERT_TRUE(explorer->client->submit_operating_points(table).ok());
  world.run(1.0);
  table.push_back({platform::ExtendedResourceVector::from_threads(hw, {2, 2}), 80.0, 3.0});
  ASSERT_TRUE(explorer->client->submit_operating_points(table).ok());
  world.run(8.0);

  EXPECT_TRUE(explorer->client->registered());
  EXPECT_TRUE(explorer->client->current_activation().has_value());
  // Utility survived the lossy link (droppable, but retried every interval).
  EXPECT_DOUBLE_EQ(world.rm().last_utility("explorer"), 77.5);
  // The lease never fired: heartbeats kept the client alive throughout.
  EXPECT_EQ(world.rm().lease_evictions(), 0u);
  EXPECT_EQ(world.rm().client_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScenario, ::testing::Values(1u, 7u, 1234u));

// Acceptance criterion: a lease-expired client's cores are reclaimed and
// reallocated within ONE poll() cycle — the eviction sweep and the MMKP
// re-solve happen in the same call.
TEST(FaultLease, ExpiryReclaimsCoresWithinOnePoll) {
  platform::HardwareDescription hw = platform::raptor_lake();
  core::RmServerOptions options = rm_options();  // lease = 2 s
  World world(hw, options);

  App* keeper = world.spawn(app_config("keeper", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(keeper->client->submit_operating_points(two_points(hw)).ok());
  App* sleeper = world.spawn(app_config("sleeper", 2, 2), FaultPlan::clean());
  ASSERT_TRUE(sleeper->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(keeper->client->registered());
  ASSERT_TRUE(sleeper->client->registered());
  ASSERT_EQ(world.rm().client_count(), 2u);

  // The sleeper hangs: socket open, but no polls → no heartbeats. One more
  // step drains its final queued frames, after which its lease clock stops.
  world.hang(*sleeper);
  world.step(0.05);
  std::uint64_t evictions_before = world.rm().lease_evictions();

  // Step until the lease fires. The keeper heartbeats throughout, so only
  // the sleeper can expire; in steady state nothing triggers the MMKP, so a
  // realloc-count bump in the eviction step is attributable to that poll.
  bool evicted = false;
  for (int i = 0; i < 100 && !evicted; ++i) {
    std::uint64_t reallocs = world.rm().realloc_count();
    world.step(0.05);
    if (world.rm().lease_evictions() > evictions_before) {
      evicted = true;
      // The SAME poll() call that evicted the sleeper re-ran the MMKP: its
      // cores are reclaimed within one cycle, not one lease period later.
      EXPECT_EQ(world.rm().realloc_count(), reallocs + 1);
    }
  }
  ASSERT_TRUE(evicted);
  EXPECT_EQ(world.rm().client_count(), 1u);
  EXPECT_EQ(world.registered_count("sleeper"), 0);
  EXPECT_EQ(world.registered_count("keeper"), 1);
}

// Malformed frames must not kill the RM event loop: a client that garbles a
// few frames keeps its registration; one that spews garbage persistently is
// cut after the strike limit without affecting its neighbour.
TEST(FaultLease, MalformedFramesAreContained) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());

  App* neighbour = world.spawn(app_config("neighbour", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(neighbour->client->submit_operating_points(two_points(hw)).ok());

  // Occasional garbage (4%) with healthy traffic in between: tolerated.
  FaultPlan dirty;
  dirty.seed = 9;
  dirty.garbage_p = 0.04;
  App* dirty_app = world.spawn(app_config("dirty", 2, 2), dirty);
  ASSERT_TRUE(dirty_app->client->submit_operating_points(two_points(hw)).ok());

  world.run(5.0);
  EXPECT_TRUE(neighbour->client->registered());
  EXPECT_TRUE(dirty_app->client->registered());
  EXPECT_EQ(world.rm().client_count(), 2u);

  // Pure garbage on every frame: the strike limit cuts this client only.
  FaultPlan hostile;
  hostile.seed = 10;
  hostile.garbage_p = 1.0;
  (void)world.spawn(app_config("attacker", 3, 3), hostile);
  world.run(5.0);

  EXPECT_EQ(world.registered_count("attacker"), 0);
  EXPECT_TRUE(neighbour->client->registered());
  EXPECT_TRUE(dirty_app->client->registered());
}

/// Drain every pending message from one end of an in-process channel.
std::vector<ipc::Message> drain(ipc::Channel& channel) {
  std::vector<ipc::Message> out;
  while (true) {
    auto polled = channel.poll();
    if (!polled.ok() || !polled.value().has_value()) break;
    out.push_back(*polled.value());
  }
  return out;
}

/// Registers a fresh in-process client with `rm` and returns its app end.
/// The frames are sent after adoption, so each push fires the ready hook.
std::unique_ptr<ipc::Channel> join(core::RmServer& rm, std::int32_t pid, const std::string& name,
                                   const ipc::OperatingPointsMsg& points) {
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  EXPECT_TRUE(app_end->send(ipc::Message(ipc::RegisterRequest{
                                pid, name, ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  EXPECT_TRUE(app_end->send(ipc::Message(points)).ok());
  return std::move(app_end);
}

// Regression — a registration that supersedes a stale connection must also
// unregister the zombie, not just close its socket: a still-registered
// zombie is handed a grant by the reallocation running later in the same
// poll(). With both instances demanding all four big cores the MMKP goes
// infeasible, so the fresh instance used to be degraded to the
// co-allocation fallback (full-machine erv, parallelism 0).
TEST(RmServerSupersede, ZombieExcludedFromSameCycleReallocation) {
  platform::HardwareDescription hw = platform::odroid_xu3e();
  core::RmServer rm(hw, rm_options());
  ipc::OperatingPointsMsg all_big;
  all_big.points = {{platform::ExtendedResourceVector::from_threads(hw, {4, 0}), 100.0, 6.0}};

  std::unique_ptr<ipc::Channel> app_a = join(rm, 77, "worker", all_big);
  rm.poll(0.0);
  EXPECT_FALSE(drain(*app_a).empty());  // ack + activation for the first instance

  // The process restarted: a new connection arrives with the same identity
  // and the same demand while the old socket is not torn down yet.
  std::unique_ptr<ipc::Channel> app_b = join(rm, 77, "worker", all_big);
  rm.poll(1.0);

  bool activated = false;
  for (const ipc::Message& m : drain(*app_b)) {
    if (const auto* activate = std::get_if<ipc::ActivateMsg>(&m)) {
      activated = true;
      EXPECT_EQ(activate->erv.total_threads(), 4);
      EXPECT_EQ(activate->parallelism, 4);
      EXPECT_FALSE(activate->cores.empty());
    }
  }
  EXPECT_TRUE(activated);

  rm.poll(2.0);  // the closed zombie connection is reaped next cycle
  EXPECT_EQ(rm.client_count(), 1u);
}

/// Lines of captured stderr carrying the co-allocation warning.
int overload_warnings(const std::string& captured) {
  int count = 0;
  for (std::size_t at = captured.find("demand exceeds capacity"); at != std::string::npos;
       at = captured.find("demand exceeds capacity", at + 1))
    ++count;
  return count;
}

// Regression — the co-allocation warning was logged on every co-allocating
// decision, so an overloaded RM wrote one identical stderr line per cycle.
// It is logged once per overload episode and re-armed by a feasible one.
TEST(RmServerOverload, WarnsOncePerEpisode) {
  platform::HardwareDescription hw = platform::odroid_xu3e();
  core::RmServer rm(hw, rm_options());
  // Every point takes all four big cores, so any two of these apps overload.
  auto all_big = [&hw](int little, double utility) {
    ipc::OperatingPointsMsg msg;
    msg.points = {
        {platform::ExtendedResourceVector::from_threads(hw, {4, little}), utility, 6.0}};
    return msg;
  };

  ::testing::internal::CaptureStderr();
  std::unique_ptr<ipc::Channel> a = join(rm, 1, "a", all_big(0, 100.0));
  std::unique_ptr<ipc::Channel> b = join(rm, 2, "b", all_big(0, 100.0));
  rm.poll(0.0);
  // Two more over-capacity decisions: each adds a point to a's front, so
  // the instance changes and neither is skipped as a replay.
  for (int cycle = 1; cycle <= 2; ++cycle) {
    ASSERT_TRUE(a->send(ipc::Message(all_big(cycle, 100.0 + cycle))).ok());
    rm.poll(0.1 * cycle);
  }
  EXPECT_EQ(rm.realloc_count(), 3u);
  EXPECT_EQ(overload_warnings(::testing::internal::GetCapturedStderr()), 1);

  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(b->send(ipc::Message(ipc::Deregister{})).ok());
  rm.poll(1.0);  // a alone fits: the episode ends
  std::unique_ptr<ipc::Channel> c = join(rm, 3, "c", all_big(0, 100.0));
  rm.poll(1.1);  // a and c overload again: a new episode
  EXPECT_EQ(overload_warnings(::testing::internal::GetCapturedStderr()), 1);
  EXPECT_FALSE(rm.current_point("c").has_value());  // co-allocated, as before
}

// The blocking poll serves a dedicated RM thread: a client adopted from
// another thread must reach it through the channel's ready hook, which wakes
// the event loop, and wakeup() must end a blocked poll for shutdown. Both
// must happen well inside the 5 s poll timeout, which only a wakeup beats.
// Also runs under the `race` label (HARP_RACE_CHECK / TSan).
TEST(RmServerThreaded, BlockingPollServesCrossThreadAdoptions) {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  platform::HardwareDescription hw = platform::raptor_lake();
  core::RmServerOptions options;
  options.lease_seconds = 0;
  core::RmServer rm(hw, options);
  std::atomic<bool> stop{false};
  std::thread poller([&rm, &stop] {
    for (double now = 0.0; !stop.load(std::memory_order_acquire); now += 0.01)
      rm.poll(now, 5000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it block

  const Clock::time_point t0 = Clock::now();
  std::vector<std::unique_ptr<ipc::Channel>> apps;
  for (int c = 0; c < 4; ++c) {
    ipc::OperatingPointsMsg points;
    points.points = {{platform::ExtendedResourceVector::from_threads(hw, {2, 2}), 10.0 + c, 5.0}};
    apps.push_back(join(rm, 600 + c, "threaded" + std::to_string(c), points));
  }
  std::vector<int> acks(apps.size(), 0), activations(apps.size(), 0);
  auto all_activated = [&] { return std::count(activations.begin(), activations.end(), 0) == 0; };
  while (!all_activated() && seconds_since(t0) < 10.0) {
    for (std::size_t c = 0; c < apps.size(); ++c) {
      for (const ipc::Message& m : drain(*apps[c])) {
        acks[c] += std::holds_alternative<ipc::RegisterAck>(m) ? 1 : 0;
        activations[c] += std::holds_alternative<ipc::ActivateMsg>(m) ? 1 : 0;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double served_s = seconds_since(t0);

  stop.store(true, std::memory_order_release);
  const Clock::time_point stop_t0 = Clock::now();
  rm.wakeup();
  poller.join();
  EXPECT_LT(seconds_since(stop_t0), 2.5);
  EXPECT_TRUE(all_activated());
  EXPECT_LT(served_s, 2.5);
  EXPECT_EQ(acks, std::vector<int>(apps.size(), 1));
}

// Regression — adopt_channel did not wake a blocked poll, so a registration
// queued on an in-process channel before its adoption (no later frame fires
// the ready hook) waited out the whole 5 s poll timeout.
TEST(RmServerThreaded, AdoptionWakesBlockedPollForQueuedFrames) {
  using Clock = std::chrono::steady_clock;
  core::RmServerOptions options;
  options.lease_seconds = 0;
  core::RmServer rm(platform::raptor_lake(), options);
  std::atomic<bool> stop{false};
  std::thread poller([&rm, &stop] {
    for (double now = 0.0; !stop.load(std::memory_order_acquire); now += 0.01)
      rm.poll(now, 5000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it block

  auto [rm_end, app_end] = ipc::make_in_process_pair();
  ASSERT_TRUE(app_end->send(ipc::Message(ipc::RegisterRequest{
                                700, "queued-early", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  const Clock::time_point t0 = Clock::now();
  rm.adopt_channel(std::move(rm_end));
  bool acked = false;
  while (!acked && Clock::now() - t0 < std::chrono::seconds(10)) {
    for (const ipc::Message& m : drain(*app_end))
      acked = acked || std::holds_alternative<ipc::RegisterAck>(m);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double acked_s = std::chrono::duration<double>(Clock::now() - t0).count();

  stop.store(true, std::memory_order_release);
  rm.wakeup();
  poller.join();
  EXPECT_TRUE(acked);
  EXPECT_LT(acked_s, 1.0);
}

// Regression — libharp's heartbeat was off by default while the RM's lease
// is 30 s by default, so an idle application with default settings on both
// sides was evicted after 30 s of silence (and, over a socket, reconnected
// about every 30 s).
TEST(FaultLease, DefaultClientSurvivesDefaultLease) {
  core::RmServer rm(platform::raptor_lake());
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  rm.adopt_channel(std::move(rm_end));
  client::Config config;
  config.app_name = "idle";
  auto made = HarpClient::deferred(std::move(app_end), config);
  ASSERT_TRUE(made.ok()) << made.error().message;
  std::unique_ptr<HarpClient> app = std::move(made).take();
  for (double now = 0.0; now <= 120.0; now += 0.5) {
    rm.poll(now);
    (void)app->poll(now);
  }
  EXPECT_EQ(rm.lease_evictions(), 0u);
  EXPECT_EQ(app->link_state(), LinkState::kConnected);
}

// Regression — a frame queued by a transient send failure while connected
// waited for the next re-registration, and a newer frame overtook it. It
// must go out on the next poll, and ahead of anything sent after it.
TEST(LibharpSendQueue, TransientFailureFlushesInOrder) {
  platform::HardwareDescription hw = platform::raptor_lake();
  auto [rm_end, app_end] = ipc::make_in_process_pair();
  FaultPlan plan;  // script-only: send 0 is the RegisterRequest
  plan.script = {{1, FaultKind::kTransientError}, {4, FaultKind::kTransientError}};
  client::Config config = app_config("queued", 5, 5);
  config.heartbeat_interval_s = 0.0;
  auto made = HarpClient::deferred(
      std::make_unique<ipc::FaultInjectingChannel>(std::move(app_end), plan), config);
  ASSERT_TRUE(made.ok()) << made.error().message;
  std::unique_ptr<HarpClient> app = std::move(made).take();
  ASSERT_TRUE(rm_end->send(ipc::Message(ipc::RegisterAck{1})).ok());
  ASSERT_TRUE(app->poll(0.0).ok());
  ASSERT_TRUE(app->registered());
  (void)drain(*rm_end);

  auto submit = [&](double utility) {
    return app->submit_operating_points(
        {{platform::ExtendedResourceVector::from_threads(hw, {2, 0}), utility, 1.0}});
  };
  auto delivered = [&] {
    std::vector<double> utilities;
    for (const ipc::Message& m : drain(*rm_end))
      if (const auto* points = std::get_if<ipc::OperatingPointsMsg>(&m))
        utilities.push_back(points->points.front().utility);
    return utilities;
  };

  ASSERT_TRUE(submit(1.0).ok());  // send 1 fails transiently: queued
  ASSERT_TRUE(submit(2.0).ok());
  EXPECT_EQ(delivered(), (std::vector<double>{1.0, 2.0}));

  ASSERT_TRUE(submit(3.0).ok());  // send 4 fails transiently: queued
  EXPECT_TRUE(delivered().empty());
  ASSERT_TRUE(app->poll(0.1).ok());
  EXPECT_EQ(delivered(), (std::vector<double>{3.0}));
  EXPECT_EQ(app->reconnect_count(), 0);
}

/// Lets the first `g_sends_before_failure` send(2) calls through, then fails
/// the rest as a dead peer would, remembering the fd.
int g_sends_before_failure = 0;
int g_failed_send_fd = -1;
ssize_t send_then_fail(int fd, const void* buf, size_t len, int flags) {
  if (g_sends_before_failure-- > 0) return ::send(fd, buf, len, flags);
  g_failed_send_fd = fd;
  errno = EPIPE;
  return -1;
}

// Regression — a failed grant send closes the client's fd, but the record
// stayed mapped until the next cycle. A client accepted onto the recycled fd
// number first went unwatched (the loop saw a known fd), then lost its
// mapping when the dead record was dropped: its later frames were never
// read.
TEST(RmFdReuse, ClientOnRecycledFdKeepsReceiving) {
  std::string path = ::testing::TempDir() + "/harp_fd_reuse.sock";
  platform::HardwareDescription hw = platform::odroid_xu3e();
  auto rm = std::make_unique<core::RmServer>(hw);
  ASSERT_TRUE(rm->listen(path).ok());

  // B's socket predates A's accepted fd, so once that fd is freed it is the
  // lowest free number and the RM's next accept recycles it.
  int b_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(b_fd, 0);
  auto a = ipc::unix_connect(path);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(a.value()
                  ->send(ipc::Message(ipc::RegisterRequest{
                      1, "a", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  g_sends_before_failure = 1;
  g_failed_send_fd = -1;
  {
    ipc::SyscallHooks saved = ipc::syscall_hooks();
    ipc::syscall_hooks().send = send_then_fail;
    rm->poll(0.0);  // accepts and acks A; the grant send fails and closes the fd
    ipc::syscall_hooks() = saved;
  }
  ASSERT_GE(g_failed_send_fd, 0);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(b_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::unique_ptr<ipc::Channel> b = ipc::channel_from_fd(b_fd);
  const auto big = platform::ExtendedResourceVector::from_threads(hw, {4, 0});
  const auto little = platform::ExtendedResourceVector::from_threads(hw, {0, 4});
  ASSERT_TRUE(b->send(ipc::Message(ipc::RegisterRequest{
                          2, "b", ipc::WireAdaptivity::kScalable, false}))
                  .ok());
  ipc::OperatingPointsMsg initial;
  initial.points = {{big, 10.0, 5.0}};
  ASSERT_TRUE(b->send(ipc::Message(initial)).ok());
  rm->poll(0.1);  // accepts B onto A's old fd number
  ASSERT_NE(::fcntl(g_failed_send_fd, F_GETFD), -1) << "B did not recycle A's fd";
  auto granted = [&] {
    std::optional<core::OperatingPoint> point = rm->current_point("b");
    return point.has_value() ? point->erv.to_string(hw) : std::string("none");
  };
  ASSERT_EQ(granted(), big.to_string(hw));

  ipc::OperatingPointsMsg update;
  update.points = {{little, 100.0, 1.0}};
  ASSERT_TRUE(b->send(ipc::Message(update)).ok());
  rm->poll(0.2);
  rm->poll(0.3);
  EXPECT_EQ(rm->client_count(), 1u);
  EXPECT_EQ(granted(), little.to_string(hw));
}

// ---------------------------------------------------------------------------
// Telemetry over fault scenarios
// ---------------------------------------------------------------------------

/// One scripted fault scenario — flaky links, an RM restart, an app crash —
/// returning the full JSONL trace of everything the world observed.
std::string scripted_scenario_trace() {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  App* a = world.spawn(app_config("alpha", 11, 5), flaky(5));
  EXPECT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 22, 6), flaky(37), flaky(91));
  EXPECT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.5);
  world.restart_rm();
  world.run(2.0);
  world.crash(*b);
  world.run(2.5);
  EXPECT_TRUE(a->client->registered());
  EXPECT_EQ(world.tracer().dropped(), 0u);  // ring sized for the whole scenario
  return telemetry::to_jsonl(world.tracer().events());
}

// Acceptance criterion: traces are a pure function of the scenario — two
// fresh worlds driven through the same scripted timeline export
// byte-identical JSONL (timestamps come from the virtual clock, fault
// decisions from seeded PRNGs; no wall clock anywhere).
TEST(TelemetryDeterminism, SameScenarioExportsByteIdenticalTrace) {
  std::string first = scripted_scenario_trace();
  std::string second = scripted_scenario_trace();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The trace is substantive, not vacuously equal: it saw faults, the link
  // lifecycle, and allocation traffic.
  EXPECT_NE(first.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(first.find("\"reconnect\""), std::string::npos);
  EXPECT_NE(first.find("\"alloc_cycle\""), std::string::npos);
  EXPECT_NE(first.find("\"grant\""), std::string::npos);
}

// Satellite criterion: telemetry counters must agree with the scripted fault
// schedule exactly — three scripted drops produce frames_dropped_total == 3
// (probabilities are all zero, and the link never redials so the script
// fires once).
TEST(TelemetryCounters, ScriptedDropsMatchDroppedFramesCounter) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  FaultPlan plan;  // script-only: three drops, nothing else, ever
  plan.script = {{1, FaultKind::kDrop}, {3, FaultKind::kDrop}, {6, FaultKind::kDrop}};
  App* app = world.spawn(app_config("dropper", 1, 1), plan);
  ASSERT_TRUE(app->client->submit_operating_points(two_points(hw)).ok());
  world.run(3.0);  // heartbeats every 0.2 s push the send count well past 6
  ASSERT_TRUE(app->client->registered());
  ASSERT_EQ(app->client->reconnect_count(), 0);

  EXPECT_EQ(world.metrics().counter_value("frames_dropped_total"), 3u);
  EXPECT_EQ(world.metrics().counter_value("faults_injected_total"), 3u);
  std::size_t fault_events = 0;
  for (const telemetry::TraceEvent& event : world.tracer().events())
    if (event.type == telemetry::EventType::kFaultInjected) ++fault_events;
  EXPECT_EQ(fault_events, 3u);
}

// Satellite criterion: every scripted RM outage causes exactly one reconnect
// per client on a clean link, and the registry counter agrees with the
// clients' own books.
TEST(TelemetryCounters, RmRestartsMatchReconnectCounter) {
  platform::HardwareDescription hw = platform::raptor_lake();
  World world(hw, rm_options());
  App* a = world.spawn(app_config("alpha", 1, 1), FaultPlan::clean());
  ASSERT_TRUE(a->client->submit_operating_points(two_points(hw)).ok());
  App* b = world.spawn(app_config("beta", 2, 2), FaultPlan::clean());
  ASSERT_TRUE(b->client->submit_operating_points(two_points(hw)).ok());
  world.run(1.0);
  ASSERT_TRUE(a->client->registered());
  ASSERT_TRUE(b->client->registered());

  world.restart_rm();
  world.run(2.0);
  world.restart_rm();
  world.run(2.0);

  EXPECT_EQ(a->client->reconnect_count(), 2);
  EXPECT_EQ(b->client->reconnect_count(), 2);
  EXPECT_EQ(world.metrics().counter_value("client_reconnects_total"), 4u);
  EXPECT_EQ(world.metrics().counter_value("client_link_down_total"), 4u);
}

}  // namespace
}  // namespace harp
