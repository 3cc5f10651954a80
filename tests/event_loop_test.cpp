// Tests for the readiness event loop (src/ipc/event_loop.hpp) and the
// transport behaviours it depends on: wakeup-pipe nudges, partial frames
// spanning readiness events, fd churn, EINTR/EAGAIN handling via the syscall
// seam, and nonblocking-send buffering flushed on writable readiness.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/ipc/event_loop.hpp"
#include "src/ipc/messages.hpp"
#include "src/ipc/transport.hpp"
#include "src/ipc/transport_hooks.hpp"
#include "src/platform/hardware.hpp"

namespace harp::ipc {
namespace {

/// Swap in a hook set for one test section and restore the previous set on
/// scope exit (the seam is global; see transport_hooks.hpp).
class ScopedSyscallOverride {
 public:
  ScopedSyscallOverride() : saved_(syscall_hooks()) {}
  ~ScopedSyscallOverride() { syscall_hooks() = saved_; }
  ScopedSyscallOverride(const ScopedSyscallOverride&) = delete;
  ScopedSyscallOverride& operator=(const ScopedSyscallOverride&) = delete;

 private:
  SyscallHooks saved_;
};

// Hook state: plain function pointers cannot capture, so the budgets live in
// file-scope atomics reset by each test before installing a hook.
std::atomic<int> g_recv_eintr_budget{0};
std::atomic<int> g_epoll_wait_eintr_budget{0};
std::atomic<int> g_accept_eintr_budget{0};

ssize_t recv_eintr_then_real(int fd, void* buf, size_t len, int flags) {
  if (g_recv_eintr_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t recv_always_eagain(int, void*, size_t, int) {
  errno = EAGAIN;
  return -1;
}

int epoll_wait_eintr_then_real(int epfd, struct epoll_event* events, int maxevents,
                               int timeout) {
  if (g_epoll_wait_eintr_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::epoll_wait(epfd, events, maxevents, timeout);
}

int accept_eintr_then_real(int fd, struct sockaddr* addr, socklen_t* addr_len) {
  if (g_accept_eintr_budget.fetch_sub(1) > 0) {
    errno = EINTR;
    return -1;
  }
  return ::accept(fd, addr, addr_len);
}

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  /// Hand fd ownership to a caller (channel_from_fd takes the fd).
  int release(int i) {
    int fd = fds[i];
    fds[i] = -1;
    return fd;
  }
};

bool has_event(const std::vector<EventLoop::Ready>& ready, int fd, std::uint32_t mask) {
  for (const EventLoop::Ready& r : ready)
    if (r.fd == fd && (r.events & mask) != 0) return true;
  return false;
}

TEST(EventLoop, WakeupSelfNudgeConsumedOnce) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  loop.wakeup();
  loop.wakeup();  // coalesced: one byte in flight at most
  std::vector<EventLoop::Ready> ready;
  Result<int> n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);  // the wakeup pipe is never reported as ready
  EXPECT_TRUE(ready.empty());
  EXPECT_TRUE(loop.woke());

  n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
  EXPECT_FALSE(loop.woke());  // the nudge does not linger
}

// A wakeup() from another thread ends a blocked wait() at once, even after a
// wakeup storm. Regression: wait() disarmed the wakeup flag and then drained
// the whole pipe, so a wakeup() landing in between had its byte swallowed
// while the flag stayed armed; every later wakeup() was coalesced into that
// phantom byte, and the waiter slept out its timeout. The storm hits that
// window within milliseconds.
TEST(EventLoop, WakeupUnblocksWaitFromAnotherThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::atomic<bool> stop{false};
  std::thread waiter([&loop, &stop] {
    std::vector<EventLoop::Ready> ready;
    while (!stop.load(std::memory_order_acquire)) EXPECT_TRUE(loop.wait(5000, ready).ok());
  });
  const auto storm_end = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (std::chrono::steady_clock::now() < storm_end) loop.wakeup();
  stop.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  loop.wakeup();
  waiter.join();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(), 2.5);
  EXPECT_TRUE(loop.woke());
}

TEST(EventLoop, ReadableAndWritableReadiness) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  SocketPair pair;
  ASSERT_TRUE(loop.add(pair.fds[0], kEventReadable).ok());
  EXPECT_EQ(loop.watched(), 1u);

  std::vector<EventLoop::Ready> ready;
  Result<int> n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);  // nothing to read yet

  char byte = 'x';
  ASSERT_EQ(::send(pair.fds[1], &byte, 1, 0), 1);
  n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  EXPECT_TRUE(has_event(ready, pair.fds[0], kEventReadable));

  // Level-triggered: still ready until drained, quiet afterwards.
  n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  ASSERT_EQ(::recv(pair.fds[0], &byte, 1, 0), 1);
  n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);

  // An empty socket buffer is immediately writable.
  ASSERT_TRUE(loop.modify(pair.fds[0], kEventWritable).ok());
  n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(has_event(ready, pair.fds[0], kEventWritable));

  loop.remove(pair.fds[0]);
  EXPECT_EQ(loop.watched(), 0u);
}

TEST(EventLoop, PeerCloseReportsError) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  SocketPair pair;
  ASSERT_TRUE(loop.add(pair.fds[0], kEventReadable).ok());
  ::close(pair.release(1));
  std::vector<EventLoop::Ready> ready;
  Result<int> n = loop.wait(0, ready);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  // Hangup surfaces as readable (so the owner drains the EOF) plus error.
  EXPECT_TRUE(has_event(ready, pair.fds[0], kEventReadable));
  EXPECT_TRUE(has_event(ready, pair.fds[0], kEventError));
}

TEST(EventLoop, ApiEdges) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  loop.remove(12345);  // never watched: ignored
  EXPECT_EQ(loop.watched(), 0u);
  EXPECT_FALSE(loop.modify(12345, kEventReadable).ok());  // modify needs add
  EXPECT_FALSE(loop.add(-1, kEventReadable).ok());

  SocketPair pair;
  ASSERT_TRUE(loop.add(pair.fds[0], kEventReadable).ok());
  // Re-adding replaces the mask instead of duplicating the entry.
  ASSERT_TRUE(loop.add(pair.fds[0], kEventReadable | kEventWritable).ok());
  EXPECT_EQ(loop.watched(), 1u);
  loop.remove(pair.fds[0]);
}

// Connect/close storm: the interest set and kernel registration must stay
// consistent through rapid fd reuse.
TEST(EventLoop, FdChurnStorm) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::vector<EventLoop::Ready> ready;
  for (int round = 0; round < 64; ++round) {
    std::vector<std::unique_ptr<SocketPair>> pairs;
    for (int i = 0; i < 8; ++i) {
      pairs.push_back(std::make_unique<SocketPair>());
      ASSERT_TRUE(loop.add(pairs.back()->fds[0], kEventReadable).ok());
      char byte = static_cast<char>(i);
      ASSERT_EQ(::send(pairs.back()->fds[1], &byte, 1, 0), 1);
    }
    EXPECT_EQ(loop.watched(), 8u);
    Result<int> n = loop.wait(0, ready);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 8);
    std::vector<int> watched_fds;
    for (const auto& pair : pairs) {
      EXPECT_TRUE(has_event(ready, pair->fds[0], kEventReadable));
      watched_fds.push_back(pair->fds[0]);
    }
    // Half the rounds close the fds before remove() has run, mimicking an
    // owner whose teardown races its bookkeeping.
    if (round % 2 == 1) pairs.clear();
    for (int fd : watched_fds) loop.remove(fd);
    pairs.clear();
    EXPECT_EQ(loop.watched(), 0u);
  }
}

// A frame arriving in two halves produces two readiness events; the channel
// must buffer the partial frame after the first and complete it after the
// second — the core invariant of nonblocking reads under an event loop.
TEST(EventLoop, PartialFrameAcrossTwoReadinessEvents) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  SocketPair pair;
  std::unique_ptr<Channel> channel = channel_from_fd(pair.release(0));
  int fd = channel->native_handle();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(loop.add(fd, kEventReadable).ok());

  std::vector<std::uint8_t> frame = encode(Message(RegisterAck{42}));
  ASSERT_GT(frame.size(), 2u);
  std::size_t half = frame.size() / 2;  // splits inside the frame header
  ASSERT_EQ(::send(pair.fds[1], frame.data(), half, 0), static_cast<ssize_t>(half));

  std::vector<EventLoop::Ready> ready;
  Result<int> n = loop.wait(1000, ready);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(has_event(ready, fd, kEventReadable));
  Result<std::optional<Message>> polled = channel->poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled.value().has_value());  // half a frame is not a message
  EXPECT_FALSE(channel->closed());

  ASSERT_EQ(::send(pair.fds[1], frame.data() + half, frame.size() - half, 0),
            static_cast<ssize_t>(frame.size() - half));
  n = loop.wait(1000, ready);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(has_event(ready, fd, kEventReadable));
  polled = channel->poll();
  ASSERT_TRUE(polled.ok());
  ASSERT_TRUE(polled.value().has_value());
  EXPECT_EQ(std::get<RegisterAck>(*polled.value()).app_id, 42);
}

// Regression (red before the transport fix): an EINTR mid-read must be
// retried, not surfaced — the frame behind it still arrives in the same
// poll() call.
TEST(EintrRegression, RecvRetriedDeliversFrame) {
  SocketPair pair;
  std::unique_ptr<Channel> channel = channel_from_fd(pair.release(0));
  std::vector<std::uint8_t> frame = encode(Message(RegisterAck{7}));
  ASSERT_EQ(::send(pair.fds[1], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  ScopedSyscallOverride guard;
  g_recv_eintr_budget.store(1);
  syscall_hooks().recv = recv_eintr_then_real;
  Result<std::optional<Message>> polled = channel->poll();
  ASSERT_TRUE(polled.ok()) << polled.error().message;
  ASSERT_TRUE(polled.value().has_value());
  EXPECT_EQ(std::get<RegisterAck>(*polled.value()).app_id, 7);
  EXPECT_LE(g_recv_eintr_budget.load(), 0);  // the scripted EINTR was consumed
}

// EAGAIN is the quiet no-data case, not an error: poll() must return an
// empty optional and leave the channel open.
TEST(EintrRegression, EagainSurfacesAsEmptyPoll) {
  SocketPair pair;
  std::unique_ptr<Channel> channel = channel_from_fd(pair.release(0));
  ScopedSyscallOverride guard;
  syscall_hooks().recv = recv_always_eagain;
  Result<std::optional<Message>> polled = channel->poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled.value().has_value());
  EXPECT_FALSE(channel->closed());
}

// wait() retries an interrupted epoll_wait with the remaining timeout
// instead of reporting a spurious failure or hanging.
TEST(EintrRegression, EventLoopWaitRetriesInterruptedPoll) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  SocketPair pair;
  ASSERT_TRUE(loop.add(pair.fds[0], kEventReadable).ok());
  char byte = 'z';
  ASSERT_EQ(::send(pair.fds[1], &byte, 1, 0), 1);

  ScopedSyscallOverride guard;
  g_epoll_wait_eintr_budget.store(2);
  syscall_hooks().epoll_wait = epoll_wait_eintr_then_real;
  std::vector<EventLoop::Ready> ready;
  Result<int> n = loop.wait(1000, ready);
  ASSERT_TRUE(n.ok()) << n.error().message;
  EXPECT_EQ(n.value(), 1);
  EXPECT_TRUE(has_event(ready, pair.fds[0], kEventReadable));
  EXPECT_LE(g_epoll_wait_eintr_budget.load(), 0);
}

TEST(EintrRegression, AcceptRetriedAfterInterrupt) {
  std::string path = ::testing::TempDir() + "/harp_eventloop_accept.sock";
  Result<std::unique_ptr<UnixServer>> server = UnixServer::listen(path);
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Channel>> client = unix_connect(path);
  ASSERT_TRUE(client.ok());

  ScopedSyscallOverride guard;
  g_accept_eintr_budget.store(1);
  syscall_hooks().accept = accept_eintr_then_real;
  std::unique_ptr<Channel> accepted;
  for (int i = 0; i < 100 && accepted == nullptr; ++i) {
    Result<std::optional<std::unique_ptr<Channel>>> result = server.value()->accept();
    ASSERT_TRUE(result.ok()) << result.error().message;
    if (result.value().has_value()) accepted = std::move(*result.value());
  }
  EXPECT_NE(accepted, nullptr);
  EXPECT_LE(g_accept_eintr_budget.load(), 0);
}

// Event-loop send mode: a frame tail that overflows the socket buffer is
// queued, reported by has_pending_send(), and drained by flush_pending() on
// writable readiness — exactly how the RM server flushes slow clients.
TEST(EventLoop, NonblockingSendFlushesOnWritableReadiness) {
  SocketPair pair;
  int send_buf = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &send_buf, sizeof(send_buf)), 0);

  std::unique_ptr<Channel> sender = channel_from_fd(pair.release(0));
  std::unique_ptr<Channel> receiver = channel_from_fd(pair.release(1));
  sender->set_nonblocking_send(true);

  // 4000 grants (the decoder caps at 4096) is ~48 KB on the wire — far more
  // than the shrunken socket buffer, so a tail must be queued.
  ActivateMsg big;
  big.erv = platform::ExtendedResourceVector::from_threads(platform::raptor_lake(), {4, 2});
  for (std::int32_t i = 0; i < 4000; ++i) big.cores.push_back({0, i, 1});
  ASSERT_TRUE(sender->send(Message(big)).ok());
  EXPECT_TRUE(sender->has_pending_send());

  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int sender_fd = sender->native_handle();
  ASSERT_TRUE(loop.add(sender_fd, kEventWritable).ok());

  std::optional<Message> received;
  std::vector<EventLoop::Ready> ready;
  for (int i = 0; i < 10000 && !received.has_value(); ++i) {
    if (sender->has_pending_send()) {
      Result<int> n = loop.wait(1000, ready);
      ASSERT_TRUE(n.ok());
      if (has_event(ready, sender_fd, kEventWritable)) {
        ASSERT_TRUE(sender->flush_pending().ok());
      }
    }
    Result<std::optional<Message>> polled = receiver->poll();
    ASSERT_TRUE(polled.ok()) << polled.error().message;
    if (polled.value().has_value()) received = *polled.value();
  }
  ASSERT_TRUE(received.has_value());
  const ActivateMsg& out = std::get<ActivateMsg>(*received);
  ASSERT_EQ(out.cores.size(), big.cores.size());
  EXPECT_EQ(out.cores.back().core, big.cores.back().core);
  EXPECT_FALSE(sender->has_pending_send());
}

}  // namespace
}  // namespace harp::ipc
