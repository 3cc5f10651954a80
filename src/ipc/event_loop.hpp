// Readiness event loop for the RM transport (DESIGN.md "Event loop").
//
// One EventLoop owns the kernel-side interest set for every fd a server
// watches — the listen socket plus all client connections — and turns the
// old O(clients) poll-per-client syscall scan into one wait() returning only
// the fds with work. Two backends behind one API:
//
//   - kEpoll: epoll(7), level-triggered. O(ready) per cycle; the default on
//     Linux.
//   - kPoll:  portable poll(2) over a cached pollfd snapshot. O(watched) per
//     cycle but still one syscall instead of one per client; the fallback
//     for platforms without epoll and the cross-check backend in tests.
//
// A wakeup pipe is always part of the interest set so other threads can
// nudge a blocked wait(): cross-thread channel adoption, in-process frame
// arrival, and shutdown all use it. wakeup() is the only thread-safe entry
// point; everything else belongs to the loop's driving thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/mutex.hpp"
#include "src/common/result.hpp"
#include "src/common/thread_annotations.hpp"

// Forward-declared to keep <poll.h> / <sys/epoll.h> out of this header;
// std::vector members of incomplete types are fine since C++17 (the
// destructor lives in event_loop.cpp where both are complete).
struct pollfd;
struct epoll_event;

namespace harp::ipc {

/// Interest/readiness bits (mapped to EPOLLIN/EPOLLOUT or POLLIN/POLLOUT).
inline constexpr std::uint32_t kEventReadable = 0x1;
inline constexpr std::uint32_t kEventWritable = 0x2;
/// Reported (never requested): peer hung up or fd error. Always delivered
/// alongside whatever was requested so callers can tear the fd down.
inline constexpr std::uint32_t kEventError = 0x4;

class EventLoop {
 public:
  enum class Backend : std::uint8_t {
    kDefault,  ///< epoll where available, else poll
    kEpoll,
    kPoll,
  };

  /// One ready fd from wait(). `events` is a bitmask of the kEvent* flags.
  struct Ready {
    int fd = -1;
    std::uint32_t events = 0;
  };

  explicit EventLoop(Backend backend = Backend::kDefault);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when construction failed (fd exhaustion); all operations on an
  /// invalid loop fail cleanly and wait() reports the construction error.
  bool valid() const { return valid_; }
  /// The backend actually in use (kDefault is resolved at construction).
  Backend backend() const { return backend_; }

  /// Watch `fd` for `events`. One registration per fd; re-adding replaces
  /// the interest mask (same as modify).
  Status add(int fd, std::uint32_t events);
  /// Replace the interest mask of a watched fd.
  Status modify(int fd, std::uint32_t events);
  /// Stop watching `fd`. Unknown fds are ignored (close() may race ahead of
  /// the owner's bookkeeping during churn).
  void remove(int fd);
  /// Watched fds, excluding the internal wakeup pipe.
  std::size_t watched() const;

  /// Wait up to `timeout_ms` (0 = non-blocking readiness check, < 0 = wait
  /// indefinitely) and fill `out` (cleared first) with the ready fds.
  /// The wakeup pipe is drained internally and never reported in `out`;
  /// woke() says whether a nudge was consumed. Returns the number of ready
  /// entries. EINTR is retried with the remaining timeout.
  Result<int> wait(int timeout_ms, std::vector<Ready>& out);

  /// Nudge a concurrent (or the next) wait() awake. Thread-safe, async-
  /// signal-safe, idempotent until the next wait() drains it.
  void wakeup();
  /// True when the most recent wait() consumed at least one wakeup nudge.
  bool woke() const { return woke_; }

 private:
  Status add_or_modify(int fd, std::uint32_t events, bool replace_only);
  /// After a wait() that saw the wakeup pipe readable: disarm, and consume
  /// that nudge's byte.
  void consume_wakeup();

  // The mutex below guards only the interest set; everything else is either
  // immutable after construction or owned by the loop's driving thread.
  Backend backend_ = Backend::kPoll;  // harp-lint: allow(all immutable after construction)
  bool valid_ = false;                // harp-lint: allow(all immutable after construction)
  bool woke_ = false;                 // harp-lint: allow(all loop-thread-only wait() state)
  int epoll_fd_ = -1;                 // harp-lint: allow(all immutable after construction)
  int wake_rx_ = -1;  // harp-lint: allow(all immutable after construction) — pipe read end
  int wake_tx_ = -1;  // harp-lint: allow(all immutable after construction) — pipe write end
  /// One pending-wakeup byte at most: wakeup() only writes on the
  /// disarmed→armed edge, so a 100k-client notify storm costs one syscall.
  std::atomic<bool> wake_armed_{false};

  /// Interest set. Guarded so cross-thread add/remove during a blocked
  /// wait() (channel adoption into a server polling on its own thread)
  /// cannot tear the map; the kernel wait itself runs outside the lock, and
  /// mutators wakeup() the loop so a blocked poll-backend wait rebuilds its
  /// snapshot promptly.
  mutable Mutex mutex_;
  std::map<int, std::uint32_t> interest_ HARP_GUARDED_BY(mutex_);
  std::uint64_t interest_version_ HARP_GUARDED_BY(mutex_) = 0;

  // poll backend: cached pollfd snapshot, rebuilt only when interest_
  // changed (interest_version_ tracks mutations).
  std::vector<struct pollfd> pollfds_;
  std::uint64_t snapshot_version_ = ~0ull;  // harp-lint: allow(all loop-thread-only wait() state)

  // epoll backend: reusable event buffer (sized to the interest set).
  std::vector<struct epoll_event> epoll_buf_;
};

}  // namespace harp::ipc
