// Readiness event loop for the RM transport (DESIGN.md "Event loop").
//
// One EventLoop owns the kernel-side interest set for every fd a server
// watches — the listen socket plus all client connections — and turns the
// old O(clients) poll-per-client syscall scan into one wait() returning only
// the fds with work. It is a level-triggered epoll(7) instance: O(ready) per
// cycle.
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

// Forward-declared to keep <sys/epoll.h> out of this header; a std::vector
// member of an incomplete type is fine since C++17 (the destructor lives in
// event_loop.cpp where it is complete).
struct epoll_event;

namespace harp::ipc {

/// Interest/readiness bits (mapped to EPOLLIN/EPOLLOUT).
inline constexpr std::uint32_t kEventReadable = 0x1;
inline constexpr std::uint32_t kEventWritable = 0x2;
/// Reported (never requested): peer hung up or fd error. Always delivered
/// alongside whatever was requested so callers can tear the fd down.
inline constexpr std::uint32_t kEventError = 0x4;

class EventLoop {
 public:
  /// One ready fd from wait(). `events` is a bitmask of the kEvent* flags.
  struct Ready {
    int fd = -1;
    std::uint32_t events = 0;
  };

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when construction failed (fd exhaustion); all operations on an
  /// invalid loop fail cleanly and wait() reports the construction error.
  bool valid() const { return valid_; }

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
  /// cannot tear the map; the kernel wait itself runs outside the lock.
  mutable Mutex mutex_;
  std::map<int, std::uint32_t> interest_ HARP_GUARDED_BY(mutex_);

  /// Reusable epoll_wait() event buffer (sized to the interest set).
  std::vector<struct epoll_event> epoll_buf_;
};

}  // namespace harp::ipc
