// harp-lint: hot-path
#include "src/ipc/event_loop.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <chrono>

#include "src/ipc/transport_hooks.hpp"

#if defined(__linux__)
#define HARP_HAVE_EPOLL 1
#include <sys/epoll.h>
#else
#define HARP_HAVE_EPOLL 0
// Complete the forward-declared type so the epoll_buf_ member (always unused
// here) can be destroyed; the epoll code paths are compiled out entirely.
struct epoll_event {
  int unused;
};
#endif

namespace harp::ipc {

namespace {

int sys_poll(struct pollfd* fds, nfds_t nfds, int timeout) {
  if (syscall_hooks().poll != nullptr) return syscall_hooks().poll(fds, nfds, timeout);
  return ::poll(fds, nfds, timeout);
}

short to_poll_events(std::uint32_t events) {
  short mask = 0;
  if ((events & kEventReadable) != 0) mask |= POLLIN;
  if ((events & kEventWritable) != 0) mask |= POLLOUT;
  return mask;
}

std::uint32_t from_poll_events(short revents) {
  std::uint32_t events = 0;
  if ((revents & (POLLIN | POLLHUP)) != 0) events |= kEventReadable;
  if ((revents & POLLOUT) != 0) events |= kEventWritable;
  if ((revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) events |= kEventError;
  return events;
}

#if HARP_HAVE_EPOLL
std::uint32_t to_epoll_events(std::uint32_t events) {
  std::uint32_t mask = 0;
  if ((events & kEventReadable) != 0) mask |= EPOLLIN;
  if ((events & kEventWritable) != 0) mask |= EPOLLOUT;
  return mask;
}

std::uint32_t from_epoll_events(std::uint32_t revents) {
  std::uint32_t events = 0;
  if ((revents & (EPOLLIN | EPOLLHUP)) != 0) events |= kEventReadable;
  if ((revents & EPOLLOUT) != 0) events |= kEventWritable;
  if ((revents & (EPOLLERR | EPOLLHUP)) != 0) events |= kEventError;
  return events;
}
#endif

/// Monotonic milliseconds, for re-arming the timeout across EINTR retries.
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool make_wakeup_pipe(int* rx, int* tx) {
  int fds[2];
#if defined(__linux__)
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return false;
#else
  if (::pipe(fds) != 0) return false;
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
#endif
  *rx = fds[0];
  *tx = fds[1];
  return true;
}

}  // namespace

EventLoop::EventLoop(Backend backend) {
  if (!make_wakeup_pipe(&wake_rx_, &wake_tx_)) return;

#if HARP_HAVE_EPOLL
  bool want_epoll = backend != Backend::kPoll;
#else
  bool want_epoll = false;
  if (backend == Backend::kEpoll) return;  // explicitly requested, unavailable
#endif

#if HARP_HAVE_EPOLL
  if (want_epoll) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ >= 0) {
      struct epoll_event ev;
      ::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.fd = wake_rx_;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_rx_, &ev) == 0) {
        backend_ = Backend::kEpoll;
        valid_ = true;
        return;
      }
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
    // epoll_create1 failed (fd/watch exhaustion): fall through to poll
    // unless the caller demanded epoll specifically.
    if (backend == Backend::kEpoll) return;
  }
#else
  (void)want_epoll;
#endif

  backend_ = Backend::kPoll;
  valid_ = true;
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_rx_ >= 0) ::close(wake_rx_);
  if (wake_tx_ >= 0) ::close(wake_tx_);
}

Status EventLoop::add(int fd, std::uint32_t events) {
  return add_or_modify(fd, events, /*replace_only=*/false);
}

Status EventLoop::modify(int fd, std::uint32_t events) {
  return add_or_modify(fd, events, /*replace_only=*/true);
}

Status EventLoop::add_or_modify(int fd, std::uint32_t events, bool replace_only) {
  if (!valid_) return Status(make_error("io: event loop unavailable"));
  if (fd < 0) return Status(make_error("io: cannot watch a negative fd"));

  bool existed = false;
  {
    MutexLock lock(mutex_);
    auto it = interest_.find(fd);
    existed = it != interest_.end();
    if (replace_only && !existed) return Status(make_error("io: fd not watched"));
    if (existed && it->second == events) return Status{};
    interest_[fd] = events;
    ++interest_version_;
  }

#if HARP_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev;
    ::memset(&ev, 0, sizeof(ev));
    ev.events = to_epoll_events(events);
    ev.data.fd = fd;
    int op = existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
      int saved = errno;
      {
        MutexLock lock(mutex_);
        if (!existed) interest_.erase(fd);
        ++interest_version_;
      }
      return Status(make_error(std::string("io: epoll_ctl: ") + ::strerror(saved)));
    }
    return Status{};
  }
#endif
  // poll backend: the snapshot rebuild picks the change up; nudge a blocked
  // wait() so cross-thread adds take effect promptly.
  wakeup();
  return Status{};
}

void EventLoop::remove(int fd) {
  if (!valid_ || fd < 0) return;
  bool existed = false;
  {
    MutexLock lock(mutex_);
    existed = interest_.erase(fd) > 0;
    if (existed) ++interest_version_;
  }
  if (!existed) return;
#if HARP_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    // The fd may already be closed (churn); EBADF/ENOENT are expected then.
    struct epoll_event ev;
    ::memset(&ev, 0, sizeof(ev));
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
    return;
  }
#endif
  wakeup();
}

std::size_t EventLoop::watched() const {
  MutexLock lock(mutex_);
  return interest_.size();
}

void EventLoop::wakeup() {
  if (!valid_) return;
  bool was_armed = wake_armed_.exchange(true, std::memory_order_acq_rel);
  if (was_armed) return;  // a byte is already in flight; wait() will see it
  const char byte = 1;
  // A full pipe means a wakeup is pending anyway; nothing to do on EAGAIN.
  ssize_t rc;
  do {
    rc = ::write(wake_tx_, &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void EventLoop::consume_wakeup() {
  // Disarm, then take the one byte the ended armed period wrote. A wakeup()
  // racing in after the disarm writes its own byte, which stays for the next
  // wait(); draining the pipe here would swallow it and leave the loop armed
  // over an empty pipe, deaf to every later wakeup().
  wake_armed_.store(false, std::memory_order_release);
  char byte;
  while (::read(wake_rx_, &byte, 1) < 0 && errno == EINTR) {
  }
}

Result<int> EventLoop::wait(int timeout_ms, std::vector<Ready>& out) {
  out.clear();
  woke_ = false;
  if (!valid_) return Error{"io: event loop unavailable"};

#if HARP_HAVE_EPOLL
  if (backend_ == Backend::kEpoll) {
    std::size_t capacity;
    {
      MutexLock lock(mutex_);
      capacity = interest_.size() + 1;  // + wakeup pipe
    }
    if (epoll_buf_.size() < capacity) epoll_buf_.resize(capacity);
    struct epoll_event* events = epoll_buf_.data();

    std::int64_t deadline = timeout_ms > 0 ? now_ms() + timeout_ms : 0;
    int remaining = timeout_ms;
    int n;
    int wait_errno = 0;
    for (;;) {
      n = ::epoll_wait(epoll_fd_, events, static_cast<int>(capacity), remaining);
      if (n >= 0) break;
      if (errno != EINTR) {
        wait_errno = errno;
        break;
      }
      if (timeout_ms > 0) {
        std::int64_t left = deadline - now_ms();
        if (left <= 0) {
          n = 0;
          break;
        }
        remaining = static_cast<int>(left);
      }
    }
    if (wait_errno != 0) {
      return Error{std::string("io: epoll_wait: ") + ::strerror(wait_errno)};
    }

    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_rx_) {
        woke_ = true;
        continue;
      }
      std::uint32_t ready = from_epoll_events(events[i].events);
      if (ready != 0) out.push_back(Ready{fd, ready});
    }
    if (woke_) consume_wakeup();
    return static_cast<int>(out.size());
  }
#endif

  // poll backend: rebuild the pollfd snapshot only when the interest set
  // changed since the last wait.
  {
    MutexLock lock(mutex_);
    if (snapshot_version_ != interest_version_) {
      pollfds_.clear();
      pollfds_.reserve(interest_.size() + 1);
      struct pollfd wake;
      wake.fd = wake_rx_;
      wake.events = POLLIN;
      wake.revents = 0;
      pollfds_.push_back(wake);
      for (const auto& [fd, events] : interest_) {
        struct pollfd p;
        p.fd = fd;
        p.events = to_poll_events(events);
        p.revents = 0;
        pollfds_.push_back(p);
      }
      snapshot_version_ = interest_version_;
    }
  }

  std::int64_t deadline = timeout_ms > 0 ? now_ms() + timeout_ms : 0;
  int remaining = timeout_ms;
  int n;
  int wait_errno = 0;
  for (;;) {
    n = sys_poll(pollfds_.data(), pollfds_.size(), remaining);
    if (n >= 0) break;
    if (errno != EINTR) {
      wait_errno = errno;
      break;
    }
    if (timeout_ms > 0) {
      std::int64_t left = deadline - now_ms();
      if (left <= 0) {
        n = 0;
        break;
      }
      remaining = static_cast<int>(left);
    }
  }
  if (wait_errno != 0) return Error{std::string("io: poll: ") + ::strerror(wait_errno)};

  for (const struct pollfd& p : pollfds_) {
    if (p.revents == 0) continue;
    if (p.fd == wake_rx_) {
      woke_ = true;
      continue;
    }
    std::uint32_t ready = from_poll_events(p.revents);
    if (ready != 0) out.push_back(Ready{p.fd, ready});
  }
  if (woke_) consume_wakeup();
  return static_cast<int>(out.size());
}

}  // namespace harp::ipc
