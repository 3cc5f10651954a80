// harp-lint: hot-path
#include "src/ipc/event_loop.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>

#include "src/ipc/transport_hooks.hpp"

namespace harp::ipc {

namespace {

int sys_epoll_wait(int epfd, struct epoll_event* events, int maxevents, int timeout) {
  auto* hook = syscall_hooks().epoll_wait;
  return hook != nullptr ? hook(epfd, events, maxevents, timeout)
                         : ::epoll_wait(epfd, events, maxevents, timeout);
}

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

/// Monotonic milliseconds, for re-arming the timeout across EINTR retries.
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EventLoop::EventLoop() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return;
  wake_rx_ = fds[0];
  wake_tx_ = fds[1];

  // epoll_create1 fails under fd/watch exhaustion; the loop then stays
  // invalid and every operation reports it.
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return;
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_rx_;
  valid_ = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_rx_, &ev) == 0;
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
  }

  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = to_epoll_events(events);
  ev.data.fd = fd;
  int op = existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    int saved = errno;
    if (!existed) {
      MutexLock lock(mutex_);
      interest_.erase(fd);
    }
    return Status(make_error(std::string("io: epoll_ctl: ") + ::strerror(saved)));
  }
  return Status{};
}

void EventLoop::remove(int fd) {
  if (!valid_ || fd < 0) return;
  {
    MutexLock lock(mutex_);
    if (interest_.erase(fd) == 0) return;
  }
  // The fd may already be closed (churn); EBADF/ENOENT are expected then.
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
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
    n = sys_epoll_wait(epoll_fd_, events, static_cast<int>(capacity), remaining);
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
  if (wait_errno != 0) return Error{std::string("io: epoll_wait: ") + ::strerror(wait_errno)};

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

}  // namespace harp::ipc
