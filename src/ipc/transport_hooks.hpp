// Test seam for the Unix transport's and the event loop's syscalls.
//
// The EINTR/EAGAIN regression tests (tests/event_loop_test.cpp) need to make
// recv/send/poll/accept/epoll_wait fail with scripted errnos on demand, which
// no real socket can do deterministically. transport.cpp and event_loop.cpp
// route every such syscall through these function pointers; tests swap one
// in, exercise the channel or loop, and restore the default. Production code
// never touches this header beyond the default initialisation, so the
// indirection costs one load per syscall.
//
// Not thread-safe: swap hooks only in single-threaded test sections and
// restore them before the test returns (see ScopedSyscallOverride in the
// tests).
#pragma once

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>

namespace harp::ipc {

struct SyscallHooks {
  ssize_t (*recv)(int fd, void* buf, size_t len, int flags) = nullptr;
  ssize_t (*send)(int fd, const void* buf, size_t len, int flags) = nullptr;
  int (*poll)(struct pollfd* fds, nfds_t nfds, int timeout) = nullptr;
  int (*accept)(int fd, struct sockaddr* addr, socklen_t* addr_len) = nullptr;
  int (*epoll_wait)(int epfd, struct epoll_event* events, int maxevents, int timeout) = nullptr;
};

/// The active hook set. Null members mean "call the real syscall".
SyscallHooks& syscall_hooks();

}  // namespace harp::ipc
