// r12: blocking operations under a held harp::Mutex — transport calls,
// sleeps, waiting syscalls, and condition-variable waits that keep another
// mutex locked all fire while a lock is held.
#include <condition_variable>
#include <mutex>

#include "src/common/mutex.hpp"

struct Channel {
  bool send(int frame);
};

class Pump {
 public:
  void flush() {
    harp::MutexLock lock(mutex_);
    channel_.send(42);  // expect: r12
  }
  void drain_socket(int fd) {
    harp::MutexLock lock(mutex_);
    (void)::recv(fd, nullptr, 0, 0);  // expect: r12
  }
  void backoff() {
    harp::MutexLock lock(mutex_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // expect: r12
  }
  void reap(int epfd) {
    harp::MutexLock lock(mutex_);
    epoll_wait(epfd, nullptr, 16, -1);  // expect: r12
  }
  void wait_ready() {
    std::unique_lock<std::mutex> lk(aux_);
    harp::MutexLock lock(mutex_);
    cv_.wait(lk);  // expect: r12
  }

 private:
  harp::Mutex mutex_;
  std::mutex aux_;
  std::condition_variable cv_;
  Channel channel_;
};
