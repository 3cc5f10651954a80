// daemon_roundtrip: the only workload that crosses the process boundary.
//
// The real harpd binary runs on a private socket. One thread drives 4
// HarpClients (4 connections) in a closed loop: each op resubmits a 3-point
// table with changed utilities and waits for that client's next activation
// carrying the point the new table makes cheapest. The clients provide
// utility, so harpd's 1 s utility polls add reads beside these writes. About
// 5 % of ops are app churn: the app deregisters and a new app with a fresh
// (name, pid) starts without blocking (ipc::unix_connect +
// HarpClient::deferred).
//
// A leaving app keeps its socket open after deregister() until harpd has
// read the farewell and closed its end (a graceful close). Closing at once
// lets a grant harpd sends in the meantime fail with EPIPE; harpd then
// closes that fd but keeps it in its fd map until its next cycle, and when
// an app start reuses the fd number in between, dropping the stale client
// also unregisters the new one, whose frames are never read again. That
// defect makes the failed-op count vary from run to run, so it is left to a
// test of harpd rather than to this benchmark.
//
// The three points use 2 P-cores, 1 P + 1 E, and 2 E-cores — pairwise
// incomparable core vectors, so all three survive harpd's Pareto filter —
// and 4 clients fit the machine whichever point each prefers.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/checks.hpp"
#include "perfbench/src/common.hpp"
#include "src/common/rng.hpp"
#include "src/ipc/transport.hpp"
#include "src/libharp/client.hpp"

namespace perfbench {

namespace {

namespace hc = harp::client;
namespace hi = harp::ipc;
namespace hp = harp::platform;

constexpr int kClients = 4;             // one connection per core (nproc = 4)
constexpr double kChurn = 0.05;         // share of ops that restart the app
constexpr double kOpDeadlineS = 0.25;   // an op without its activation by then fails
constexpr int kSetupRepeats = 3;
constexpr double kLingerS = 2.0;        // longest wait for harpd to close a leaving app

/// harpd as a child process: killed and reaped when this object goes away,
/// on every exit path. The child also dies with the benchmark process.
class Harpd {
 public:
  Harpd(const Harpd&) = delete;
  Harpd& operator=(const Harpd&) = delete;
  ~Harpd() { (void)stop(); }

  static std::unique_ptr<Harpd> spawn(const std::string& binary, const std::string& socket,
                                      const std::string& log) {
    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) return nullptr;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(binary.c_str(), "harpd", "--hardware", "raptor-lake", "--socket", socket.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return std::unique_ptr<Harpd>(new Harpd(pid));
  }

  /// True (and the exit status in *status) once the daemon has exited.
  bool exited(int* status) {
    if (pid_ <= 0) {
      *status = status_;
      return true;
    }
    if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
      pid_ = -1;
      *status = status_;
      return true;
    }
    return false;
  }

  /// SIGTERM, a bounded wait, then SIGKILL; returns the reaped wait status.
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 400; ++i) {
      if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
        pid_ = -1;
        return status_;
      }
      ::usleep(5000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status_, 0);
    pid_ = -1;
    return status_;
  }

 private:
  explicit Harpd(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  int status_ = 0;
};

bool clean_exit(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

std::vector<hp::ExtendedResourceVector> point_shapes() {
  return {hp::ExtendedResourceVector::from_counts({{2, 0}, {0}}),
          hp::ExtendedResourceVector::from_counts({{1, 0}, {1}}),
          hp::ExtendedResourceVector::from_counts({{0, 0}, {2}})};
}

/// State the client callbacks share with the loop (same thread).
struct Shared {
  std::vector<hi::OperatingPointsMsg::Point> table;  ///< last submitted
  std::vector<hc::Activation> inbox;
  hp::ExtendedResourceVector active;  ///< point of the latest activation
};

struct Slot {
  std::unique_ptr<hc::HarpClient> client;
  std::shared_ptr<Shared> shared;
  int fd = -1;
  std::string name;
  std::uint64_t seq = 0;  ///< ops issued by this app (rotates the preferred point)
  bool in_flight = false;
  bool starting = false;  ///< the op is an app start (churn)
  double t_start = 0.0;
  double busy_s = 0.0;  ///< time inside libharp calls for the op in flight
  int polls = 0;
  hp::ExtendedResourceVector expected;
  std::int64_t span = -1;
  std::uint64_t op = 0;
};

struct Stats {
  std::vector<double> rt_ms;
  std::vector<double> wait_ms;
  std::vector<double> busy_ms;
  std::vector<double> start_ms;
  std::vector<double> submit_us;
  std::vector<double> poll_us;
  std::uint64_t rt_polls = 0;
  std::uint64_t completed = 0;  ///< round trips that got their activation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
};

class Loop {
 public:
  Loop(std::uint64_t seed, std::string socket, Output& out)
      : socket_(std::move(socket)), out_(out), rng_(seed * 7919 + 3),
        shapes_(point_shapes()), hw_(hp::raptor_lake()) {}
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;
  ~Loop() {
    for (const Leaving& l : leaving_) ::close(l.fd);
  }

  /// Start kClients apps with blocking registration and settle their first
  /// activations.
  bool start_clients() {
    for (int i = 0; i < kClients; ++i) {
      slots_.emplace_back();
      if (!open_app(slots_.back(), /*blocking=*/true)) return false;
    }
    for (Slot& s : slots_)
      if (!submit(s, nullptr).ok()) return false;
    double until = now_s() + 5.0;
    while (now_s() < until) {
      bool all = true;
      for (Slot& s : slots_) all = all && !s.in_flight;
      if (all) return true;
      step(nullptr, until);
    }
    return false;
  }

  /// The closed loop for `seconds`, recording spans when `spans` is set;
  /// then the ops in flight finish.
  void run(double seconds, Stats& stats, SpanLog* spans) {
    spans_ = spans;
    const double start = now_s();
    const double end = start + seconds;
    for (Slot& s : slots_) s.in_flight = false;
    while (now_s() < end && !harpd_failed_) {
      for (Slot& s : slots_)
        if (!s.in_flight) begin_op(s, stats);
      step(&stats, end);
    }
    stats.elapsed_s = now_s() - start;
    // Let the ops in flight complete (or time out) without starting more.
    const double drain_until = now_s() + kOpDeadlineS + 0.5;
    while (now_s() < drain_until) {
      bool any = false;
      for (Slot& s : slots_) any = any || s.in_flight;
      if (!any) break;
      step(&stats, drain_until);
    }
    spans_ = nullptr;
  }

  /// Wait until no activation has arrived for a while, then check that the
  /// live clients' exclusive grants are disjoint.
  void check_settled() {
    double quiet_since = now_s();
    const double until = now_s() + 3.0;
    while (now_s() < until && now_s() - quiet_since < 0.1) {
      std::size_t before = received_;
      step(nullptr, until);
      if (received_ != before) quiet_since = now_s();
    }
    std::vector<std::vector<Grant>> grants;
    for (Slot& s : slots_) {
      if (s.client == nullptr) continue;
      std::optional<hc::Activation> act = s.client->current_activation();
      if (act.has_value()) grants.push_back(act->cores);
    }
    std::string error = check_disjoint(hw_, grants);
    if (!error.empty()) out_.check_failed("settled grants: " + error);
  }

  /// Close every app and wait until harpd has closed their sockets.
  void close_all() {
    for (Slot& s : slots_) close_app(s);
    const double until = now_s() + kLingerS;
    while (!leaving_.empty() && now_s() < until) step(nullptr, until);
    for (const Leaving& l : leaving_) ::close(l.fd);
    leaving_.clear();
  }
  bool harpd_failed() const { return harpd_failed_; }
  void set_harpd(Harpd* harpd) { harpd_ = harpd; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool open_app(Slot& s, bool blocking) {
    ++generation_;
    s.name = "app" + std::to_string(generation_);
    s.shared = std::make_shared<Shared>();
    s.seq = 0;
    hc::Config config;
    config.app_name = s.name;
    config.pid = static_cast<std::int32_t>(200000 + generation_);
    config.provides_utility = true;
    hc::Callbacks callbacks;
    std::weak_ptr<Shared> weak = s.shared;
    callbacks.on_activate = [weak](const hc::Activation& a) {
      if (auto sh = weak.lock()) {
        sh->inbox.push_back(a);
        sh->active = a.erv;
      }
    };
    // Report the utility the app submitted for the point it runs, so the
    // RM's measurement folding leaves the table as submitted.
    callbacks.utility_provider = [weak]() -> double {
      auto sh = weak.lock();
      if (!sh) return 1.0;
      for (const hi::OperatingPointsMsg::Point& p : sh->table)
        if (p.erv == sh->active) return p.utility;
      return 1.0;
    };
    harp::Result<std::unique_ptr<hi::Channel>> channel = hi::unix_connect(socket_);
    if (!channel.ok()) return false;
    s.fd = channel.value()->native_handle();
    auto client = blocking ? hc::HarpClient::over_channel(std::move(channel).take(), config,
                                                          std::move(callbacks))
                           : hc::HarpClient::deferred(std::move(channel).take(), config,
                                                      std::move(callbacks));
    if (!client.ok()) return false;
    s.client = std::move(client).take();
    return true;
  }

  void close_app(Slot& s) {
    if (s.client == nullptr) return;
    reconnects_ += static_cast<std::uint64_t>(s.client->reconnect_count());
    dropped_ += s.client->dropped_sends();
    // A second descriptor keeps the socket open past deregister().
    const int keep = ::dup(s.fd);
    if (keep >= 0) leaving_.push_back(Leaving{keep, now_s()});
    (void)s.client->deregister();
    s.client.reset();
    s.fd = -1;
  }

  /// Submit the next table of this app; its preferred point rotates.
  harp::Status submit(Slot& s, Stats* stats) {
    std::uint64_t k = s.seq++;
    std::size_t preferred = static_cast<std::size_t>(k % shapes_.size());
    std::vector<hi::OperatingPointsMsg::Point> table;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      double utility = i == preferred ? 10.0 + 0.001 * static_cast<double>(k % 1000) : 5.0;
      table.push_back(hi::OperatingPointsMsg::Point{shapes_[i], utility, 4.0});
    }
    s.shared->table = table;
    s.expected = shapes_[preferred];
    s.in_flight = true;
    const double t0 = now_s();
    harp::Status status = s.client->submit_operating_points(table);
    const double t1 = now_s();
    s.busy_s += t1 - t0;
    if (stats != nullptr) stats->submit_us.push_back((t1 - t0) * 1e6);
    return status;
  }

  void begin_op(Slot& s, Stats& stats) {
    ++stats.attempted;
    s.busy_s = 0.0;
    s.polls = 0;
    s.op = ++ops_;
    s.t_start = now_s();
    s.starting = rng_.uniform() < kChurn || s.client == nullptr;
    if (s.starting) {
      close_app(s);
      const double t0 = now_s();
      if (!open_app(s, /*blocking=*/false)) {
        fail_op(s, stats, "cannot start a new app");
        return;
      }
      s.busy_s += now_s() - t0;
    }
    s.span = spans_ != nullptr ? spans_->open(s.starting ? "op.start" : "op.roundtrip", s.t_start,
                                              -1, s.op)
                               : -1;
    const double t_submit = now_s();
    harp::Status status = submit(s, &stats);
    if (spans_ != nullptr) spans_->add("libharp.submit", t_submit, now_s(), s.span, s.op);
    if (!status.ok()) fail_op(s, stats, "submit failed: " + status.error().message);
  }

  void fail_op(Slot& s, Stats& stats, const std::string& why) {
    ++stats.failed;
    // A failed op misses any latency limit: it enters the round-trip
    // percentiles at the deadline.
    if (!s.starting) stats.rt_ms.push_back(kOpDeadlineS * 1e3);
    if (failures_logged_++ < 5) log_note("daemon_roundtrip: op failed: %s", why.c_str());
    s.in_flight = false;
    close_app(s);  // the next op starts a fresh app
  }

  /// One readiness wait over the client sockets and the leaving apps'
  /// sockets, then pump the ready clients, complete the ops whose activation
  /// arrived, and close the leaving sockets harpd has closed.
  void step(Stats* stats, double until) {
    std::vector<pollfd> fds;
    for (Slot& s : slots_) fds.push_back(pollfd{s.client != nullptr ? s.fd : -1, POLLIN, 0});
    for (const Leaving& l : leaving_) fds.push_back(pollfd{l.fd, POLLIN, 0});
    int timeout_ms = std::max(0, std::min(5, static_cast<int>((until - now_s()) * 1e3)));
    (void)::poll(fds.data(), fds.size(), timeout_ms);
    const double now = now_s();
    reap_leaving(fds.data() + slots_.size(), now);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.client == nullptr) continue;
      if (fds[i].revents != 0) pump(s, stats);
      if (s.in_flight && now - s.t_start > kOpDeadlineS && stats != nullptr) {
        fail_op(s, *stats, s.name + ": no activation within the deadline");
      }
    }
    int status = 0;
    if (harpd_ != nullptr && !harpd_failed_ && harpd_->exited(&status)) {
      harpd_failed_ = true;
      out_.check_failed("harpd exited during the run (status " + std::to_string(status) + ")");
      if (stats != nullptr)
        for (Slot& s : slots_)
          if (s.in_flight) fail_op(s, *stats, "harpd exited");
    }
  }

  /// Discard what harpd still sends a leaving app; close its socket on EOF
  /// (harpd has processed the farewell) or after kLingerS.
  void reap_leaving(const pollfd* ready, double now) {
    std::vector<Leaving> kept;
    for (std::size_t i = 0; i < leaving_.size(); ++i) {
      bool done = now - leaving_[i].since > kLingerS;
      if (ready[i].revents != 0) {
        char buf[4096];
        ssize_t n;
        while ((n = ::recv(leaving_[i].fd, buf, sizeof buf, MSG_DONTWAIT)) > 0) {
        }
        done = done || n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR);
      }
      if (done) {
        ::close(leaving_[i].fd);
      } else {
        kept.push_back(leaving_[i]);
      }
    }
    leaving_.swap(kept);
  }

  void pump(Slot& s, Stats* stats) {
    const double t0 = now_s();
    harp::Status polled = s.client->poll();
    const double t1 = now_s();
    s.busy_s += t1 - t0;
    ++s.polls;
    if (stats != nullptr) {
      stats->poll_us.push_back((t1 - t0) * 1e6);
      if (spans_ != nullptr && s.span >= 0) spans_->add("libharp.poll", t0, t1, s.span, s.op);
    }
    const bool link_ok = polled.ok() && s.client->link_state() == hc::LinkState::kConnected;
    std::vector<hc::Activation> inbox;
    inbox.swap(s.shared->inbox);
    received_ += inbox.size();
    for (const hc::Activation& act : inbox) {
      std::string error = check_grant_valid(hw_, act.cores);
      if (error.empty() && !act.cores.empty()) error = check_grant_matches(act.erv, act.cores);
      if (!error.empty()) out_.check_failed(s.name + ": " + error);
      if (!s.in_flight || !(act.erv == s.expected)) continue;
      s.in_flight = false;
      const double rt = t1 - s.t_start;
      if (spans_ != nullptr) spans_->close(s.span, t1);
      if (stats == nullptr) break;
      if (s.starting) {
        stats->start_ms.push_back(rt * 1e3);
      } else {
        stats->rt_ms.push_back(rt * 1e3);
        ++stats->completed;
        stats->busy_ms.push_back(s.busy_s * 1e3);
        stats->wait_ms.push_back((rt - s.busy_s) * 1e3);
        stats->rt_polls += static_cast<std::uint64_t>(s.polls);
      }
      break;
    }
    if (!link_ok && stats != nullptr && s.in_flight)
      fail_op(s, *stats, s.name + ": link " + hc::to_string(s.client->link_state()));
  }

  std::string socket_;
  Output& out_;
  harp::Rng rng_;
  std::vector<hp::ExtendedResourceVector> shapes_;
  hp::HardwareDescription hw_;
  std::vector<Slot> slots_;
  struct Leaving {
    int fd;
    double since;
  };
  std::vector<Leaving> leaving_;  ///< deregistered apps' sockets, open until harpd closes
  Harpd* harpd_ = nullptr;
  SpanLog* spans_ = nullptr;  ///< set while a traced run() records
  bool harpd_failed_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t received_ = 0;
  int failures_logged_ = 0;
};

/// Connect until harpd listens (it binds the socket after start-up).
bool wait_for_socket(const std::string& socket, Harpd& harpd) {
  const double until = now_s() + 10.0;
  while (now_s() < until) {
    if (::access(socket.c_str(), F_OK) == 0) {
      harp::Result<std::unique_ptr<hi::Channel>> probe = hi::unix_connect(socket);
      if (probe.ok()) return true;
    }
    int status = 0;
    if (harpd.exited(&status)) return false;
    ::usleep(1000);
  }
  return false;
}

}  // namespace

void run_daemon_roundtrip(const Options& options, Output& out) {
  const std::string socket = options.run_dir + "/harpd.sock";
  const std::string log = options.run_dir + "/harpd.log";
  if (options.harpd.empty()) {
    out.check_failed("--harpd is required");
    out.attempted = 1;
    out.failed = 1;
    return;
  }

  // Set-up, several times: spawn harpd, connect the clients, settle their
  // first grants. All but the last instance are torn down again.
  std::vector<double> setup;
  std::unique_ptr<Harpd> harpd;
  std::unique_ptr<Loop> loop;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (loop != nullptr) loop->close_all();
    if (harpd != nullptr && !clean_exit(harpd->stop()))
      out.check_failed("harpd exited uncleanly after a set-up round");
    loop.reset();
    harpd.reset();
    ::unlink(socket.c_str());
    const double t0 = now_s();
    harpd = Harpd::spawn(options.harpd, socket, log);
    loop = std::make_unique<Loop>(options.seed, socket, out);
    if (harpd == nullptr || !wait_for_socket(socket, *harpd) || !loop->start_clients()) {
      out.check_failed("set-up failed: harpd did not start or grant the first clients");
      out.attempted = 1;
      out.failed = 1;
      return;  // ~Harpd kills and reaps the daemon
    }
    setup.push_back(now_s() - t0);
  }
  loop->set_harpd(harpd.get());

  auto record = [&](const Stats& s) {
    out.attempted += s.attempted;
    out.failed += s.failed;
  };

  if (!options.trace) {
    Stats stats;
    loop->run(options.seconds, stats, nullptr);
    loop->check_settled();
    record(stats);
    log_note("daemon_roundtrip: %" PRIu64 " round trips, %zu app starts, %" PRIu64
             " failed ops in %.2f s",
             stats.completed, stats.start_ms.size(), stats.failed, stats.elapsed_s);
    out.add("op_p50_ms", percentile(stats.rt_ms, 50.0), "ms");
    out.add("op_p95_ms", percentile(stats.rt_ms, 95.0), "ms");
    out.add("ops_per_s", static_cast<double>(stats.completed) / stats.elapsed_s, "1/s");
    out.add("setup_s", median(setup), "s");
  } else {
    // First half untraced (the overhead reference), second half traced.
    Stats plain, traced;
    SpanLog spans(true);
    loop->run(options.seconds / 2.0, plain, nullptr);
    loop->run(options.seconds / 2.0, traced, &spans);
    loop->check_settled();
    record(plain);
    record(traced);
    const Stats& t = traced;
    const double rt_sum = sum(t.busy_ms) + sum(t.wait_ms);  // completed round trips
    const double busy_sum = sum(t.busy_ms);
    const double wait_sum = sum(t.wait_ms);
    std::vector<double> starts = plain.start_ms;
    starts.insert(starts.end(), t.start_ms.begin(), t.start_ms.end());
    out.add("daemon.wait_ms", median(t.wait_ms), "ms");
    out.add("libharp.submit_us", median(t.submit_us), "us");
    out.add("libharp.poll_us", median(t.poll_us), "us");
    out.add("libharp.polls_per_rt",
            ratio(static_cast<double>(t.rt_polls), static_cast<double>(t.completed)), "ratio");
    out.add("libharp.start_ms", median(starts), "ms");
    out.add("failed_frac",
            ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)), "ratio");
    const double overhead = ratio(median(t.rt_ms), median(plain.rt_ms)) - 1.0;
    const double coverage = ratio(busy_sum + wait_sum, rt_sum);
    out.add("trace.overhead", overhead, "ratio");
    out.add("trace.coverage", coverage, "ratio");
    log_note("daemon_roundtrip: trace overhead %+.1f%% on the round-trip p50 (%.3f ms traced vs "
             "%.3f ms untraced; %zu and %zu round trips)",
             overhead * 100.0, median(t.rt_ms), median(plain.rt_ms), t.rt_ms.size(),
             plain.rt_ms.size());
    log_note("daemon_roundtrip: coverage %.1f%% of round-trip time: libharp busy %.2f%% + "
             "kernel/harpd wait %.2f%%",
             coverage * 100.0, ratio(busy_sum, rt_sum) * 100.0, ratio(wait_sum, rt_sum) * 100.0);
    if (!options.trace_out.empty() && !spans.write(options.trace_out))
      out.check_failed("cannot write " + options.trace_out);
  }

  loop->close_all();
  if (options.trace) {
    out.add("libharp.reconnects", static_cast<double>(loop->reconnects()), "count");
    out.add("libharp.dropped_sends", static_cast<double>(loop->dropped()), "count");
  }
  const bool already_failed = loop->harpd_failed();
  loop.reset();
  int status = harpd->stop();
  if (!already_failed && !clean_exit(status)) {
    ++out.failed;
    out.check_failed("harpd exited with status " + std::to_string(status));
  }
}

}  // namespace perfbench
