// Good fixture for r6 shaped like the event-loop dispatch hot path
// (src/ipc/event_loop.cpp) and a per-worker cycle loop: the readiness
// buffer is a caller-owned out-parameter, pollfd snapshots are rebuilt only
// into hoisted members, and tracer scope names are precomputed — no loop
// constructs a vector or string.
// harp-lint: hot-path
#include <cstddef>
#include <string>
#include <vector>

struct Ready {
  int fd = 0;
  unsigned events = 0;
};

struct Loop {
  std::vector<Ready> scratch;          // hoisted readiness buffer
  std::vector<int> snapshot;           // hoisted pollfd-style snapshot
  std::vector<std::string> scopes;     // precomputed tracer scope names

  int wait(const std::vector<int>& interest, std::vector<Ready>& out) {
    out.clear();
    if (snapshot.size() != interest.size()) {
      snapshot.clear();
      for (int fd : interest) {
        snapshot.push_back(fd);
      }
    }
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      out.push_back(Ready{snapshot[i], 1u});
    }
    return static_cast<int>(out.size());
  }

  void dispatch_cycle(const std::vector<int>& interest) {
    while (wait(interest, scratch) > 0) {
      for (const Ready& event : scratch) {
        const std::string& scope = scopes[static_cast<std::size_t>(event.fd)];
        (void)scope;
      }
      break;
    }
  }
};
