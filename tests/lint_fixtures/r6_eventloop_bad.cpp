// Bad fixture for r6 shaped like the mistakes the event-loop dispatch and a
// per-worker cycle loop must avoid: readiness buffers and pollfd snapshots
// rebuilt from scratch every cycle, and tracer scope names formatted per
// worker per cycle.
// harp-lint: hot-path
#include <cstddef>
#include <string>
#include <vector>

struct Ready {
  int fd = 0;
  unsigned events = 0;
};

int wait_into(std::vector<Ready>& out);

void dispatch_cycle(const std::vector<int>& interest) {
  while (true) {
    std::vector<Ready> ready;  // expect: r6
    if (wait_into(ready) <= 0) break;
    for (std::size_t i = 0; i < interest.size(); ++i) {
      std::vector<int> snapshot(interest);  // expect: r6
      (void)snapshot;
    }
  }
}

void shard_cycle(int num_shards, int cycles) {
  for (int c = 0; c < cycles; ++c) {
    for (int i = 0; i < num_shards; ++i) {
      std::string scope = "shard" + std::to_string(i);  // expect: r6
      (void)scope;
    }
  }
}
