// Good fixture for r6 shaped like a blocked group scan and the incremental λ
// iteration (src/harp/allocator.cpp is hot-path annotated): kernels are raw
// function pointers over caller-owned workspace buffers, per-lane
// relaxed/pick scratch is hoisted into the workspace and sized once, and no λ
// iteration or scanned block constructs a vector or string.
// harp-lint: hot-path
#include <cstddef>
#include <vector>

struct ScanWorkspace {
  std::vector<double> relaxed;        // lanes x max_candidates, sized in bind()
  std::vector<std::size_t> picks;     // per-group argmin, sized in bind()
  std::vector<double> lambda;         // per-type multipliers, sized in bind()
};

void scan_block(const double* rows, std::size_t begin, std::size_t end, double* relaxed);

void scan_kernel(void* ctx, std::size_t begin, std::size_t end, int lane) {
  ScanWorkspace& ws = *static_cast<ScanWorkspace*>(ctx);
  double* relaxed = ws.relaxed.data() + static_cast<std::size_t>(lane) * 64;
  for (std::size_t b = begin; b < end; b += 64) {
    scan_block(nullptr, b, b + 64, relaxed);
  }
}

void lambda_iterations(ScanWorkspace& ws, const double* rows, std::size_t num_groups,
                       int iterations) {
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      scan_block(rows, g, g + 1, ws.relaxed.data());
      ws.picks[g] = g;
    }
  }
}
