// Shared plumbing of the HARP benchmark binary: timing, percentiles, the
// in-memory span log of the traced run, and the result every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample; 0
/// for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }
double sum(const std::vector<double>& values);
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Command-line options shared by all workloads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string harpd;      ///< harpd binary (daemon_roundtrip)
  std::string run_dir;    ///< private scratch directory for this run (socket, logs)
  std::string trace_out;  ///< span file written at the end of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics in
/// an untraced run and the per-layer metrics in a traced run.
struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// A failed output check: the run's result is marked incorrect and the
  /// reason goes to stderr.
  void check_failed(const std::string& what);
};

/// One traced interval. Names are string literals; `parent` indexes the
/// enclosing span in the same log (-1 = root) and `op` ties together the
/// spans of one request.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// Spans kept in memory while a traced run measures and written out once it
/// ends. Disabled logs record nothing, so untraced runs pay one branch per
/// call site. Past `capacity` spans are dropped (bounded memory).
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::size_t capacity = 2'000'000)
      : enabled_(enabled), capacity_(capacity) {}

  /// Record a finished span; returns its index (-1 when not stored).
  std::int64_t add(const char* name, double start, double end, std::int64_t parent,
                   std::uint64_t op) {
    if (!enabled_ || spans_.size() >= capacity_) return -1;
    spans_.push_back(Span{name, start, end, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Open a span whose end is filled in later by close().
  std::int64_t open(const char* name, double start, std::int64_t parent, std::uint64_t op) {
    return add(name, start, start, parent, op);
  }
  void close(std::int64_t index, double end) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = end;
  }

  /// Write one JSON object per line; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
};

void log_note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workloads (one file each).
void run_daemon_roundtrip(const Options& options, Output& out);
void run_rm_catalog_walk(const Options& options, Output& out);
void run_sim_learning(const Options& options, Output& out);

}  // namespace perfbench
