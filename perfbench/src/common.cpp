#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "perfbench/src/common.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

void Output::check_failed(const std::string& what) {
  if (correct) log_note("output check failed: %s", what.c_str());
  correct = false;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%lld,"
                 "\"op\":%llu}\n",
                 i, s.name, s.start, s.end, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

void log_note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace perfbench
