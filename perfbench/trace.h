// In-memory spans and the order statistics the benchmark reports.
//
// Each thread that records spans owns one SpanLog, so recording takes no
// lock. A span names the public call it timed, carries the id of the
// request it served, and points at its parent span in the same log. Logs
// are merged and written when the run ends; nothing is written while the
// clock is running.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The q-quantile (0 <= q <= 1) of `values`, linearly interpolated between
// order statistics; 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;  // Index of the parent span in the same log.
  int64_t start = 0;
  int64_t end = 0;
};

class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  int64_t Open(const char* name, uint64_t request,
               int64_t parent = kNoParent) {
    spans_.push_back({name, request, parent, NowNanos(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t span) {
    spans_[static_cast<size_t>(span)].end = NowNanos();
  }

  // Records a span that was timed elsewhere.
  void Add(const char* name, uint64_t request, int64_t start, int64_t end,
           int64_t parent = kNoParent) {
    spans_.push_back({name, request, parent, start, end});
  }

  // Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto Time(const char* name, uint64_t request, int64_t parent, Fn&& fn) {
    const int64_t span = Open(name, request, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(span);
    } else {
      auto result = fn();
      Close(span);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
