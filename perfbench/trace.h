#ifndef MARS_PERFBENCH_TRACE_H_
#define MARS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Wall-clock seconds on the monotonic clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder for the traced run. Only the benchmark's own
// thread opens spans, around the public calls it makes into each layer, so
// spans nest strictly: a span's parent is the span that was open when it
// started. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  // Per span name, over the whole run.
  struct CallStats {
    std::string name;
    int64_t calls = 0;
    double busy_s = 0.0;  // union of the name's spans (nested repeats once)
    double self_s = 0.0;  // busy minus the child spans it covers
    double p50_us = 0.0;  // per-call duration percentiles
    double p99_us = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span and returns its token for Close (-1 when disabled).
  int32_t Open(const char* name, int64_t id = -1);
  void Close(int32_t token);

  // One row per span name, sorted by name.
  std::vector<CallStats> Summarize() const;

  // Writes the spans as Chrome trace-event JSON ("X" complete events on
  // one thread), which chrome://tracing and ui.perfetto.dev open as is.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;  // "<layer>.<call>"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // the enclosing span's index, -1 at top level
    int64_t id = -1;      // frame or tick id, -1 when none
  };

  int64_t NowNs() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id = -1)
      : tracer_(tracer), token_(tracer->Open(name, id)) {}
  ~ScopedSpan() { tracer_->Close(token_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t token_;
};

// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double q);

}  // namespace perfbench

#endif  // MARS_PERFBENCH_TRACE_H_
