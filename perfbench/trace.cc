#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Open(const char* name, int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  spans_.push_back(std::move(span));
  const int32_t token = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(token);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().start_ns = NowNs();
  return token;
}

void Tracer::Close(int32_t token) {
  if (token < 0) return;
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(token)].end_ns = now;
  // Spans close in LIFO order (ScopedSpan), so the token is on top.
  if (!open_.empty() && open_.back() == token) open_.pop_back();
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return (*values)[std::min(rank, values->size()) - 1];
}

std::vector<Tracer::CallStats> Tracer::Summarize() const {
  // Time covered by each span's direct children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, CallStats> by_name;
  std::map<std::string, std::vector<double>> durations;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    CallStats& stats = by_name[s.name];
    stats.name = s.name;
    ++stats.calls;
    stats.self_s += (dur - child_ns[i]) / 1e9;
    // Busy time counts a span only when no ancestor has the same name, so
    // a recursive or repeated nesting is not counted twice.
    bool nested = false;
    for (int32_t p = s.parent; p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      if (spans_[static_cast<size_t>(p)].name == s.name) {
        nested = true;
        break;
      }
    }
    if (!nested) stats.busy_s += dur / 1e9;
    durations[s.name].push_back(dur / 1e3);
  }
  std::vector<CallStats> out;
  for (auto& [name, stats] : by_name) {
    stats.p50_us = Percentile(&durations[name], 0.50);
    stats.p99_us = Percentile(&durations[name], 0.99);
    out.push_back(stats);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), layer.c_str(),
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
