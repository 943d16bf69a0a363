#include "report.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double InterpolatedQuantile(const mars::core::LatencyHistogram& histogram,
                            double q) {
  using Histogram = mars::core::LatencyHistogram;
  if (histogram.total == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * histogram.total;
  double seen = 0.0;
  double lower = 0.0;
  double upper = Histogram::kMinSeconds;  // bucket 0 is [0, kMinSeconds)
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const double count = static_cast<double>(histogram.counts[i]);
    if (count > 0.0 && seen + count >= rank) {
      return lower + (upper - lower) * (rank - seen) / count;
    }
    seen += count;
    lower = upper;
    upper *= Histogram::kGrowth;
  }
  return lower;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
