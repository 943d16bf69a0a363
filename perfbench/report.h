#ifndef MARS_PERFBENCH_REPORT_H_
#define MARS_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// q-quantile of the histogram, interpolated linearly inside the bucket
// that holds it (LatencyHistogram::Quantile returns the bucket's upper
// edge, which would report the same value for every run landing in one
// bucket). 0 when empty.
double InterpolatedQuantile(const mars::core::LatencyHistogram& histogram,
                            double q);

// Median of `values` (mean of the middle two when even); 0 when empty.
double Median(std::vector<double> values);

// One "name  value unit" line per metric.
void PrintMetrics(const char* title, const std::vector<Metric>& metrics);

// The result line: one JSON object, the last line the run prints.
void PrintResultLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // MARS_PERFBENCH_REPORT_H_
