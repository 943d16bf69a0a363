#include "net/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mars::net {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

FaultSchedule::Track::Track(double rate_per_hour, double mean_seconds,
                            uint64_t seed)
    : rate_per_hour_(rate_per_hour),
      mean_seconds_(mean_seconds),
      rng_(seed) {
  MARS_CHECK_GE(rate_per_hour, 0.0);
  if (rate_per_hour > 0.0) {
    MARS_CHECK_GT(mean_seconds, 0.0);
  }
}

double FaultSchedule::Track::SampleExp(double mean) {
  // Inverse-CDF sampling; UniformDouble() < 1 keeps the log finite.
  return -mean * std::log(1.0 - rng_.UniformDouble());
}

void FaultSchedule::Track::EnsureCovered(double t) {
  if (!active()) return;
  const double gap_mean = 3600.0 / rate_per_hour_;
  while (horizon_ <= t) {
    Window w;
    w.start = horizon_ + SampleExp(gap_mean);
    w.end = w.start + SampleExp(mean_seconds_);
    windows_.push_back(w);
    horizon_ = w.end;
  }
}

const FaultSchedule::Window* FaultSchedule::Track::Covering(double t) {
  if (!active() || t < 0.0) return nullptr;
  EnsureCovered(t);
  // First window whose end is past t; covers t iff it has started.
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](double value, const Window& w) { return value < w.end; });
  if (it == windows_.end() || it->start > t) return nullptr;
  return &*it;
}

double FaultSchedule::Track::NextBoundaryAfter(double t) {
  if (!active()) return kInfinity;
  EnsureCovered(t);
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](double value, const Window& w) { return value < w.end; });
  // The end() case is unreachable after EnsureCovered.
  if (it == windows_.end()) return kInfinity;
  return it->start > t ? it->start : it->end;
}

FaultSchedule::FaultSchedule() : FaultSchedule(Options()) {}

FaultSchedule::FaultSchedule(Options options)
    : enabled_(options.outage_rate_per_hour > 0.0),
      outages_(options.outage_rate_per_hour, options.outage_mean_seconds,
               options.seed * 2654435761u + 1) {}

void FaultSchedule::InjectOutage(double start, double duration) {
  MARS_CHECK_GE(start, 0.0);
  MARS_CHECK_GT(duration, 0.0);
  Window w;
  w.start = start;
  w.end = start + duration;
  // Injections arrive in nondecreasing simulated time in practice; the
  // insertion sort keeps the vector ordered even if they do not.
  auto it = std::upper_bound(injected_.begin(), injected_.end(), w,
                             [](const Window& a, const Window& b) {
                               return a.start < b.start;
                             });
  injected_.insert(it, w);
}

const FaultSchedule::Window* FaultSchedule::InjectedCovering(
    double t) const {
  // Windows may overlap (two forced failures of one cell); report the one
  // reaching furthest so OutageRemaining covers the union.
  const Window* best = nullptr;
  for (const Window& w : injected_) {
    if (w.start > t) break;
    if (t < w.end && (best == nullptr || w.end > best->end)) best = &w;
  }
  return best;
}

bool FaultSchedule::InOutage(double t) {
  if (outages_.active() && outages_.Covering(t) != nullptr) return true;
  return InjectedCovering(t) != nullptr;
}

double FaultSchedule::OutageRemaining(double t) {
  double remaining = 0.0;
  if (outages_.active()) {
    const Window* w = outages_.Covering(t);
    if (w != nullptr) remaining = w->end - t;
  }
  const Window* inj = InjectedCovering(t);
  if (inj != nullptr) remaining = std::max(remaining, inj->end - t);
  return remaining;
}

double FaultSchedule::NextBoundaryAfter(double t) {
  double next = outages_.NextBoundaryAfter(t);
  for (const Window& w : injected_) {
    if (w.start > t) {
      next = std::min(next, w.start);
      break;  // sorted by start; later windows cannot be nearer
    }
    if (w.end > t) next = std::min(next, w.end);
  }
  return next;
}

}  // namespace mars::net
