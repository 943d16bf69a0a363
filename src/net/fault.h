#ifndef MARS_NET_FAULT_H_
#define MARS_NET_FAULT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mars::net {

// Deterministic fault schedule for the mobile link (paper Sec. I / VII-A:
// a 256 Kbps, 200 ms wireless link whose quality collapses with motion).
// A Poisson window process models outages — tunnel blackouts and
// whole-cell failures during which no attempt can be delivered at all.
//
// The sampled Poisson outages are *uncorrelated with motion* — they model
// environmental failures, not handovers. Deterministic windows (a forced
// cell failure at a known time) are injected explicitly through
// InjectOutage().
//
// Windows are sampled lazily from a seeded Rng (exponential inter-arrival
// and duration), so the schedule is reproducible bit-for-bit, pure with
// respect to simulated time, and free when the rate is zero and no
// window was injected. All times are simulated seconds on the consumer's
// clock (SimulatedLink's cumulative time or SharedMediumLink's now()).
class FaultSchedule {
 public:
  struct Options {
    // Mean outage count per simulated hour; 0 disables outages.
    double outage_rate_per_hour = 0.0;
    // Mean outage duration in seconds (exponentially distributed).
    double outage_mean_seconds = 8.0;
    uint64_t seed = 1;
  };

  FaultSchedule();  // all-quiet default
  explicit FaultSchedule(Options options);

  // True when outages are sampled or a window was injected; an all-quiet
  // schedule costs nothing to consult.
  bool enabled() const { return enabled_ || !injected_.empty(); }

  // Injects a deterministic outage window [start, start + duration) — the
  // forced-cell-failure hook. Drives the same outage machinery as the
  // sampled windows (attempts fail, fluid links stall). Enables an
  // all-quiet schedule from the first injection; a schedule with no
  // injections stays zero-cost.
  void InjectOutage(double start, double duration);

  // Injected windows so far (observability / tests).
  int64_t injected_outages() const {
    return static_cast<int64_t>(injected_.size());
  }

  // True when `t` falls inside an outage window.
  bool InOutage(double t);

  // Seconds until the current outage window ends; 0 when not in outage.
  double OutageRemaining(double t);

  // The next time > `t` at which any window starts or ends. Lets fluid
  // link models advance in piecewise-constant steps without integrating
  // across a fault boundary.
  double NextBoundaryAfter(double t);

 private:
  struct Window {
    double start = 0.0;
    double end = 0.0;
  };

  // One Poisson window process, lazily extended and cached.
  class Track {
   public:
    Track(double rate_per_hour, double mean_seconds, uint64_t seed);

    bool active() const { return rate_per_hour_ > 0.0; }
    // The window covering `t`, or nullptr.
    const Window* Covering(double t);
    // Next window boundary strictly after `t` (infinity when inactive).
    double NextBoundaryAfter(double t);

   private:
    void EnsureCovered(double t);
    double SampleExp(double mean);

    double rate_per_hour_;
    double mean_seconds_;
    common::Rng rng_;
    std::vector<Window> windows_;
    // Windows are generated through this time.
    double horizon_ = 0.0;
  };

  // The injected window covering `t`, or nullptr.
  const Window* InjectedCovering(double t) const;

  bool enabled_;
  Track outages_;
  // Explicitly injected outage windows (forced cell failures), kept
  // sorted by start. Usually empty and always tiny, so linear scans are
  // fine.
  std::vector<Window> injected_;
};

}  // namespace mars::net

#endif  // MARS_NET_FAULT_H_
