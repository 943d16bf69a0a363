#ifndef MARS_QOS_ADAPTIVE_LADDER_H_
#define MARS_QOS_ADAPTIVE_LADDER_H_

#include <cstdint>

#include "qos/resolution_policy.h"

namespace mars::qos {

// Per-client adaptive resolution ladder — the bitrate-ladder adaptation of
// HTTP adaptive streaming with wavelet w_min as the quality axis. The
// ladder has `ladder_steps` + 1 rungs: rung 0 is the paper's static
// mapping (full detail for the current speed), rung N compresses the
// request band all the way to the coarsest coefficients. Under congestion
// (admission backpressure, or measured goodput collapsing below target)
// the client climbs a rung — fetch coarse now; when the cell clears it
// steps back down, and Algorithm 1's resolution-increment path tops the
// detail back up from whatever band is already held.
//
// Everything is driven by integer-microsecond virtual timestamps supplied
// by the fleet's serial phases, so ladder trajectories are deterministic
// and byte-identical at any worker count.
class AdaptiveLadderPolicy final : public ResolutionPolicy {
 public:
  // Minimum virtual time between ladder moves. Deferred-verdict climbs and
  // all descents respect it; a shed climbs immediately (the cell is past
  // overload, waiting is wrong).
  static constexpr int64_t kDwellMicros = 2'000'000;
  // EWMA smoothing for the instantaneous delivery rate.
  static constexpr double kEwmaAlpha = 0.3;

  struct Options {
    // Rungs above the static mapping. Rung k maps
    // w = base + (1 - base) * k / ladder_steps.
    int32_t ladder_steps = 4;
    // Goodput considered healthy at rung 0, bytes/second. Below half of
    // it the ladder climbs off rung 0 even without an admission verdict
    // (starvation under WFQ stretches latencies without ever deferring).
    // Higher rungs ignore it — their goodput is structurally low because
    // they request little — and instead probe one rung down whenever no
    // backpressure has been seen for a dwell.
    double target_goodput_bps = 16.0 * 1024.0;
  };

  AdaptiveLadderPolicy() : AdaptiveLadderPolicy(Options{}) {}
  explicit AdaptiveLadderPolicy(const Options& options);

  double MapSpeedToResolution(double speed) const override;
  void OnDelivered(int64_t bytes, int64_t vtime_micros) override;
  void OnBackpressure(BackpressureKind kind, int64_t vtime_micros) override;
  PolicySnapshot snapshot() const override;

  int32_t ladder_step() const { return step_; }

 private:
  void StepUp(int64_t vtime_micros);

  Options options_;
  int32_t step_ = 0;
  double goodput_ewma_bps_ = -1.0;  // < 0: no sample yet
  int64_t last_delivery_micros_ = -1;
  int64_t last_change_micros_ = -1;
  int64_t last_backpressure_micros_ = -1;
  // Exponential probe backoff: a descent is a probe of the wider band
  // one rung down. A probe that fails (the next move is a climb) doubles
  // the dwell required before the next probe; a probe that holds resets
  // it. Without this the ladder re-probes every dwell, and each failed
  // probe ships one oversized exchange that clogs the client's queue.
  bool last_change_was_descent_ = false;
  int32_t probe_backoff_ = 1;
  int64_t step_ups_ = 0;
  int64_t top_ups_ = 0;
  // Request trace (PolicySnapshot::map_calls / resolution_sum). Mutable:
  // MapSpeedToResolution is const by contract, and each policy instance
  // belongs to exactly one client's step, so there is no concurrency.
  mutable int64_t map_calls_ = 0;
  mutable double resolution_sum_ = 0.0;
};

}  // namespace mars::qos

#endif  // MARS_QOS_ADAPTIVE_LADDER_H_
