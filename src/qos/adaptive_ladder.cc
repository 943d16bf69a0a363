#include "qos/adaptive_ladder.h"

#include <algorithm>

#include "common/logging.h"

namespace mars::qos {
namespace {

// Rung 0: the paper's static mapping.
constexpr SpeedResolutionMap kRungZero;

}  // namespace

AdaptiveLadderPolicy::AdaptiveLadderPolicy(const Options& options)
    : options_(options) {
  MARS_CHECK(options_.ladder_steps >= 1);
}

double AdaptiveLadderPolicy::MapSpeedToResolution(double speed) const {
  const double base = kRungZero.MapSpeedToResolution(speed);
  const double w =
      step_ == 0
          ? base
          : std::clamp(base + (1.0 - base) * static_cast<double>(step_) /
                                  static_cast<double>(options_.ladder_steps),
                       0.0, 1.0);
  ++map_calls_;
  resolution_sum_ += w;
  return w;
}

void AdaptiveLadderPolicy::StepUp(int64_t vtime_micros) {
  if (last_change_was_descent_) {
    // The previous move was a downward probe and it failed: back off
    // probing exponentially.
    probe_backoff_ = std::min(probe_backoff_ * 2, 64);
    last_change_was_descent_ = false;
  }
  if (step_ >= options_.ladder_steps) return;
  ++step_;
  ++step_ups_;
  last_change_micros_ = vtime_micros;
}

void AdaptiveLadderPolicy::OnDelivered(int64_t bytes, int64_t vtime_micros) {
  if (last_delivery_micros_ >= 0 && vtime_micros > last_delivery_micros_) {
    const double dt =
        static_cast<double>(vtime_micros - last_delivery_micros_) * 1e-6;
    const double inst = static_cast<double>(bytes) / dt;
    goodput_ewma_bps_ =
        goodput_ewma_bps_ < 0.0
            ? inst
            : (1.0 - kEwmaAlpha) * goodput_ewma_bps_ + kEwmaAlpha * inst;
  }
  last_delivery_micros_ = vtime_micros;

  const bool dwelled = last_change_micros_ < 0 ||
                       vtime_micros - last_change_micros_ >= kDwellMicros;
  if (!dwelled || goodput_ewma_bps_ < 0.0) return;

  if (step_ == 0 &&
      goodput_ewma_bps_ < 0.5 * options_.target_goodput_bps) {
    // Starving at full detail without an explicit verdict (WFQ stretches
    // latencies without ever deferring): climb anyway. The rule only
    // applies at rung 0 — a coarse rung's goodput is structurally low
    // because it requests little, and judging it against a full-band
    // target would ratchet the client to the top rung (requesting
    // nothing) with no way back down.
    StepUp(vtime_micros);
    return;
  }
  const bool backpressure_cleared =
      last_backpressure_micros_ < 0 ||
      vtime_micros - last_backpressure_micros_ >= kDwellMicros;
  const bool probe_dwelled =
      last_change_micros_ < 0 ||
      vtime_micros - last_change_micros_ >=
          kDwellMicros * static_cast<int64_t>(probe_backoff_);
  if (step_ > 0 && backpressure_cleared && probe_dwelled) {
    // No congestion signal for a full dwell: probe one rung down. The
    // lowered w_min makes the client's next plan a resolution increment
    // over what it already holds — the top-up path of Algorithm 1. If
    // the lower rung overloads the cell again, the resulting deferral
    // climbs right back (and doubles the probe backoff): the ladder
    // settles within one rung of the widest band the cell can actually
    // carry instead of oscillating every dwell.
    if (last_change_was_descent_) probe_backoff_ = 1;  // last probe held
    --step_;
    ++top_ups_;
    last_change_micros_ = vtime_micros;
    last_change_was_descent_ = true;
  }
}

void AdaptiveLadderPolicy::OnBackpressure(BackpressureKind kind,
                                          int64_t vtime_micros) {
  last_backpressure_micros_ = vtime_micros;
  const bool dwelled = last_change_micros_ < 0 ||
                       vtime_micros - last_change_micros_ >= kDwellMicros;
  if (kind == BackpressureKind::kShed || dwelled) {
    StepUp(vtime_micros);
  }
}

PolicySnapshot AdaptiveLadderPolicy::snapshot() const {
  PolicySnapshot snap;
  snap.ladder_step = step_;
  snap.goodput_ewma_bps = goodput_ewma_bps_ < 0.0 ? 0.0 : goodput_ewma_bps_;
  snap.step_ups = step_ups_;
  snap.top_ups = top_ups_;
  snap.map_calls = map_calls_;
  snap.resolution_sum = resolution_sum_;
  return snap;
}

}  // namespace mars::qos
