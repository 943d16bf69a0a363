#include "net/link.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace mars::net {

SimulatedLink::SimulatedLink() : SimulatedLink(Options()) {}

SimulatedLink::SimulatedLink(Options options)
    : options_(options), rng_(options.loss_seed) {
  MARS_CHECK_GE(options.loss_probability, 0.0);
  MARS_CHECK_LT(options.loss_probability, 0.5);
}

void SimulatedLink::Wait(double seconds) {
  MARS_CHECK_GE(seconds, 0.0);
  total_seconds_ += seconds;
}

double SimulatedLink::UsableBandwidth(double speed) const {
  const double s = std::clamp(speed, 0.0, 1.0);
  return common::KbpsToBytesPerSecond(kLinkBandwidthKbps) *
         (1.0 - kMotionDegradation * s);
}

double SimulatedLink::ExchangeSeconds(int64_t request_bytes,
                                      int64_t response_bytes,
                                      double speed) const {
  MARS_CHECK_GE(request_bytes, 0);
  MARS_CHECK_GE(response_bytes, 0);
  const double bw = UsableBandwidth(speed);
  return kLinkLatencySeconds +
         static_cast<double>(request_bytes + response_bytes) / bw;
}

SimulatedLink::AttemptOutcome SimulatedLink::Attempt(int64_t request_bytes,
                                                     int64_t response_bytes,
                                                     double speed) {
  AttemptOutcome outcome;

  // An attempt inside an outage window fails fast: the connection setup
  // never completes, costing one latency.
  if (fault_ != nullptr && fault_->enabled() &&
      fault_->InOutage(total_seconds_)) {
    outcome.delivered = false;
    outcome.seconds = kLinkLatencySeconds;
    outcome.fraction_received = 0.0;
    ++total_retries_;
    total_seconds_ += outcome.seconds;
    return outcome;
  }

  const double seconds =
      ExchangeSeconds(request_bytes, response_bytes, speed);
  double p = 0.0;
  if (options_.loss_probability > 0.0) {
    p = std::min(0.95, options_.loss_probability *
                           (1.0 + std::clamp(speed, 0.0, 1.0)));
  }

  if (p > 0.0 && rng_.Bernoulli(p)) {
    // Lost: pay the latency plus a random fraction of the transfer before
    // noticing. The delivered fraction is not re-sent by resuming callers.
    const double fraction = rng_.UniformDouble();
    const double transfer = seconds - kLinkLatencySeconds;
    outcome.delivered = false;
    outcome.seconds = kLinkLatencySeconds + fraction * transfer;
    outcome.fraction_received = fraction;
    ++total_retries_;
  } else {
    outcome.delivered = true;
    outcome.seconds = seconds;
    outcome.fraction_received = 1.0;
    ++total_requests_;
    total_bytes_up_ += request_bytes;
    total_bytes_down_ += response_bytes;
  }
  total_seconds_ += outcome.seconds;
  return outcome;
}

double SimulatedLink::Exchange(int64_t request_bytes, int64_t response_bytes,
                               double speed) {
  // Fast path: no loss process and no fault schedule — pure arithmetic,
  // no RNG consumption, bit-identical to the pre-fault-layer link.
  if (options_.loss_probability <= 0.0 &&
      (fault_ == nullptr || !fault_->enabled())) {
    const double seconds =
        ExchangeSeconds(request_bytes, response_bytes, speed);
    ++total_requests_;
    total_bytes_up_ += request_bytes;
    total_bytes_down_ += response_bytes;
    total_seconds_ += seconds;
    return seconds;
  }

  double seconds = 0.0;
  int32_t lost_attempts = 0;
  while (true) {
    const AttemptOutcome outcome =
        Attempt(request_bytes, response_bytes, speed);
    seconds += outcome.seconds;
    if (outcome.delivered) return seconds;
    if (++lost_attempts >= kMaxRetriesPerExchange) break;
  }

  // Retry cap hit: count a timeout and force the exchange through — wait
  // out any remaining outage, then deliver. Legacy callers treat the link
  // as eventually reliable; ReliableChannel callers never reach this (their
  // attempt budget is far below the cap).
  ++total_timeouts_;
  if (fault_ != nullptr && fault_->enabled()) {
    const double wait = fault_->OutageRemaining(total_seconds_);
    seconds += wait;
    total_seconds_ += wait;
  }
  const double final_seconds =
      ExchangeSeconds(request_bytes, response_bytes, speed);
  seconds += final_seconds;
  ++total_requests_;
  total_bytes_up_ += request_bytes;
  total_bytes_down_ += response_bytes;
  total_seconds_ += final_seconds;
  return seconds;
}

void SimulatedLink::ResetStats() {
  total_requests_ = 0;
  total_bytes_down_ = 0;
  total_bytes_up_ = 0;
  total_retries_ = 0;
  total_timeouts_ = 0;
  total_seconds_ = 0.0;
}

}  // namespace mars::net

