#include "net/reliable_channel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mars::net {

ReliableChannel::ReliableChannel(SimulatedLink* link, Options options)
    : link_(link), rng_(options.seed) {
  MARS_CHECK(link != nullptr);
}

void ReliableChannel::Defer(double seconds) {
  MARS_CHECK_GE(seconds, 0.0);
  pending_defer_seconds_ += seconds;
}

ReliableChannel::Result ReliableChannel::Exchange(int64_t request_bytes,
                                                  int64_t response_bytes,
                                                  double speed) {
  Result result;
  ++total_exchanges_;

  // Honor accumulated admission backpressure before the first attempt:
  // the wait advances the link clock (so fault windows progress) and
  // counts toward the exchange's wall time, but not its deadline — the
  // deferral was the server's choice, not lost connectivity.
  if (pending_defer_seconds_ > 0.0) {
    link_->Wait(pending_defer_seconds_);
    result.seconds += pending_defer_seconds_;
    total_deferred_seconds_ += pending_defer_seconds_;
    ++total_deferrals_;
    pending_defer_seconds_ = 0.0;
  }

  // Deadline budget starts after any deferral wait.
  const double deadline_at = result.seconds + kDeadlineSeconds;
  int64_t remaining_response = response_bytes;
  double backoff = kBaseBackoffSeconds;

  while (result.attempts < kMaxAttempts) {
    ++result.attempts;
    const SimulatedLink::AttemptOutcome outcome =
        link_->Attempt(request_bytes, remaining_response, speed);
    result.seconds += outcome.seconds;
    if (outcome.delivered) {
      result.status = common::OkStatus();
      return result;
    }

    ++result.retries;
    ++total_retries_;

    // Partial-transfer resume: bytes that arrived before the drop stay
    // delivered; only the remainder of the response is re-sent. Request
    // headers are small and always re-sent.
    const int64_t saved = static_cast<int64_t>(
        std::floor(static_cast<double>(remaining_response) *
                   outcome.fraction_received));
    remaining_response -= saved;
    result.bytes_saved_by_resume += saved;
    total_bytes_saved_ += saved;

    if (result.seconds >= deadline_at) {
      result.status = common::InternalError(
          "reliable exchange missed its deadline (lost connectivity)");
      ++total_failures_;
      return result;
    }
    if (result.attempts >= kMaxAttempts) break;

    // Exponential backoff with deterministic jitter before the retry.
    double wait = std::min(backoff, kMaxBackoffSeconds);
    wait *= 1.0 + kJitterFraction * rng_.UniformDouble();
    backoff *= kBackoffMultiplier;
    link_->Wait(wait);
    result.seconds += wait;
    total_backoff_seconds_ += wait;
    if (result.seconds >= deadline_at) {
      result.status = common::InternalError(
          "reliable exchange missed its deadline (lost connectivity)");
      ++total_failures_;
      return result;
    }
  }

  result.status = common::ResourceExhaustedError(
      "reliable exchange exhausted its retry budget");
  ++total_failures_;
  return result;
}

void ReliableChannel::ResetStats() {
  total_exchanges_ = 0;
  total_retries_ = 0;
  total_failures_ = 0;
  total_bytes_saved_ = 0;
  total_deferrals_ = 0;
  total_backoff_seconds_ = 0.0;
  total_deferred_seconds_ = 0.0;
}

}  // namespace mars::net
