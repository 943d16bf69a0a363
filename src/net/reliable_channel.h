#ifndef MARS_NET_RELIABLE_CHANNEL_H_
#define MARS_NET_RELIABLE_CHANNEL_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "net/link.h"

namespace mars::net {

// Transport wrapper between client and server that turns the raw lossy
// link into a bounded-effort reliable exchange:
//
//   * a bounded retry budget (max_attempts) instead of the raw link's
//     retry-forever loop,
//   * exponential backoff with deterministic jitter between attempts,
//   * a per-exchange deadline in simulated seconds,
//   * partial-transfer resume: the fraction of the response delivered
//     before a drop is not re-sent on the next attempt (the request
//     headers are always re-sent).
//
// A failed exchange reports a non-OK common::Status (kResourceExhausted
// when the retry budget is spent, kInternal when the deadline passes)
// instead of blocking; the caller rolls back any tentative server-side
// session state and degrades gracefully.
//
// With a lossless link and no fault schedule the wrapper is pay-for-what-
// you-use: one attempt, no RNG consumption, and a cost identical to
// SimulatedLink::Exchange.
class ReliableChannel {
 public:
  struct Options {
    // Total delivery attempts per exchange (first try + retries).
    int32_t max_attempts = 6;
    // Backoff before retry k (1-based) is
    //   min(base * multiplier^(k-1), max) * (1 + jitter * U)
    // with U uniform in [0, 1) from the channel's own seeded Rng.
    double base_backoff_seconds = 0.1;
    double backoff_multiplier = 2.0;
    double max_backoff_seconds = 2.0;
    double jitter_fraction = 0.5;
    // Budget of simulated seconds per exchange; checked between attempts.
    double deadline_seconds = 30.0;
    uint64_t seed = 2024;
  };

  struct Result {
    common::Status status;
    // Total simulated time spent: attempts plus backoff.
    double seconds = 0.0;
    int32_t attempts = 0;
    // Lost attempts within this exchange.
    int32_t retries = 0;
    // True when the exchange failed (budget or deadline).
    bool failed() const { return !status.ok(); }
    // Response bytes NOT re-sent thanks to partial-transfer resume.
    int64_t bytes_saved_by_resume = 0;
  };

  // `link` must outlive the channel; the fault schedule (if any) is
  // attached to the link itself.
  ReliableChannel(SimulatedLink* link, Options options);

  // Runs one request/response exchange through the retry policy.
  Result Exchange(int64_t request_bytes, int64_t response_bytes,
                  double speed);

  // Server-driven backpressure: the cell's admission controller deferred
  // this client's last submission, so the next exchange holds off for
  // `seconds` before its first attempt — an explicit, bounded wait
  // instead of burning the retry budget (and eventually timing out)
  // against an overloaded cell. Repeated deferrals accumulate.
  void Defer(double seconds);
  // Deferral waits consumed by exchanges so far.
  int64_t total_deferrals() const { return total_deferrals_; }
  double total_deferred_seconds() const { return total_deferred_seconds_; }

  int64_t total_exchanges() const { return total_exchanges_; }
  int64_t total_retries() const { return total_retries_; }
  // Exchanges that failed (budget exhausted or deadline exceeded).
  int64_t total_failures() const { return total_failures_; }
  int64_t total_bytes_saved() const { return total_bytes_saved_; }
  double total_backoff_seconds() const { return total_backoff_seconds_; }
  void ResetStats();

 private:
  Options options_;
  SimulatedLink* link_;
  common::Rng rng_;

  // Accumulated backpressure to honor before the next exchange's first
  // attempt.
  double pending_defer_seconds_ = 0.0;

  int64_t total_exchanges_ = 0;
  int64_t total_retries_ = 0;
  int64_t total_failures_ = 0;
  int64_t total_bytes_saved_ = 0;
  int64_t total_deferrals_ = 0;
  double total_backoff_seconds_ = 0.0;
  double total_deferred_seconds_ = 0.0;
};

}  // namespace mars::net

#endif  // MARS_NET_RELIABLE_CHANNEL_H_
