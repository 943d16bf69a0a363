#ifndef MARS_NET_LINK_H_
#define MARS_NET_LINK_H_

#include <cstdint>

#include "common/rng.h"
#include "net/fault.h"

namespace mars::net {

// The paper's link (Sec. VII-A): 256 Kbps bandwidth, 200 ms latency.
inline constexpr double kLinkBandwidthKbps = 256.0;
inline constexpr double kLinkLatencySeconds = 0.2;
// The usable bandwidth of a *moving* client degrades with speed ("the
// usable bandwidth of a connection ... drops to a fraction of the
// bandwidth that is available for clients at rest", Sec. I, after the
// Ofcom measurements): at normalized speed s a link delivers
//   bandwidth * (1 − kMotionDegradation * s),
// so a client at full speed keeps half of its stationary bandwidth. The
// shared cell (net/shared_link.h) degrades by the same factor.
inline constexpr double kMotionDegradation = 0.5;

// Deterministic model of the client-server wireless link at the paper's
// parameters above.
class SimulatedLink {
 public:
  // Cap on lost-attempt retries within one Exchange(). When the cap is
  // hit the exchange is counted as a timeout and forced through (any
  // remaining outage is waited out first), so the benign retry path can
  // no longer spin unboundedly. ReliableChannel enforces its own, tighter
  // budget on top of single attempts.
  static constexpr int32_t kMaxRetriesPerExchange = 64;

  struct Options {
    // Probability that an exchange attempt is lost mid-flight (mobile
    // links drop in tunnels, at cell handovers, ...). A lost attempt
    // costs its connection latency plus a uniformly random fraction of
    // the transfer time, then the client retries. 0 disables loss.
    // Additionally, loss at speed s is scaled by (1 + s): fast clients
    // drop more.
    double loss_probability = 0.0;
    // Seed for the loss process (deterministic runs).
    uint64_t loss_seed = 1;
  };

  // Outcome of a single delivery attempt.
  struct AttemptOutcome {
    // True when the attempt got through; false when it was lost (loss
    // draw or outage window).
    bool delivered = false;
    // Simulated cost of the attempt: the full exchange time when
    // delivered; connection latency plus the partial transfer (or a fast
    // failure during an outage) when lost.
    double seconds = 0.0;
    // Fraction of the payload that arrived before the drop, in [0, 1].
    // 1 when delivered. Callers implementing partial-transfer resume can
    // subtract this from the bytes they re-send.
    double fraction_received = 0.0;
  };

  SimulatedLink();  // default options
  explicit SimulatedLink(Options options);

  // Attaches an outage schedule consulted at the link's cumulative
  // simulated time. Pass nullptr to
  // detach. The schedule must outlive the link; it is shared mutable
  // state (lazy window generation), not owned.
  void AttachFaultSchedule(FaultSchedule* schedule) { fault_ = schedule; }

  // The link's cumulative simulated time: every attempt and exchange
  // advances it, and the fault schedule is evaluated against it.
  double now() const { return total_seconds_; }

  // Advances the clock without transferring anything (retry backoff,
  // client think time). Lets the fault schedule progress between
  // attempts.
  void Wait(double seconds);

  // Usable bandwidth in bytes/second at normalized speed `speed` ∈ [0, 1].
  double UsableBandwidth(double speed) const;

  // Performs ONE delivery attempt of `request_bytes` up and
  // `response_bytes` down at normalized speed `speed`, advancing the
  // clock and counters. Used by ReliableChannel, which owns the retry
  // policy; plain Exchange() wraps this in the legacy retry loop.
  AttemptOutcome Attempt(int64_t request_bytes, int64_t response_bytes,
                         double speed);

  // Time to complete one request/response exchange carrying
  // `request_bytes` up and `response_bytes` down at normalized speed
  // `speed`: one connection latency plus the transfer time of both
  // payloads, plus retry time under loss (bounded by
  // kMaxRetriesPerExchange). Updates the cumulative counters.
  double Exchange(int64_t request_bytes, int64_t response_bytes,
                  double speed);

  // Pure cost query; does not touch the counters or the fault schedule.
  double ExchangeSeconds(int64_t request_bytes, int64_t response_bytes,
                         double speed) const;

  int64_t total_requests() const { return total_requests_; }
  int64_t total_bytes_down() const { return total_bytes_down_; }
  int64_t total_bytes_up() const { return total_bytes_up_; }
  double total_seconds() const { return total_seconds_; }
  // Attempts lost and retried across all exchanges.
  int64_t total_retries() const { return total_retries_; }
  // Exchanges that exhausted the internal retry cap.
  int64_t total_timeouts() const { return total_timeouts_; }
  void ResetStats();

 private:
  Options options_;
  common::Rng rng_;
  FaultSchedule* fault_ = nullptr;
  int64_t total_requests_ = 0;
  int64_t total_bytes_down_ = 0;
  int64_t total_bytes_up_ = 0;
  int64_t total_retries_ = 0;
  int64_t total_timeouts_ = 0;
  double total_seconds_ = 0.0;
};

}  // namespace mars::net

#endif  // MARS_NET_LINK_H_
