#ifndef MARS_NET_SHARED_LINK_H_
#define MARS_NET_SHARED_LINK_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/wfq.h"

namespace mars::net {

// A shared wireless medium serving several clients at once, modelled as a
// fluid queue over the cell's downlink capacity. Two service disciplines:
//
//   * kWeightedFair (default): deterministic fair queuing. Each client
//     owns a FIFO queue; at any instant the backlogged clients divide the
//     cell capacity equally (fluid GPS at unit weights), each serving its
//     head-of-line transfer, additionally capped by the client's bearer
//     rate and degraded by that transfer's motion. Arrivals are stamped
//     with virtual start/finish tags (net/wfq.h); completions coinciding
//     in real time are emitted in (finish tag, client id) order, so runs
//     are bit-identical for a given submission sequence. A greedy
//     client's backlog cannot starve anyone: every other client keeps at
//     least its equal share of the cell.
//
//   * kEqualShare: the legacy processor-sharing model — capacity divided
//     equally among the *transfers* in flight, so a client with k
//     transfers holds k shares. Kept for the fairness-isolation bench and
//     ablations. Unlike the original implementation, a client's aggregate
//     rate is now correctly capped by its bearer at every reschedule
//     point: a second transfer joining mid-flight used to grant the
//     client another full bearer's worth of credit (over-crediting bytes
//     already in flight); the shares are now rescaled so the client never
//     outruns its own radio.
//
// Transfers persist across frames until drained. Clients do not block on
// their transfers — an AR client keeps moving and renders coarse data
// until the bytes arrive — so the reported quantity is the *delivery
// delay* of each exchange.
//
// Loss parity with SimulatedLink: each submission may be partially lost
// and retransmitted (bounded retries, deterministic per-seed), which
// inflates the bytes the cell has to carry; an attached FaultSchedule
// additionally stalls the whole cell during outage windows.
//
// Used by the fleet engine and the multi-client benches; the paper's
// single-client evaluation corresponds to one client on a dedicated
// bearer.
class SharedMediumLink {
 public:
  enum class Discipline {
    kWeightedFair,  // per-client WFQ (see above)
    kEqualShare,    // legacy per-transfer processor sharing
  };

  // Cap on retransmissions per submission; hitting it counts a timeout
  // and delivers the transfer without further inflation.
  static constexpr int32_t kMaxRetriesPerTransfer = 16;

  struct Options {
    // Total cell capacity.
    double cell_bandwidth_kbps = 2048.0;
    // Per-client bearer cap (the paper's 256 Kbps). Caps each client's
    // *aggregate* rate across all its inflight transfers.
    double client_bandwidth_kbps = kLinkBandwidthKbps;
    // Probability that a transfer attempt is lost in flight and must be
    // retransmitted; the lost fraction of the payload is re-sent. Loss at
    // speed s is scaled by (1 + s), mirroring SimulatedLink. 0 disables.
    double loss_probability = 0.0;
    uint64_t loss_seed = 1;
    // Service discipline on the cell.
    Discipline discipline = Discipline::kWeightedFair;
  };

  // A finished exchange: which client, and how long from submission to
  // last byte (including the connection latency). `seq` is the client's
  // per-submission sequence number (assigned by Submit, starting at 0) —
  // the handle coalesced shared payloads are keyed by: a waiter attached
  // to transfer (client, seq) is delivered exactly when that completion
  // fires. Under kWeightedFair each client serves head-of-line only, so
  // a client's completions arrive in seq order; kEqualShare drains all
  // transfers at once and gives no such guarantee.
  struct Completion {
    int32_t client = 0;
    int64_t seq = 0;
    double response_seconds = 0.0;
    // Absolute cell time at which the last byte (plus latency) landed:
    // submitted_at + response_seconds, computed with exactly that
    // expression so callers tracking absolute finish times agree with
    // callers summing submit + response bit-for-bit. Lets a transfer
    // that was cancelled and re-issued elsewhere report a delivery delay
    // spanning the *original* submission.
    double finish_seconds = 0.0;
  };

  // A transfer removed by CancelClient: enough state to re-issue the
  // remaining work on another cell (fault-tolerant handover).
  struct Cancelled {
    int64_t seq = 0;
    double remaining_bytes = 0.0;
    double submitted_at = 0.0;
    double speed = 0.0;
  };

  SharedMediumLink();  // default options
  explicit SharedMediumLink(Options options);

  // Attaches a fault schedule consulted at the cell's simulated time
  // now(). Not owned; must outlive the link.
  void AttachFaultSchedule(FaultSchedule* schedule) { fault_ = schedule; }

  // Enqueues an exchange of `bytes` for `client` moving at normalized
  // `speed`, submitted at the current simulated time. Under loss the
  // carried byte count is inflated by the retransmitted fractions.
  // Returns the submission's per-client sequence number (echoed in its
  // Completion), so callers charging shared payloads to this transfer
  // can key their waiters by (client, seq).
  int64_t Submit(int32_t client, int64_t bytes, double speed);

  // Advances simulated time by `dt` seconds, draining transfers under the
  // configured discipline; returns the exchanges that completed.
  std::vector<Completion> Advance(double dt);

  // Drains everything left; returns the remaining completions. The clock
  // stops at the last completion (it does not move if nothing is in
  // flight).
  std::vector<Completion> DrainAll();

  // Removes every queued transfer of `client` (the client was handed
  // over to another cell while this one was down), in submission order.
  // The client's sequence counter is preserved, so later submissions on
  // this cell never reuse a cancelled transfer's seq. Returns what was
  // cancelled so the caller can re-issue the remaining bytes elsewhere.
  std::vector<Cancelled> CancelClient(int32_t client);

  double now() const { return now_; }
  size_t in_flight() const { return in_flight_; }
  int64_t total_bytes() const { return total_bytes_; }
  // Lost attempts retransmitted across all submissions.
  int64_t total_retries() const { return total_retries_; }
  // Submissions that hit the retransmission cap.
  int64_t total_timeouts() const { return total_timeouts_; }
  // Simulated seconds the cell spent fully blacked out.
  double total_outage_seconds() const { return total_outage_seconds_; }

  // Backlog observability — what the admission controller consults.
  // Remaining carried bytes queued for `client` (including the transfer
  // in service).
  int64_t client_backlog_bytes(int32_t client) const;
  // Transfers queued for `client`.
  int32_t client_queue_depth(int32_t client) const;
  // Remaining carried bytes across every client.
  int64_t backlog_bytes() const;
  // The scheduler's virtual time (observability / tests).
  double virtual_time() const { return vclock_.virtual_time(); }

 private:
  struct Transfer {
    double remaining_bytes;
    double submitted_at;
    double speed;
    double virtual_finish;  // WFQ tag stamped at submission
    int64_t seq;            // per-client submission sequence number
  };

  struct ClientQueue {
    std::deque<Transfer> queue;
    double backlog_bytes = 0.0;
    int64_t next_seq = 0;
  };

  // Serves the queued transfers until the clock reaches `target` or
  // nothing is in flight, whichever comes first; appends completions.
  void Serve(double target, std::vector<Completion>* completions);

  // One piecewise-constant service interval under the given discipline;
  // appends completions. `target` bounds the interval.
  void StepWeightedFair(double target, double cell, double bearer,
                        std::vector<Completion>* completions);
  void StepEqualShare(double target, double cell, double bearer,
                      std::vector<Completion>* completions);

  double MotionFactor(double speed) const {
    return 1.0 - kMotionDegradation * speed;
  }

  void FinishTransfer(int32_t client, ClientQueue* cq,
                      std::vector<Completion>* completions);

  Options options_;
  common::Rng rng_;
  FaultSchedule* fault_ = nullptr;
  double now_ = 0.0;
  // Ordered by client id so every scan (rate allocation, completion
  // emission, backlog sums) is deterministic.
  std::map<int32_t, ClientQueue> clients_;
  WfqVirtualClock vclock_;
  size_t in_flight_ = 0;
  int64_t total_bytes_ = 0;
  int64_t total_retries_ = 0;
  int64_t total_timeouts_ = 0;
  double total_outage_seconds_ = 0.0;
};

}  // namespace mars::net

#endif  // MARS_NET_SHARED_LINK_H_
