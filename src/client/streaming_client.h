#ifndef MARS_CLIENT_STREAMING_CLIENT_H_
#define MARS_CLIENT_STREAMING_CLIENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "client/viewport.h"
#include "common/status.h"
#include "index/record.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "net/link.h"
#include "net/reliable_channel.h"
#include "qos/resolution_policy.h"
#include "server/server.h"

namespace mars::client {

// Per-frame outcome of a retrieval step.
struct StreamingFrameReport {
  int64_t sub_queries = 0;
  int64_t new_records = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t node_accesses = 0;
  double response_seconds = 0.0;
  // Transport outcome of the frame's exchange: OK when delivered (or no
  // exchange was needed); non-OK when the retry budget or deadline was
  // exhausted — the frame then installed nothing and the server rolled
  // the tentative delivery back.
  common::Status status;
  // Lost attempts retried within this frame's exchange.
  int64_t retries = 0;
  // Ids of the records delivered this frame (the client's store grows by
  // exactly these).
  std::vector<index::RecordId> records;
};

// The motion-aware *retrieval* client of paper Sec. IV in isolation: pure
// incremental continuous retrieval via Algorithm 1, with an unbounded local
// store (the server session filters anything already delivered). No
// buffering or prefetching — this isolates the multiresolution retrieval
// effect for the Fig. 8/9 experiments and the index I/O studies.
//
// Exchanges run through a ReliableChannel: bounded retries, backoff, and
// a per-exchange deadline. A failed exchange installs nothing, rolls the
// server's pending delivery back, and leaves the incremental-planning
// state at the last *successful* frame, so the next frame's plan
// re-covers whatever was lost (reconnect reconciliation). Delivered
// records are committed server-side by the ack piggybacked on the next
// request.
class StreamingClient {
 public:
  struct Options {
    double query_fraction = 0.1;  // window side as a fraction of the space
    qos::SpeedResolutionMap speed_map;
    // External QoS policy owning the speed → w_min decision (not owned;
    // must outlive the client). Null — the default — wraps `speed_map` in
    // a static policy, which is bit-identical to the pre-policy pipeline.
    const qos::ResolutionPolicy* policy = nullptr;
    // Transport retry policy (pay-for-what-you-use on a clean link).
    net::ReliableChannel::Options channel;
  };

  // `server` and `link` must outlive the client. `session` optionally
  // points at an external (e.g. server-side SessionTable-resident)
  // session this client exchanges against; when null the client keeps a
  // private one. An external session must outlive the client and must not
  // be shared with another client — it carries this client's
  // duplicate-filter state.
  StreamingClient(const Options& options, const geometry::Box2& space,
                  const server::Server* server, net::SimulatedLink* link,
                  server::ClientSession* session = nullptr);

  // Advances one query frame: the client is at `position` moving at
  // normalized `speed`; plans Algorithm-1 sub-queries against the previous
  // frame and executes them as one exchange.
  StreamingFrameReport Step(const geometry::Vec2& position, double speed);

  // Acks any still-pending delivery (normally piggybacked on the next
  // request). Call at end of run to quiesce the session so that the
  // server's committed state matches the client's store.
  void FlushAck();

  // Backpressure signal from the cell's admission controller: the next
  // exchange waits `retry_after_seconds` before its first attempt (the
  // wait is excluded from the exchange's deadline budget). A client that
  // never receives this behaves exactly as before.
  void OnBackpressure(double retry_after_seconds);

  // Cumulative totals.
  int64_t total_bytes() const { return total_bytes_; }
  double total_response_seconds() const { return total_response_seconds_; }
  int64_t frames() const { return frames_; }
  int64_t total_retries() const { return channel_.total_retries(); }
  int64_t total_failures() const { return channel_.total_failures(); }
  const server::ClientSession& session() const { return *session_; }

 private:
  Options options_;
  qos::StaticResolutionPolicy owned_policy_;
  const qos::ResolutionPolicy* policy_;  // options_.policy or &owned_policy_
  Viewport viewport_;
  const server::Server* server_;
  net::SimulatedLink* link_;
  net::ReliableChannel channel_;
  server::ClientSession owned_session_;
  server::ClientSession* session_;  // owned_session_ or the external one

  // True when the previous frame's delivery still awaits its piggybacked
  // ack (committed at the start of the next exchange-bearing step).
  bool ack_outstanding_ = false;

  std::optional<geometry::Box2> prev_window_;
  double prev_w_min_ = 2.0;  // "no previous resolution"

  int64_t total_bytes_ = 0;
  double total_response_seconds_ = 0.0;
  int64_t frames_ = 0;
};

}  // namespace mars::client

#endif  // MARS_CLIENT_STREAMING_CLIENT_H_
