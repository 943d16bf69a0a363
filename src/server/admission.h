#ifndef MARS_SERVER_ADMISSION_H_
#define MARS_SERVER_ADMISSION_H_

#include <cstdint>

namespace mars::server {

// Server-side admission control for the shared cell.
//
// The WFQ scheduler (net/shared_link.h) guarantees every client its
// weighted share of the cell, but it cannot stop a greedy client from
// building an unbounded private backlog — nor stop the cell's aggregate
// queue from growing without bound when offered load exceeds capacity.
// The admission controller closes both gaps at the request boundary:
//
//   * per-client bounds: a client whose cell backlog (bytes or queue
//     depth) exceeds its budget has further requests *deferred* — the
//     client is told to back off and retry, instead of piling more bytes
//     onto the cell and eventually timing out;
//   * overload shedding: when the cell-wide backlog passes the overload
//     watermark, *deferrable* requests (naive bulk re-retrievals,
//     prefetch batches) are deferred, and past the shed watermark they
//     are rejected outright — the motion-aware clients' tiny demand
//     exchanges keep flowing;
//   * bounded deferral: a request deferred more than `kMaxDefers` times
//     is either admitted (non-deferrable demand traffic must eventually
//     go through) or shed (deferrable bulk), so no client waits forever.
//
// Decide() is a pure function of the request and the options — no
// internal state, no randomness — so admission verdicts computed against
// a tick-frozen cell snapshot are identical no matter how many worker
// threads evaluate them (the fleet engine's determinism contract).
// Record() accumulates observability counters and is only called from
// the engine's serial commit phase.
class AdmissionController {
 public:
  enum class Decision {
    kAdmit,  // submit to the cell now
    kDefer,  // hold; retry after `retry_after_seconds`
    kShed,   // reject; the client keeps serving stale data
  };

  // Cell-wide watermarks for deferrable (bulk) traffic.
  static constexpr int64_t kOverloadBacklogBytes = 512 * 1024;
  static constexpr int64_t kShedBacklogBytes = 2 * 1024 * 1024;
  // Backpressure hint: retry after base * (1 + prior_defers) seconds.
  static constexpr double kDeferBackoffSeconds = 0.5;
  // A request deferred this many times is admitted (non-deferrable) or
  // shed (deferrable).
  static constexpr int32_t kMaxDefers = 8;

  struct Options {
    bool enabled = false;
    // Per-client bounds on cell backlog.
    int64_t max_client_backlog_bytes = 128 * 1024;
    int32_t max_client_queue_depth = 4;
  };

  struct Request {
    int32_t client = 0;
    // Estimated wire bytes of the exchange (the fleet engine uses the
    // client's last observed exchange size; 0 = unknown, always admitted
    // against the byte bound).
    int64_t bytes = 0;
    // Bulk traffic the client can serve stale instead (naive full-object
    // re-retrievals, prefetch batches). Demand exchanges of the
    // motion-aware clients are not deferrable past kMaxDefers.
    bool deferrable = false;
    // Times this request was already deferred.
    int32_t prior_defers = 0;
    // Cell state (tick-frozen snapshot).
    int64_t client_backlog_bytes = 0;
    int32_t client_queue_depth = 0;
    int64_t cell_backlog_bytes = 0;
  };

  struct Verdict {
    Decision decision = Decision::kAdmit;
    // Backpressure hint accompanying kDefer.
    double retry_after_seconds = 0.0;
  };

  AdmissionController() = default;
  explicit AdmissionController(Options options);

  // Pure policy evaluation; see class comment.
  Verdict Decide(const Request& request) const;

  // Folds a verdict into the counters (serial phase only).
  void Record(const Request& request, const Verdict& verdict);

  bool enabled() const { return options_.enabled; }
  int64_t admitted_requests() const { return admitted_requests_; }
  int64_t admitted_bytes() const { return admitted_bytes_; }
  int64_t deferred_requests() const { return deferred_requests_; }
  int64_t shed_requests() const { return shed_requests_; }
  int64_t shed_bytes() const { return shed_bytes_; }

 private:
  Options options_;

  int64_t admitted_requests_ = 0;
  int64_t admitted_bytes_ = 0;
  int64_t deferred_requests_ = 0;
  int64_t shed_requests_ = 0;
  int64_t shed_bytes_ = 0;
};

}  // namespace mars::server

#endif  // MARS_SERVER_ADMISSION_H_
