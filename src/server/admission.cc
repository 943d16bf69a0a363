#include "server/admission.h"

#include "common/logging.h"

namespace mars::server {

AdmissionController::AdmissionController(Options options)
    : options_(options) {
  MARS_CHECK_GE(options.max_client_backlog_bytes, 0);
  MARS_CHECK_GT(options.max_client_queue_depth, 0);
}

AdmissionController::Verdict AdmissionController::Decide(
    const Request& request) const {
  Verdict verdict;
  if (!options_.enabled) return verdict;

  const auto defer = [&]() -> Verdict {
    // Linear backoff: each further deferral pushes the retry out.
    return Verdict{Decision::kDefer,
                   kDeferBackoffSeconds *
                       static_cast<double>(1 + request.prior_defers)};
  };

  // Bounded deferral: a request cannot wait forever. Demand traffic is
  // forced through; bulk traffic is shed.
  if (request.prior_defers >= kMaxDefers) {
    if (request.deferrable) return Verdict{Decision::kShed, 0.0};
    return verdict;  // admit
  }

  // Per-client inflight bounds: a client over its budget adds nothing
  // until the cell drains its queue.
  if (request.client_queue_depth >= options_.max_client_queue_depth) {
    return defer();
  }
  if (request.bytes > 0 &&
      request.client_backlog_bytes + request.bytes >
          options_.max_client_backlog_bytes) {
    return defer();
  }

  // Cell-wide overload: deferrable bulk yields first, and is rejected
  // outright past the shed watermark.
  if (request.deferrable) {
    if (request.cell_backlog_bytes >= kShedBacklogBytes) {
      return Verdict{Decision::kShed, 0.0};
    }
    if (request.cell_backlog_bytes >= kOverloadBacklogBytes) {
      return defer();
    }
  }
  return verdict;  // admit
}

void AdmissionController::Record(const Request& request,
                                 const Verdict& verdict) {
  switch (verdict.decision) {
    case Decision::kAdmit:
      ++admitted_requests_;
      admitted_bytes_ += request.bytes;
      break;
    case Decision::kDefer:
      ++deferred_requests_;
      break;
    case Decision::kShed:
      ++shed_requests_;
      shed_bytes_ += request.bytes;
      break;
  }
}

}  // namespace mars::server
