#include "client/streaming_client.h"

#include "client/continuous.h"
#include "common/logging.h"

namespace mars::client {

StreamingClient::StreamingClient(const Options& options,
                                 const geometry::Box2& space,
                                 const server::Server* server,
                                 net::SimulatedLink* link,
                                 server::ClientSession* session)
    : options_(options),
      owned_policy_(options.speed_map),
      policy_(options.policy != nullptr ? options.policy : &owned_policy_),
      viewport_(space, options.query_fraction, options.query_fraction),
      server_(server),
      link_(link),
      channel_(link, options.channel),
      session_(session != nullptr ? session : &owned_session_) {
  MARS_CHECK(server != nullptr);
  MARS_CHECK(link != nullptr);
}

void StreamingClient::OnBackpressure(double retry_after_seconds) {
  channel_.Defer(retry_after_seconds);
}

void StreamingClient::FlushAck() {
  if (ack_outstanding_) {
    server::AckPending(session_);
    ack_outstanding_ = false;
  }
}

StreamingFrameReport StreamingClient::Step(const geometry::Vec2& position,
                                           double speed) {
  StreamingFrameReport report;
  const geometry::Box2 window = viewport_.WindowAt(position);
  const double w_min = policy_->MapSpeedToResolution(speed);

  // This request carries the ack for the previous frame's delivery.
  FlushAck();

  const std::vector<server::SubQuery> plan = PlanContinuousRetrieval(
      window, w_min,
      prev_window_.has_value() ? prev_window_ : std::nullopt, prev_w_min_);
  report.sub_queries = static_cast<int64_t>(plan.size());

  const server::QueryResult result = server_->Execute(plan, session_);
  report.node_accesses = result.node_accesses;

  const net::ReliableChannel::Result net = channel_.Exchange(
      result.request_bytes, result.response_bytes, speed);
  report.status = net.status;
  report.retries = net.retries;
  report.response_seconds = net.seconds;

  if (net.status.ok()) {
    // Delivered: install, and leave the batch pending until the next
    // request acks it.
    report.new_records = static_cast<int64_t>(result.records.size());
    report.records = result.records;
    report.request_bytes = result.request_bytes;
    report.response_bytes = result.response_bytes;
    ack_outstanding_ = true;
    // Incremental planning proceeds from this frame.
    prev_window_ = window;
    prev_w_min_ = w_min;
    total_bytes_ += result.response_bytes;
  } else {
    // Lost despite the retry budget: nothing was installed. Roll the
    // tentative delivery back so the records are re-sent when next
    // queried, and keep planning against the last successful frame — on
    // reconnect the plan re-covers the lost region.
    server::RollbackPending(session_);
  }

  total_response_seconds_ += report.response_seconds;
  ++frames_;
  return report;
}

}  // namespace mars::client
