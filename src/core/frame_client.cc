#include "core/frame_client.h"

#include <algorithm>
#include <utility>

namespace mars::core {

namespace {

// Builds the client `options` selects. The clients point into themselves,
// so each is constructed in place, inside the returned variant, and is
// never moved.
template <typename Client>
Client MakeClient(const FrameClient::Options& options,
                  const geometry::Box2& space, const server::Server* server,
                  net::SimulatedLink* link, server::ClientSession* session) {
  using std::in_place_type;
  if (const auto* o = std::get_if<client::StreamingClient::Options>(&options)) {
    return Client(in_place_type<client::StreamingClient>, *o, space, server,
                  link, session);
  }
  if (const auto* o = std::get_if<client::BufferedClient::Options>(&options)) {
    return Client(in_place_type<client::BufferedClient>, *o, space, server,
                  link);
  }
  return Client(in_place_type<client::NaiveObjectClient>,
                std::get<client::NaiveObjectClient::Options>(options), space,
                server, link);
}

}  // namespace

FrameClient::FrameClient(const Options& options, const geometry::Box2& space,
                         const server::Server* server, net::SimulatedLink* link,
                         server::ClientSession* session)
    : client_(MakeClient<Client>(options, space, server, link, session)) {}

Frame FrameClient::Step(const geometry::Vec2& position, double speed,
                        RunMetrics* m) {
  ++m->frames;
  const auto step = [&](auto& c) { return Book(c.Step(position, speed), m); };
  return std::visit(step, client_);
}

void FrameClient::Defer(double retry_after_seconds, RunMetrics* m) {
  std::visit([&](auto& c) { c.OnBackpressure(retry_after_seconds); }, client_);
  ++m->deferred_exchanges;
  ++m->backpressure_frames;
}

void FrameClient::Shed(RunMetrics* m) {
  ++m->frames;
  ++m->shed_exchanges;
  AddStaleFrame(m);
}

void FrameClient::Finish(RunMetrics* m) {
  if (auto* c = std::get_if<client::StreamingClient>(&client_)) {
    // Commit the trailing pending delivery so the session's committed
    // state matches the client's store.
    c->FlushAck();
  } else if (const auto* b = std::get_if<client::BufferedClient>(&client_)) {
    m->cache_hit_rate = b->buffer_stats().HitRate();
    m->data_utilization = b->buffer_stats().Utilization();
    // Added to the shed frames already booked, not assigned over them.
    m->outage_frames += b->outage_frames();
    m->stale_frames += b->stale_frames();
    m->max_stale_run_frames =
        std::max(m->max_stale_run_frames, b->max_stale_run_frames());
  } else {
    m->cache_hit_rate =
        std::get<client::NaiveObjectClient>(client_).CacheHitRate();
  }
}

Frame FrameClient::Book(client::StreamingFrameReport report, RunMetrics* m) {
  m->demand_bytes += report.response_bytes;
  m->node_accesses += report.node_accesses;
  m->records_delivered += report.new_records;
  m->retries += report.retries;
  if (report.status.ok()) {
    stale_run_ = 0;
  } else {
    // A failed frame renders from the store as of the last successful
    // exchange: it is stale by definition.
    ++m->timeouts;
    ++m->outage_frames;
    AddStaleFrame(m);
  }
  // A failed exchange delivered nothing, so its byte counts are zero.
  return Frame{report.response_seconds,
               report.request_bytes + report.response_bytes,
               std::move(report.records)};
}

Frame FrameClient::Book(client::BufferedFrameReport report, RunMetrics* m) {
  // The client counts its own stale frames; Finish books them.
  m->demand_bytes += report.demand_bytes;
  m->prefetch_bytes += report.prefetch_bytes;
  m->node_accesses += report.node_accesses;
  m->retries += report.retries;
  m->timeouts += report.timeouts;
  return Frame{report.response_seconds,
               report.demand_bytes + report.prefetch_bytes,
               std::move(report.records)};
}

Frame FrameClient::Book(client::NaiveFrameReport report, RunMetrics* m) {
  m->demand_bytes += report.bytes;
  m->node_accesses += report.node_accesses;
  return Frame{report.response_seconds, report.bytes, {}};
}

void FrameClient::AddStaleFrame(RunMetrics* m) {
  ++m->stale_frames;
  ++stale_run_;
  m->max_stale_run_frames = std::max(m->max_stale_run_frames, stale_run_);
}

}  // namespace mars::core
