#include "client/naive_client.h"

#include "common/logging.h"

namespace mars::client {

NaiveObjectClient::NaiveObjectClient(const Options& options,
                                     const geometry::Box2& space,
                                     const server::Server* server,
                                     net::SimulatedLink* link)
    : options_(options),
      viewport_(space, options.query_fraction, options.query_fraction),
      server_(server),
      link_(link),
      cache_(options.cache_bytes) {
  MARS_CHECK(server != nullptr);
  MARS_CHECK(link != nullptr);
}

void NaiveObjectClient::OnBackpressure(double /*retry_after_seconds*/) {
  next_window_scale_ = 0.5;
}

NaiveFrameReport NaiveObjectClient::Step(const geometry::Vec2& position,
                                         double speed) {
  NaiveFrameReport report;
  const double scale = next_window_scale_;
  next_window_scale_ = 1.0;
  const geometry::Box2 window = geometry::Box2FromCenter(
      position, viewport_.width() * scale, viewport_.height() * scale);

  const server::Server::ObjectListing listing = server_->ListObjects(window);
  report.node_accesses = listing.node_accesses;
  report.objects_needed = static_cast<int64_t>(listing.objects.size());

  int64_t fetch_bytes = server::Server::kResponseHeaderBytes;
  int64_t fetched = 0;
  for (int32_t obj : listing.objects) {
    ++object_lookups_;
    if (cache_.Touch(obj)) {
      ++object_hits_;
      continue;
    }
    const int64_t bytes = server_->db().ObjectFullBytes(obj);
    fetch_bytes += bytes;
    ++fetched;
    cache_.Put(obj, bytes);
  }
  report.objects_fetched = fetched;

  if (fetched > 0) {
    report.bytes = fetch_bytes;
    report.response_seconds = link_->Exchange(
        server::Server::kRequestHeaderBytes + server::Server::kSubQueryBytes,
        fetch_bytes, speed);
  }

  total_bytes_ += report.bytes;
  total_response_seconds_ += report.response_seconds;
  ++frames_;
  return report;
}

double NaiveObjectClient::CacheHitRate() const {
  return object_lookups_ == 0
             ? 0.0
             : static_cast<double>(object_hits_) / object_lookups_;
}

}  // namespace mars::client
