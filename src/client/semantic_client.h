#ifndef MARS_CLIENT_SEMANTIC_CLIENT_H_
#define MARS_CLIENT_SEMANTIC_CLIENT_H_

#include <cstdint>

#include "client/semantic_cache.h"
#include "client/viewport.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "net/link.h"
#include "qos/resolution_policy.h"
#include "server/server.h"

namespace mars::client {

struct SemanticFrameReport {
  int64_t sub_queries = 0;
  int64_t new_records = 0;
  int64_t response_bytes = 0;
  int64_t node_accesses = 0;
  double response_seconds = 0.0;
  double coverage = 0.0;  // fraction of the query answered locally
};

// Retrieval client whose local memory is described *semantically*
// (region × resolution band, see SemanticCache) rather than by the
// previous frame only (StreamingClient) or by grid blocks
// (BufferedClient). Revisiting any previously seen region at a previously
// seen resolution costs nothing — the strongest of the three at
// wandering, revisit-heavy paths.
class SemanticClient {
 public:
  struct Options {
    double query_fraction = 0.1;
    // External QoS policy owning the speed → w_min decision (not owned;
    // must outlive the client). Null — the default — maps speed with the
    // paper's static mapping.
    const qos::ResolutionPolicy* policy = nullptr;
  };

  SemanticClient(const Options& options, const geometry::Box2& space,
                 const server::Server* server, net::SimulatedLink* link);

  SemanticFrameReport Step(const geometry::Vec2& position, double speed);

  int64_t total_bytes() const { return total_bytes_; }
  double total_response_seconds() const { return total_response_seconds_; }
  int64_t frames() const { return frames_; }

 private:
  Options options_;
  qos::StaticResolutionPolicy owned_policy_;
  const qos::ResolutionPolicy* policy_;  // options_.policy or &owned_policy_
  Viewport viewport_;
  const server::Server* server_;
  net::SimulatedLink* link_;
  SemanticCache cache_;
  server::ClientSession session_;

  int64_t total_bytes_ = 0;
  double total_response_seconds_ = 0.0;
  int64_t frames_ = 0;
};

}  // namespace mars::client

#endif  // MARS_CLIENT_SEMANTIC_CLIENT_H_
