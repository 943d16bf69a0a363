#ifndef MARS_CLIENT_NAIVE_CLIENT_H_
#define MARS_CLIENT_NAIVE_CLIENT_H_

#include <cstdint>
#include <unordered_set>

#include "buffer/lru_cache.h"
#include "client/viewport.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "net/link.h"
#include "server/server.h"

namespace mars::client {

struct NaiveFrameReport {
  int64_t objects_needed = 0;
  int64_t objects_fetched = 0;
  int64_t bytes = 0;
  double response_seconds = 0.0;
  int64_t node_accesses = 0;
};

// The fully naive baseline system of paper Sec. VII-E: "we always retrieve
// objects with the highest resolution and we use an R*-tree to index
// objects without using multiple resolutions. We also use a simple Least
// Recently Used (LRU) scheme for caching." No motion model, no wavelets,
// no prefetching.
class NaiveObjectClient {
 public:
  struct Options {
    double query_fraction = 0.1;
    int64_t cache_bytes = 64 * 1024;
  };

  NaiveObjectClient(const Options& options, const geometry::Box2& space,
                    const server::Server* server, net::SimulatedLink* link);

  NaiveFrameReport Step(const geometry::Vec2& position, double speed);

  // Backpressure signal from the cell's admission controller. The naive
  // client has no transport-level deferral (it talks to the raw link), so
  // it adapts the only knob it has: the next frame's window is halved,
  // which roughly halves the full-resolution bytes it demands. No-op for
  // clients that never receive it.
  void OnBackpressure(double retry_after_seconds);

  int64_t total_bytes() const { return total_bytes_; }
  double total_response_seconds() const { return total_response_seconds_; }
  int64_t frames() const { return frames_; }
  double CacheHitRate() const;

 private:
  Options options_;
  Viewport viewport_;
  const server::Server* server_;
  net::SimulatedLink* link_;
  buffer::LruCache<int32_t> cache_;

  // Scale applied to the next frame's window after backpressure (1.0
  // otherwise).
  double next_window_scale_ = 1.0;

  int64_t object_lookups_ = 0;
  int64_t object_hits_ = 0;
  int64_t total_bytes_ = 0;
  double total_response_seconds_ = 0.0;
  int64_t frames_ = 0;
};

}  // namespace mars::client

#endif  // MARS_CLIENT_NAIVE_CLIENT_H_
