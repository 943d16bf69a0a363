#ifndef MARS_SERVER_MOTION_INTEREST_H_
#define MARS_SERVER_MOTION_INTEREST_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/box.h"
#include "geometry/grid.h"
#include "geometry/vec.h"
#include "motion/grid_probability.h"
#include "motion/predictor.h"
#include "storage/buffer_pool.h"

namespace mars::server {

// Server-side reuse of the paper's client visit-probability logic (Sec.
// V-B): one motion predictor per connected client, fed the positions the
// fleet reports each frame, aggregated into a ground-plane interest field
// that the buffer pools' motion-aware eviction policy scores pages against.
// Where the paper's client keeps blocks it will soon *query*, the server
// keeps pages the fleet will soon *traverse*.
//
// Not internally synchronized: the Server wraps calls in its own mutex, and
// Observe/Snapshot are only driven from serial phases (the fleet's commit
// phase or the single-client frame loop).
class MotionInterestTracker {
 public:
  struct Options {
    // Interest-grid resolution over the dataset's ground bounds.
    int32_t grid_nx = 16;
    int32_t grid_ny = 16;
    motion::GridProbabilityOptions probability;
    uint64_t seed = 0x4d415253504f4f4cull;  // deterministic sampling
  };

  MotionInterestTracker(const geometry::Box2& space, Options options);

  // Feeds client `client_id`'s position for the current frame.
  void Observe(int32_t client_id, const geometry::Vec2& position);

  // Aggregates every client's discounted block-visit probabilities into
  // one field. Deterministic: clients iterate in ascending id and the
  // Monte-Carlo sampler is seeded per client from the tracker's base seed,
  // so a client's field is a pure function of its observation history.
  // Each field is therefore kept until the client's next Observe, and a
  // snapshot recomputes only the clients observed since the last one.
  storage::InterestGrid Snapshot();

  int64_t clients() const { return static_cast<int64_t>(clients_.size()); }

 private:
  struct Client {
    motion::MotionPredictor predictor;
    // The client's block probabilities in their BlockProbabilities
    // iteration order; valid while !stale.
    std::vector<std::pair<int64_t, double>> field;
    bool stale = true;
  };

  Options options_;
  geometry::Box2 space_;
  geometry::GridPartition grid_;
  // Ordered map so Snapshot's accumulation order (and therefore its
  // floating-point result) is independent of insertion order.
  std::map<int32_t, Client> clients_;
};

}  // namespace mars::server

#endif  // MARS_SERVER_MOTION_INTEREST_H_
