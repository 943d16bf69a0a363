#include "server/motion_interest.h"

namespace mars::server {
namespace {

geometry::Box2 NonEmptySpace(const geometry::Box2& space) {
  if (space.IsEmpty() || space.Extent(0) <= 0.0 || space.Extent(1) <= 0.0) {
    return geometry::Box2({0.0, 0.0}, {1.0, 1.0});
  }
  return space;
}

}  // namespace

MotionInterestTracker::MotionInterestTracker(const geometry::Box2& space,
                                             Options options)
    : options_(options),
      space_(NonEmptySpace(space)),
      grid_(space_, options_.grid_nx, options_.grid_ny) {}

void MotionInterestTracker::Observe(int32_t client_id,
                                    const geometry::Vec2& position) {
  Client& client = clients_[client_id];
  client.predictor.Observe(position);
  client.stale = true;
}

storage::InterestGrid MotionInterestTracker::Snapshot() {
  storage::InterestGrid interest;
  interest.space = space_;
  interest.nx = options_.grid_nx;
  interest.ny = options_.grid_ny;
  interest.score.assign(
      static_cast<size_t>(options_.grid_nx) * options_.grid_ny, 0.0);
  for (auto& [client_id, client] : clients_) {
    if (client.stale) {
      // A predictor that is not ready() predicts its zero-velocity prior
      // (σ 1 km) around the client: interest everywhere, which would only
      // dilute the warm clients' fields. Such a client adds nothing.
      client.field = client.predictor.ready()
                         ? motion::ComputeBlockProbabilities(
                               client.predictor, grid_, options_.probability)
                         : motion::BlockProbabilities();
      client.stale = false;
    }
    for (const auto& [block, p] : client.field) {
      interest.score[static_cast<size_t>(block)] += p;
    }
  }
  return interest;
}

}  // namespace mars::server
