#include "server/motion_interest.h"

#include <utility>

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
      // A fresh per-client sampler keeps the field a pure function of the
      // observation history — snapshots never drift with call count.
      const uint64_t stream = static_cast<uint64_t>(client_id + 1);
      common::Rng rng(options_.seed + 0x9e3779b97f4a7c15ull * stream);
      const auto probs = motion::ComputeBlockProbabilities(
          client.predictor, grid_, options_.probability, rng);
      client.field.assign(probs.begin(), probs.end());
      client.stale = false;
    }
    for (const auto& [block, p] : client.field) {
      interest.score[static_cast<size_t>(block)] += p;
    }
  }
  return interest;
}

}  // namespace mars::server
