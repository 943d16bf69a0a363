#ifndef MARS_CLIENT_DISTANCE_RINGS_H_
#define MARS_CLIENT_DISTANCE_RINGS_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/vec.h"
#include "server/server.h"

namespace mars::client {

// Distance-aware resolution (paper Sec. III: "the geometric influence of
// a coefficient may be determined by the speed of navigation, the
// resolution level of the screen, or the terminal's processing power").
// Objects far from the client subtend few pixels, so their fine detail is
// invisible regardless of speed. This helper splits the query window into
// concentric rings around the client and assigns each ring a coarser
// resolution band than the last:
//
//   ring 0 (innermost): w_min = base resolution (speed-determined)
//   ring i:             w_min lifted towards 1.0 with distance
//
// The result is a set of disjoint sub-queries covering the window — a
// drop-in replacement for the single-band window query that cuts the
// bytes of large windows considerably (see the distance ablation bench).
// Resolution lift per ring: ring i uses
//   w_min_i = 1 - (1 - base_w_min) * kRingFalloff^i.
inline constexpr double kRingFalloff = 0.5;

struct DistanceRingOptions {
  // Number of rings (1 = plain single-band query).
  int32_t rings = 3;
};

// Builds the ring sub-queries for a window centered on `position` with
// base band [base_w_min, 1]. The rings are nested boxes; each annulus is
// decomposed into disjoint rectangles.
std::vector<server::SubQuery> PlanDistanceRings(
    const geometry::Box2& window, const geometry::Vec2& position,
    double base_w_min, const DistanceRingOptions& options);

}  // namespace mars::client

#endif  // MARS_CLIENT_DISTANCE_RINGS_H_
