#include "client/distance_rings.h"

#include <algorithm>

#include "common/logging.h"
#include "geometry/rect_diff.h"

namespace mars::client {

std::vector<server::SubQuery> PlanDistanceRings(
    const geometry::Box2& window, const geometry::Vec2& position,
    double base_w_min, const DistanceRingOptions& options) {
  MARS_CHECK_GE(options.rings, 1);

  std::vector<server::SubQuery> plan;
  if (window.IsEmpty()) return plan;
  if (options.rings == 1) {
    plan.push_back(server::SubQuery{window, base_w_min, 1.0});
    return plan;
  }

  // Nested boxes shrinking towards the client: ring i spans the annulus
  // between shell i and shell i+1 (shell 0 = full window).
  const double half_w = window.Extent(0) / 2.0;
  const double half_h = window.Extent(1) / 2.0;
  auto shell = [&](int32_t i) {
    if (i == 0) return window;  // the outermost shell covers everything
    const double t =
        1.0 - static_cast<double>(i) / static_cast<double>(options.rings);
    return geometry::Box2FromCenter(position, 2.0 * half_w * t,
                                    2.0 * half_h * t)
        .Intersection(window);
  };

  // Ring i's band: innermost keeps the base resolution, outer rings lift
  // w_min towards 1 geometrically.
  auto ring_w_min = [&](int32_t ring_from_center) {
    const double falloff =
        std::pow(kRingFalloff, static_cast<double>(ring_from_center));
    const double lifted = 1.0 - (1.0 - base_w_min) * falloff;
    return std::clamp(lifted, base_w_min, 1.0);
  };

  // Innermost box.
  const geometry::Box2 inner = shell(options.rings - 1);
  if (!inner.IsEmpty()) {
    plan.push_back(server::SubQuery{inner, ring_w_min(0), 1.0});
  }
  // Annuli outward.
  for (int32_t i = options.rings - 1; i >= 1; --i) {
    const geometry::Box2 outer_box = shell(i - 1);
    const geometry::Box2 inner_box = shell(i);
    const double w = ring_w_min(options.rings - i);
    for (const geometry::Box2& piece :
         geometry::Difference(outer_box, inner_box)) {
      plan.push_back(server::SubQuery{piece, w, 1.0});
    }
  }
  return plan;
}

}  // namespace mars::client
