#include "workload/tour.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace mars::workload {

namespace {

using geometry::Vec2;

// World speed (m/s) corresponding to normalized speed 1.0.
constexpr double kMaxSpeedMps = 15.0;
// Trams: meters between turns, drawn uniformly in [min, max]; meters
// between stops; relative speed noise.
constexpr double kTramSegmentMin = 400.0;
constexpr double kTramSegmentMax = 900.0;
constexpr double kTramStopEvery = 350.0;
constexpr double kTramSpeedJitter = 0.05;
// Pedestrians: heading drift (radians per frame) and relative speed
// noise.
constexpr double kWalkHeadingSigma = 0.35;
constexpr double kWalkSpeedJitter = 0.25;

// Reflects `p` into `space`, flipping the heading components that caused
// the excursion.
void ReflectIntoSpace(const geometry::Box2& space, Vec2* p,
                      double* heading) {
  bool flip_x = false, flip_y = false;
  if (p->x < space.lo(0)) {
    p->x = 2 * space.lo(0) - p->x;
    flip_x = true;
  } else if (p->x > space.hi(0)) {
    p->x = 2 * space.hi(0) - p->x;
    flip_x = true;
  }
  if (p->y < space.lo(1)) {
    p->y = 2 * space.lo(1) - p->y;
    flip_y = true;
  } else if (p->y > space.hi(1)) {
    p->y = 2 * space.hi(1) - p->y;
    flip_y = true;
  }
  if (flip_x || flip_y) {
    const double dx = std::cos(*heading) * (flip_x ? -1.0 : 1.0);
    const double dy = std::sin(*heading) * (flip_y ? -1.0 : 1.0);
    *heading = std::atan2(dy, dx);
  }
}

}  // namespace

std::vector<TourPoint> GenerateTour(const TourOptions& options) {
  MARS_CHECK_GT(options.target_speed, 0.0);
  MARS_CHECK_LE(options.target_speed, 1.0);
  MARS_CHECK_GT(options.frame_interval, 0.0);
  common::Rng rng(options.seed);

  std::vector<TourPoint> tour;
  Vec2 pos{rng.Uniform(options.space.lo(0) + options.space.Extent(0) * 0.2,
                       options.space.hi(0) - options.space.Extent(0) * 0.2),
           rng.Uniform(options.space.lo(1) + options.space.Extent(1) * 0.2,
                       options.space.hi(1) - options.space.Extent(1) * 0.2)};

  // Trams run along the street grid; pedestrians start anywhere.
  double heading = options.kind == TourKind::kTram
                       ? (M_PI / 2.0) * rng.UniformInt(0, 3)
                       : rng.Uniform(0, 2 * M_PI);

  double covered = 0.0;
  double segment_left = rng.Uniform(kTramSegmentMin, kTramSegmentMax);
  double next_stop_in = kTramStopEvery;
  int32_t stop_frames_left = 0;
  double time = 0.0;

  const bool by_distance = options.distance > 0.0;
  const int64_t max_frames = by_distance ? 1'000'000 : options.frames;

  for (int64_t f = 0; f < max_frames; ++f) {
    double speed = options.target_speed;
    if (options.kind == TourKind::kTram) {
      if (stop_frames_left > 0) {
        --stop_frames_left;
        speed = 0.001;  // dwell at a stop (minimum normalized speed)
      } else {
        speed *= 1.0 + rng.Normal(0.0, kTramSpeedJitter);
      }
    } else {
      speed *= 1.0 + rng.Normal(0.0, kWalkSpeedJitter);
      heading += rng.Normal(0.0, kWalkHeadingSigma);
    }
    speed = std::clamp(speed, 0.001, 1.0);

    tour.push_back(TourPoint{pos, speed, time});

    // Advance.
    const double step = speed * kMaxSpeedMps * options.frame_interval;
    pos += Vec2{std::cos(heading), std::sin(heading)} * step;
    ReflectIntoSpace(options.space, &pos, &heading);
    covered += step;
    time += options.frame_interval;

    if (options.kind == TourKind::kTram) {
      segment_left -= step;
      next_stop_in -= step;
      if (segment_left <= 0.0) {
        // Right-angle turn at an intersection.
        heading += (rng.Bernoulli(0.5) ? 1.0 : -1.0) * (M_PI / 2.0);
        segment_left = rng.Uniform(kTramSegmentMin, kTramSegmentMax);
      }
      if (next_stop_in <= 0.0) {
        stop_frames_left = options.tram_stop_frames;
        next_stop_in = kTramStopEvery;
      }
    }

    if (by_distance && covered >= options.distance) break;
  }
  return tour;
}

GroupTourGenerator::GroupTourGenerator(const Options& options)
    : options_(options), base_(GenerateTour(options.base)) {
  MARS_CHECK_GE(options.members, 1);
}

std::vector<TourPoint> GroupTourGenerator::Tour(int32_t member) const {
  MARS_CHECK_GE(member, 0);
  MARS_CHECK_LT(member, options_.members);
  // Seed the member stream from (base seed, member) only, so a member's
  // tour is stable regardless of how many others share the group.
  common::Rng rng(options_.base.seed * 1'000'003ULL + 0x9e3779b9ULL +
                  static_cast<uint64_t>(member));

  std::vector<TourPoint> tour = base_;
  // Bounded random-walk offset: each frame the member drifts by a small
  // step and the offset is pulled back inside the jitter envelope, so the
  // group stays tight around the shared trajectory for the whole run.
  const double radius = kGroupPositionJitterM;
  const double step_sigma = radius * 0.2;
  Vec2 offset{rng.Uniform(-radius, radius) * 0.5,
              rng.Uniform(-radius, radius) * 0.5};
  for (TourPoint& point : tour) {
    offset += Vec2{rng.Normal(0.0, step_sigma), rng.Normal(0.0, step_sigma)};
    const double norm = offset.Norm();
    if (norm > radius && norm > 0.0) offset = offset * (radius / norm);
    point.position += offset;
    point.position.x = std::clamp(point.position.x,
                                  options_.base.space.lo(0),
                                  options_.base.space.hi(0));
    point.position.y = std::clamp(point.position.y,
                                  options_.base.space.lo(1),
                                  options_.base.space.hi(1));
    point.speed *= 1.0 + rng.Normal(0.0, kGroupSpeedJitter);
    point.speed = std::clamp(point.speed, 0.001, 1.0);
  }
  return tour;
}

double TourDistance(const std::vector<TourPoint>& tour) {
  double distance = 0.0;
  for (size_t i = 1; i < tour.size(); ++i) {
    distance += (tour[i].position - tour[i - 1].position).Norm();
  }
  return distance;
}

}  // namespace mars::workload
