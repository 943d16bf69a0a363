#ifndef MARS_WORKLOAD_TOUR_H_
#define MARS_WORKLOAD_TOUR_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/vec.h"

namespace mars::workload {

// One sample of a client's movement: where it is, how fast it is going
// (normalized to [0, 1]) and the simulated timestamp of the query frame.
struct TourPoint {
  geometry::Vec2 position;
  double speed = 0.0;  // normalized
  double time = 0.0;   // seconds
};

// Kind of tour (paper Sec. VII-A: "head movements of 10 tourists in two
// different settings: (i) tram tours, (ii) pedestrian tours").
enum class TourKind {
  // Tram: long straight street segments, right-angle turns at
  // intersections, brief scheduled stops — highly predictable.
  kTram,
  // Pedestrian: correlated random walk with continuous heading drift and
  // speed jitter — much less predictable.
  kPedestrian,
};

struct TourOptions {
  TourKind kind = TourKind::kTram;
  geometry::Box2 space = geometry::MakeBox2(0, 0, 10000, 10000);
  // Normalized cruise speed in (0, 1]; the actual speed of each frame
  // varies slightly around it ("the speed of the clients may also slightly
  // vary at different parts of a tour", Sec. VII-C).
  double target_speed = 0.5;
  // Seconds between query frames.
  double frame_interval = 1.0;
  // Number of frames; ignored when `distance` > 0.
  int32_t frames = 300;
  // When > 0, the tour runs until this world distance (m) is covered —
  // the "clients traveling similar distances at varying speeds" setup of
  // Fig. 8.
  double distance = -1.0;
  // Frames a tram spends (nearly) stopped at each stop.
  int32_t tram_stop_frames = 2;

  uint64_t seed = 7;
};

// Generates a seeded tour. Positions stay inside `space` (paths reflect at
// the boundary).
std::vector<TourPoint> GenerateTour(const TourOptions& options);

// Maximum distance (meters) a group member strays from the group's base
// trajectory; the per-frame drift step is a fraction of it.
inline constexpr double kGroupPositionJitterM = 25.0;
// Relative per-frame speed noise of a member around the base point's
// speed.
inline constexpr double kGroupSpeedJitter = 0.05;

// Co-moving group (tour buses): N clients share ONE base trajectory —
// generated from `base` exactly as GenerateTour would — and each member
// rides a seeded per-member jittered copy of it: a bounded random-walk
// position offset (seat positions drifting within the vehicle's envelope)
// plus relative speed noise. Member tours therefore stay within
// ~kGroupPositionJitterM of each other for the whole run — the co-moving,
// overlapping-window workload that exercises cross-client coalescing
// beyond co-located spawns.
//
// Determinism: member m's tour depends only on (base options, m) — never
// on `members` or on which other members are generated.
class GroupTourGenerator {
 public:
  struct Options {
    TourOptions base;
    int32_t members = 1;
  };

  explicit GroupTourGenerator(const Options& options);

  // Member m's jittered copy of the shared trajectory (m in
  // [0, members)). Member jitter streams are seeded from
  // (base.seed, m) only.
  std::vector<TourPoint> Tour(int32_t member) const;

  const std::vector<TourPoint>& base() const { return base_; }

 private:
  Options options_;
  std::vector<TourPoint> base_;
};

// Total world distance covered by a tour.
double TourDistance(const std::vector<TourPoint>& tour);

}  // namespace mars::workload

#endif  // MARS_WORKLOAD_TOUR_H_
