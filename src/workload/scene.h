#ifndef MARS_WORKLOAD_SCENE_H_
#define MARS_WORKLOAD_SCENE_H_

#include <cstdint>

#include "common/statusor.h"
#include "geometry/box.h"
#include "server/object_db.h"

namespace mars::workload {

// Placement of objects over the data space (paper Sec. VII-E evaluates
// both uniform and Zipfian data sets).
enum class Placement {
  kUniform,
  kZipf,  // objects concentrate around Zipf-weighted cluster centers
};

// Skew of the Zipf weights over the cluster centers (Placement::kZipf).
inline constexpr double kZipfSkew = 0.9;
// Building dimensions (meters).
inline constexpr double kMinFootprint = 25.0;
inline constexpr double kMaxFootprint = 60.0;
inline constexpr double kMinHeight = 15.0;
inline constexpr double kMaxHeight = 60.0;
inline constexpr double kRoofFraction = 0.3;  // roof height / wall height
// Displacement noise: odd vertices of level j move by about
// amplitude · decay^j meters, so coarse levels carry large coefficients
// and fine levels small ones.
inline constexpr double kDisplacementAmplitude = 3.0;
inline constexpr double kDisplacementDecay = 0.45;

// Configuration of the synthetic augmented-reality city scene: procedural
// building meshes, subdivided and displaced to create multi-level detail,
// then wavelet-decomposed. With the defaults each object carries ~200 KB
// of records, so the paper's 100/200/300/400-object datasets weigh
// ≈ 20/40/60/80 MB (Sec. VII-A).
struct SceneOptions {
  geometry::Box2 space = geometry::MakeBox2(0, 0, 10000, 10000);
  int32_t object_count = 300;
  Placement placement = Placement::kUniform;
  int32_t zipf_clusters = 16;
  // Cluster spread (standard deviation, meters) for Zipf placement.
  double cluster_spread = 400.0;

  // Wavelet decomposition levels J; coefficients per object grow 4× per
  // level (21 · 4^j for the building base mesh).
  int32_t levels = 4;

  uint64_t seed = 42;
};

// Generates the scene and returns a finalized object database ready to
// serve. Fails only on inconsistent options.
common::StatusOr<server::ObjectDatabase> GenerateScene(
    const SceneOptions& options);

// Convenience: options for a dataset of roughly `megabytes` MB using the
// paper's sizing (100 objects ≈ 20 MB).
SceneOptions SceneForDatasetSize(int32_t megabytes, uint64_t seed = 42);

}  // namespace mars::workload

#endif  // MARS_WORKLOAD_SCENE_H_
