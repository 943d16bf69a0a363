#include "workload/scene.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/vec.h"
#include "mesh/mesh.h"
#include "mesh/primitives.h"
#include "mesh/subdivide.h"
#include "wavelet/decompose.h"

namespace mars::workload {

namespace {

using geometry::Vec2;
using geometry::Vec3;

// Builds one displaced fine mesh from a base building: each subdivision
// step moves the new odd vertices by seeded noise whose amplitude decays
// with the level, so the wavelet analysis recovers coefficients with the
// intended coarse-large / fine-small magnitude profile.
mesh::Mesh MakeFineMesh(const mesh::Mesh& base, int32_t levels,
                        double amplitude, double decay, common::Rng& rng) {
  mesh::Mesh current = base;
  double level_amp = amplitude;
  for (int32_t j = 0; j < levels; ++j) {
    mesh::Subdivision sub = mesh::Subdivide(current);
    for (const mesh::OddVertex& odd : sub.odd_vertices) {
      // Random direction, magnitude uniform in [0.1, 1] × level amplitude
      // (the floor keeps coefficients from collapsing to zero).
      Vec3 dir{rng.Normal(), rng.Normal(), rng.Normal()};
      const double norm = dir.Norm();
      if (norm > 1e-12) dir = dir / norm;
      const double magnitude = level_amp * rng.Uniform(0.1, 1.0);
      sub.mesh.mutable_vertex(odd.vertex) += dir * magnitude;
    }
    current = std::move(sub.mesh);
    level_amp *= decay;
  }
  return current;
}

}  // namespace

common::StatusOr<server::ObjectDatabase> GenerateScene(
    const SceneOptions& options) {
  if (options.object_count < 1) {
    return common::InvalidArgumentError("object_count must be >= 1");
  }
  if (options.levels < 1) {
    return common::InvalidArgumentError("levels must be >= 1");
  }
  if (options.space.IsEmpty()) {
    return common::InvalidArgumentError("space must be non-empty");
  }

  common::Rng rng(options.seed);
  server::ObjectDatabase db;

  // Zipf cluster centers, if any.
  std::vector<Vec2> clusters;
  if (options.placement == Placement::kZipf) {
    for (int32_t c = 0; c < options.zipf_clusters; ++c) {
      clusters.push_back(
          {rng.Uniform(options.space.lo(0), options.space.hi(0)),
           rng.Uniform(options.space.lo(1), options.space.hi(1))});
    }
  }
  common::ZipfSampler zipf(std::max<int32_t>(options.zipf_clusters, 1),
                           kZipfSkew);

  for (int32_t i = 0; i < options.object_count; ++i) {
    common::Rng object_rng = rng.Fork();

    // Footprint and height.
    const double w = object_rng.Uniform(kMinFootprint, kMaxFootprint);
    const double d = object_rng.Uniform(kMinFootprint, kMaxFootprint);
    const double h = object_rng.Uniform(kMinHeight, kMaxHeight);
    mesh::Mesh base = mesh::MakeBuilding(w, d, h, h * kRoofFraction);

    // World placement.
    Vec2 pos;
    if (options.placement == Placement::kUniform) {
      pos = {object_rng.Uniform(options.space.lo(0),
                                options.space.hi(0) - w),
             object_rng.Uniform(options.space.lo(1),
                                options.space.hi(1) - d)};
    } else {
      const Vec2& center = clusters[zipf.Sample(object_rng)];
      pos = {center.x + object_rng.Normal(0.0, options.cluster_spread),
             center.y + object_rng.Normal(0.0, options.cluster_spread)};
      pos.x = std::clamp(pos.x, options.space.lo(0),
                         options.space.hi(0) - w);
      pos.y = std::clamp(pos.y, options.space.lo(1),
                         options.space.hi(1) - d);
    }
    base.Translate(Vec3{pos.x, pos.y, 0.0});

    const mesh::Mesh fine =
        MakeFineMesh(base, options.levels, kDisplacementAmplitude,
                     kDisplacementDecay, object_rng);
    auto decomposed = wavelet::Decompose(fine, base, options.levels);
    if (!decomposed.ok()) return decomposed.status();
    db.AddObject(std::move(decomposed).value());
  }

  db.FinalizeRecords();
  return db;
}

SceneOptions SceneForDatasetSize(int32_t megabytes, uint64_t seed) {
  SceneOptions options;
  options.seed = seed;
  // Paper sizing: 20 MB ↔ 100 objects, 80 MB ↔ 400 objects.
  options.object_count = megabytes * 5;
  return options;
}

}  // namespace mars::workload
