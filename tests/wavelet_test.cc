#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mesh/mesh.h"
#include "mesh/primitives.h"
#include "mesh/subdivide.h"
#include "wavelet/decompose.h"
#include "wavelet/multires_mesh.h"
#include "wavelet/reconstruct.h"

namespace mars::wavelet {
namespace {

// Builds a displaced fine mesh from `base` with the given per-level
// displacement amplitudes, mirroring the scene generator.
mesh::Mesh DisplacedFine(const mesh::Mesh& base, int levels,
                         double amplitude, double decay, uint64_t seed) {
  common::Rng rng(seed);
  mesh::Mesh current = base;
  double amp = amplitude;
  for (int j = 0; j < levels; ++j) {
    mesh::Subdivision sub = mesh::Subdivide(current);
    for (const mesh::OddVertex& odd : sub.odd_vertices) {
      geometry::Vec3 dir{rng.Normal(), rng.Normal(), rng.Normal()};
      const double n = dir.Norm();
      if (n > 1e-12) dir = dir / n;
      sub.mesh.mutable_vertex(odd.vertex) +=
          dir * (amp * rng.Uniform(0.2, 1.0));
    }
    current = std::move(sub.mesh);
    amp *= decay;
  }
  return current;
}

class DecomposeTest : public ::testing::TestWithParam<int> {
 protected:
  int levels() const { return GetParam(); }
};

TEST_P(DecomposeTest, PerfectReconstructionWithAllCoefficients) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, levels(), 2.0, 0.5, 17);
  auto mr = Decompose(fine, base, levels());
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  const mesh::Mesh rebuilt = Reconstruct(*mr, 0.0);
  ASSERT_EQ(rebuilt.vertex_count(), fine.vertex_count());
  EXPECT_LT(MaxVertexDistance(rebuilt, fine), 1e-9);
}

TEST_P(DecomposeTest, CoefficientCountMatchesEdgeGrowth) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, levels(), 2.0, 0.5, 18);
  auto mr = Decompose(fine, base, levels());
  ASSERT_TRUE(mr.ok());
  // Level j has E_j = E_0·4^j coefficients (one per coarse edge).
  const int64_t e0 = mesh::CountEdges(base);
  int64_t expected = 0;
  for (int j = 0; j < levels(); ++j) expected += e0 * (1LL << (2 * j));
  EXPECT_EQ(mr->coefficient_count(), expected);
  for (int j = 0; j < levels(); ++j) {
    EXPECT_EQ(static_cast<int64_t>(mr->CoefficientsAtLevel(j).size()),
              e0 * (1LL << (2 * j)));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, DecomposeTest, ::testing::Values(1, 2, 3));

TEST(DecomposeTest, RejectsMismatchedConnectivity) {
  const mesh::Mesh base = mesh::MakeTetrahedron();
  const mesh::Mesh fine = DisplacedFine(base, 2, 1.0, 0.5, 3);
  // Claiming 1 level for a 2-level mesh must fail.
  EXPECT_FALSE(Decompose(fine, base, 1).ok());
  // Wrong base entirely must fail.
  EXPECT_FALSE(Decompose(fine, mesh::MakeOctahedron(), 2).ok());
}

TEST(DecomposeTest, RejectsFacesThatAreNotTheSubdivision) {
  // Vertex and face counts of a two-level subdivision of the base, but
  // one face re-pointed at another vertex: its one-rings are not the ones
  // the analysis would read, so the mesh is refused.
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 2, 2.0, 0.5, 5);
  ASSERT_TRUE(Decompose(fine, base, 2).ok());
  std::vector<mesh::Face> faces = fine.faces();
  const int32_t far_vertex = fine.vertex_count() - 1;
  ASSERT_EQ(std::count(faces[7].begin(), faces[7].end(), far_vertex), 0);
  faces[7][1] = far_vertex;
  const mesh::Mesh repointed(fine.vertices(), std::move(faces));
  ASSERT_TRUE(repointed.Validate().ok());
  const auto mr = Decompose(repointed, base, 2);
  ASSERT_FALSE(mr.ok());
  EXPECT_EQ(mr.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(mr.status().message().find("face 7 differs"), std::string::npos)
      << mr.status().message();
}

TEST(DecomposeTest, RejectsNegativeLevels) {
  const mesh::Mesh base = mesh::MakeTetrahedron();
  EXPECT_FALSE(Decompose(base, base, -1).ok());
}

TEST(DecomposeTest, ZeroLevelsYieldsBaseOnly) {
  const mesh::Mesh base = mesh::MakeTetrahedron();
  auto mr = Decompose(base, base, 0);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->coefficient_count(), 0);
  EXPECT_EQ(mr->base().vertex_count(), 4);
}

TEST(DecomposeTest, ValuesNormalizedToUnitInterval) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 3, 2.0, 0.4, 19);
  auto mr = Decompose(fine, base, 3);
  ASSERT_TRUE(mr.ok());
  double max_w = 0.0;
  for (const WaveletCoefficient& c : mr->coefficients()) {
    EXPECT_GE(c.w, 0.0);
    EXPECT_LE(c.w, 1.0);
    max_w = std::max(max_w, c.w);
    EXPECT_NEAR(c.magnitude, c.detail.Norm(), 1e-12);
  }
  EXPECT_DOUBLE_EQ(max_w, 1.0);  // the largest coefficient defines 1.0
}

TEST(DecomposeTest, SmoothObjectHasZeroValues) {
  // No displacement: all details are exactly zero.
  const mesh::Mesh base = mesh::MakeOctahedron();
  mesh::Mesh fine = base;
  for (int j = 0; j < 2; ++j) fine = mesh::Subdivide(fine).mesh;
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok());
  for (const WaveletCoefficient& c : mr->coefficients()) {
    EXPECT_DOUBLE_EQ(c.w, 0.0);
    EXPECT_DOUBLE_EQ(c.magnitude, 0.0);
  }
}

TEST(DecomposeTest, CoarseLevelsCarryLargerValues) {
  // With decaying displacement, mean |coefficient| should fall with level.
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 3, 3.0, 0.4, 21);
  auto mr = Decompose(fine, base, 3);
  ASSERT_TRUE(mr.ok());
  std::vector<double> mean_w(3, 0.0);
  std::vector<int> count(3, 0);
  for (const WaveletCoefficient& c : mr->coefficients()) {
    mean_w[c.level] += c.w;
    ++count[c.level];
  }
  for (int j = 0; j < 3; ++j) mean_w[j] /= count[j];
  EXPECT_GT(mean_w[0], mean_w[1]);
  EXPECT_GT(mean_w[1], mean_w[2]);
}

TEST(ReconstructTest, ApproximationErrorMonotoneInThreshold) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 3, 2.0, 0.5, 23);
  auto mr = Decompose(fine, base, 3);
  ASSERT_TRUE(mr.ok());
  // Lowering w_min adds coefficients, so the error must not increase.
  const std::vector<double> thresholds = {1.1, 0.8, 0.5, 0.2, 0.0};
  double prev_error = std::numeric_limits<double>::max();
  for (double t : thresholds) {
    const double err = MeanVertexDistance(Reconstruct(*mr, t), fine);
    EXPECT_LE(err, prev_error + 1e-12) << "threshold " << t;
    prev_error = err;
  }
  EXPECT_NEAR(prev_error, 0.0, 1e-9);
}

TEST(ReconstructTest, SubsetSelectsIndividualCoefficients) {
  const mesh::Mesh base = mesh::MakeTetrahedron();
  const mesh::Mesh fine = DisplacedFine(base, 1, 1.0, 0.5, 29);
  auto mr = Decompose(fine, base, 1);
  ASSERT_TRUE(mr.ok());
  ASSERT_GT(mr->coefficient_count(), 0);

  // Applying exactly one coefficient moves exactly one vertex.
  std::vector<bool> include(mr->coefficient_count(), false);
  include[0] = true;
  const mesh::Mesh partial = ReconstructSubset(*mr, include);
  const mesh::Mesh none = Reconstruct(*mr, 2.0);
  int moved = 0;
  for (int32_t v = 0; v < partial.vertex_count(); ++v) {
    if ((partial.vertex(v) - none.vertex(v)).Norm() > 1e-12) ++moved;
  }
  EXPECT_EQ(moved, 1);
}

TEST(ReconstructTest, BaseShapePreservedAtAnyThreshold) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 2, 2.0, 0.5, 31);
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok());
  const mesh::Mesh coarse = Reconstruct(*mr, 2.0);  // no coefficients
  // Even vertices (the base) keep their fine positions.
  for (int32_t v = 0; v < base.vertex_count(); ++v) {
    EXPECT_LT((coarse.vertex(v) - fine.vertex(v)).Norm(), 1e-12);
  }
}

TEST(SupportRegionTest, BoundsContainVertexAndParents) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 2, 2.0, 0.5, 37);
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok());
  for (const WaveletCoefficient& c : mr->coefficients()) {
    const geometry::Vec3& v = c.vertex_position;
    EXPECT_TRUE(c.support_bounds.ContainsPoint({v.x, v.y, v.z}))
        << "coefficient " << c.id;
    // The parent edge endpoints are in the one-ring of the odd vertex.
    const geometry::Vec3& a = fine.vertex(c.parent_a);
    const geometry::Vec3& b = fine.vertex(c.parent_b);
    EXPECT_TRUE(c.support_bounds.ContainsPoint({a.x, a.y, a.z}));
    EXPECT_TRUE(c.support_bounds.ContainsPoint({b.x, b.y, b.z}));
  }
}

TEST(SupportRegionTest, BoundsEqualOneRingBoxInTheFinerMesh) {
  // Brute force over M^{level+1}'s faces: a coefficient's support box is
  // the box of its vertex and of every vertex sharing a face with it, at
  // final-mesh positions.
  const std::vector<std::pair<std::string, mesh::Mesh>> shapes = {
      {"building", mesh::MakeBuilding(20, 25, 15, 5)},
      {"octahedron", mesh::MakeOctahedron()},
      {"terrain", mesh::MakeTerrainPatch(3, 2, 90, 60)},
  };
  for (const auto& [name, base] : shapes) {
    for (int levels = 1; levels <= 4; ++levels) {
      SCOPED_TRACE(name + ", " + std::to_string(levels) + " levels");
      const mesh::Mesh fine = DisplacedFine(base, levels, 2.0, 0.5, 59);
      auto mr = Decompose(fine, base, levels);
      ASSERT_TRUE(mr.ok()) << mr.status().ToString();
      mesh::Mesh coarse = base;
      for (int j = 0; j < levels; ++j) {
        mesh::Mesh finer = mesh::Subdivide(coarse).mesh;
        std::vector<geometry::Box3> ring(finer.vertex_count());
        for (const mesh::Face& f : finer.faces()) {
          for (const int32_t v : f) {
            for (const int32_t u : f) {
              const geometry::Vec3& p = fine.vertex(u);
              ring[v].ExtendPoint({p.x, p.y, p.z});
            }
          }
        }
        for (const int32_t id : mr->CoefficientsAtLevel(j)) {
          const WaveletCoefficient& c = mr->coefficient(id);
          ASSERT_EQ(c.support_bounds, ring[c.vertex])
              << "level " << j << " coefficient " << id;
        }
        coarse = std::move(finer);
      }
    }
  }
}

TEST(SupportRegionTest, SubsetMonotonicityProperty) {
  // Paper Sec. VI-A: if R2 ⊆ R1 then the region affected by a new
  // coefficient's support within R2 is a subset of that within R1:
  // (R2 ∩ r_k) ⊆ (R1 ∩ r_k). Verified over the generated support MBBs.
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 2, 2.0, 0.5, 41);
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok());

  const geometry::Box3 r1 = mr->Bounds();
  geometry::Box3 r2 = r1;
  // Shrink R2 to an octant of R1.
  for (size_t d = 0; d < 3; ++d) {
    r2.set_hi(d, 0.5 * (r1.lo(d) + r1.hi(d)));
  }
  ASSERT_TRUE(r1.Contains(r2));
  for (const WaveletCoefficient& c : mr->coefficients()) {
    const geometry::Box3 affected1 = r1.Intersection(c.support_bounds);
    const geometry::Box3 affected2 = r2.Intersection(c.support_bounds);
    EXPECT_TRUE(affected1.Contains(affected2));
  }
}

TEST(MultiResMeshTest, CountAtLeastMonotone) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 3, 2.0, 0.5, 43);
  auto mr = Decompose(fine, base, 3);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->CountAtLeast(0.0), mr->coefficient_count());
  int64_t prev = mr->coefficient_count() + 1;
  for (double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const int64_t n = mr->CountAtLeast(w);
    EXPECT_LE(n, prev);
    prev = n;
  }
  EXPECT_GE(mr->CountAtLeast(1.0), 1);  // the max-magnitude coefficient
}

TEST(MultiResMeshTest, BoundsCoverBaseAndSupports) {
  const mesh::Mesh base = mesh::MakeBuilding(20, 25, 15, 5);
  const mesh::Mesh fine = DisplacedFine(base, 2, 2.0, 0.5, 47);
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok());
  const geometry::Box3 bounds = mr->Bounds();
  EXPECT_TRUE(bounds.Contains(mr->base().Bounds()));
  for (const WaveletCoefficient& c : mr->coefficients()) {
    EXPECT_TRUE(bounds.Contains(c.support_bounds));
  }
}

TEST(DecomposeTest, OpenTerrainMeshRoundTrips) {
  // The wavelet pipeline is not limited to closed building shells: a
  // displaced terrain patch (open mesh with boundary) decomposes and
  // reconstructs exactly.
  const mesh::Mesh base = mesh::MakeTerrainPatch(3, 3, 90, 90);
  common::Rng rng(71);
  mesh::Mesh fine = base;
  for (int j = 0; j < 2; ++j) {
    mesh::Subdivision sub = mesh::Subdivide(fine);
    for (const mesh::OddVertex& odd : sub.odd_vertices) {
      // Terrain-style displacement: mostly vertical.
      sub.mesh.mutable_vertex(odd.vertex) +=
          geometry::Vec3{rng.Normal(0, 0.2), rng.Normal(0, 0.2),
                         rng.Normal(0, 2.0)};
    }
    fine = std::move(sub.mesh);
  }
  auto mr = Decompose(fine, base, 2);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  EXPECT_LT(MaxVertexDistance(Reconstruct(*mr, 0.0), fine), 1e-9);
  // Coarse approximations remain valid open meshes.
  const mesh::Mesh coarse = Reconstruct(*mr, 0.5);
  EXPECT_TRUE(coarse.Validate().ok());
}

TEST(ReconstructTest, IdsAlignWithSubdivisionOrder) {
  // The decompose/reconstruct contract: level-j coefficients appear in the
  // deterministic odd-vertex order of Subdivide. ReconstructSubset CHECKs
  // this internally; run it across several levels to exercise the CHECK.
  const mesh::Mesh base = mesh::MakeOctahedron();
  const mesh::Mesh fine = DisplacedFine(base, 3, 1.0, 0.5, 53);
  auto mr = Decompose(fine, base, 3);
  ASSERT_TRUE(mr.ok());
  const std::vector<bool> all(mr->coefficient_count(), true);
  const mesh::Mesh rebuilt = ReconstructSubset(*mr, all);
  EXPECT_LT(MaxVertexDistance(rebuilt, fine), 1e-9);
}

}  // namespace
}  // namespace mars::wavelet
