#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mesh/adjacency.h"
#include "mesh/mesh.h"
#include "mesh/primitives.h"
#include "mesh/subdivide.h"

namespace mars::mesh {
namespace {

// --- Primitives -----------------------------------------------------------

TEST(PrimitivesTest, TetrahedronIsValidClosedManifold) {
  const Mesh m = MakeTetrahedron();
  EXPECT_EQ(m.vertex_count(), 4);
  EXPECT_EQ(m.face_count(), 4);
  EXPECT_TRUE(m.Validate().ok());
  // Euler characteristic of a sphere-like surface: V - E + F = 2.
  EXPECT_EQ(m.vertex_count() - CountEdges(m) + m.face_count(), 2);
}

TEST(PrimitivesTest, OctahedronEuler) {
  const Mesh m = MakeOctahedron();
  EXPECT_EQ(m.vertex_count(), 6);
  EXPECT_EQ(m.face_count(), 8);
  EXPECT_EQ(CountEdges(m), 12);
  EXPECT_EQ(m.vertex_count() - CountEdges(m) + m.face_count(), 2);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(PrimitivesTest, BoxGeometry) {
  const Mesh m = MakeBox(2, 3, 4);
  EXPECT_EQ(m.vertex_count(), 8);
  EXPECT_EQ(m.face_count(), 12);
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_EQ(m.vertex_count() - CountEdges(m) + m.face_count(), 2);
  const geometry::Box3 bounds = m.Bounds();
  EXPECT_EQ(bounds, geometry::MakeBox3(0, 0, 0, 2, 3, 4));
  // Surface area of a 2x3x4 box: 2(2·3 + 3·4 + 2·4) = 52.
  EXPECT_NEAR(m.SurfaceArea(), 52.0, 1e-9);
}

TEST(PrimitivesTest, BuildingIsValidClosedManifold) {
  const Mesh m = MakeBuilding(20, 30, 15, 5);
  EXPECT_EQ(m.vertex_count(), 9);   // 8 box corners + apex
  EXPECT_EQ(m.face_count(), 14);    // 12 - 2 top + 4 roof
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_EQ(m.vertex_count() - CountEdges(m) + m.face_count(), 2);
  const geometry::Box3 bounds = m.Bounds();
  EXPECT_DOUBLE_EQ(bounds.hi(2), 20.0);  // walls 15 + roof 5
}

TEST(PrimitivesTest, TerrainPatchIsOpenAndValid) {
  const Mesh m = MakeTerrainPatch(4, 3, 100, 60);
  EXPECT_EQ(m.vertex_count(), 5 * 4);
  EXPECT_EQ(m.face_count(), 4 * 3 * 2);
  EXPECT_TRUE(m.Validate().ok());
  // Open surface with boundary: V - E + F = 1 for a disk.
  EXPECT_EQ(m.vertex_count() - CountEdges(m) + m.face_count(), 1);
  EXPECT_NEAR(m.SurfaceArea(), 100.0 * 60.0, 1e-9);
}

TEST(PrimitivesTest, TerrainPatchMinimumSize) {
  const Mesh m = MakeTerrainPatch(1, 1, 10, 10);
  EXPECT_EQ(m.vertex_count(), 4);
  EXPECT_EQ(m.face_count(), 2);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(SubdivideTest, OpenMeshesSubdivide) {
  // Boundary edges split like interior ones; Euler characteristic of the
  // disk is preserved.
  const Mesh base = MakeTerrainPatch(2, 2, 10, 10);
  const Subdivision sub = Subdivide(base);
  EXPECT_EQ(sub.mesh.vertex_count(),
            base.vertex_count() + CountEdges(base));
  EXPECT_EQ(sub.mesh.face_count(), 4 * base.face_count());
  EXPECT_TRUE(sub.mesh.Validate().ok());
  EXPECT_EQ(sub.mesh.vertex_count() - CountEdges(sub.mesh) +
                sub.mesh.face_count(),
            1);
}

TEST(MeshTest, ValidateCatchesOutOfRangeIndex) {
  Mesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, {{0, 1, 5}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MeshTest, ValidateCatchesDegenerateFace) {
  Mesh m({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, {{0, 1, 1}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MeshTest, TranslateAndScale) {
  Mesh m = MakeBox(1, 1, 1);
  m.Translate({10, 20, 30});
  EXPECT_EQ(m.Bounds(), geometry::MakeBox3(10, 20, 30, 11, 21, 31));
  Mesh s = MakeBox(1, 1, 1);
  s.Scale(3.0);
  EXPECT_EQ(s.Bounds(), geometry::MakeBox3(0, 0, 0, 3, 3, 3));
}

// --- Edge map ---------------------------------------------------------------

// The map-based edge table EdgeMap replaced, frozen as the oracle for edge
// numbering: first appearance over the faces, sides (f0, f1), (f1, f2),
// (f2, f0) in turn, found through a std::map.
class FrozenMapEdgeMap {
 public:
  explicit FrozenMapEdgeMap(const Mesh& mesh) {
    for (const Face& f : mesh.faces()) {
      for (int k = 0; k < 3; ++k) {
        const auto key = EdgeKey(f[k], f[(k + 1) % 3]);
        if (index_.emplace(key, static_cast<int32_t>(edges_.size()))
                .second) {
          edges_.push_back(key);
        }
      }
    }
  }

  int32_t IndexOf(int32_t a, int32_t b) const {
    const auto it = index_.find(EdgeKey(a, b));
    return it == index_.end() ? -1 : it->second;
  }
  const std::vector<std::pair<int32_t, int32_t>>& edges() const {
    return edges_;
  }

 private:
  std::map<std::pair<int32_t, int32_t>, int32_t> index_;
  std::vector<std::pair<int32_t, int32_t>> edges_;
};

// Edge order, IndexOf over every vertex pair including two out-of-range
// vertices on each side, and every face side's edge id, against the
// frozen map.
void ExpectEdgeMapMatchesFrozen(const Mesh& mesh) {
  const EdgeMap edges(mesh);
  const FrozenMapEdgeMap frozen(mesh);
  ASSERT_EQ(edges.edges(), frozen.edges());
  EXPECT_EQ(edges.edge_count(), static_cast<int32_t>(frozen.edges().size()));
  EXPECT_EQ(CountEdges(mesh), edges.edge_count());
  const int32_t n = mesh.vertex_count();
  for (int32_t a = -2; a < n + 2; ++a) {
    for (int32_t b = -2; b < n + 2; ++b) {
      ASSERT_EQ(edges.IndexOf(a, b), frozen.IndexOf(a, b))
          << "IndexOf(" << a << ", " << b << ")";
    }
  }
  ASSERT_EQ(edges.face_edges().size(), mesh.faces().size());
  for (size_t i = 0; i < mesh.faces().size(); ++i) {
    const Face& f = mesh.faces()[i];
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(edges.face_edges()[i][k],
                frozen.IndexOf(f[k], f[(k + 1) % 3]))
          << "face " << i << " side " << k;
    }
  }
}

TEST(EdgeMapTest, MatchesFrozenMapOnRandomMeshes) {
  // Random triangles over a small vertex set: shared, non-manifold and
  // repeated edges, faces in both orientations, unused vertices.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    const int32_t n = static_cast<int32_t>(rng.UniformInt(4, 40));
    const int32_t face_count = static_cast<int32_t>(rng.UniformInt(1, 80));
    const auto random_vertex = [&] {
      return static_cast<int32_t>(rng.UniformInt(0, n - 1));
    };
    Mesh mesh(std::vector<geometry::Vec3>(n), {});
    while (mesh.face_count() < face_count) {
      const int32_t a = random_vertex(), b = random_vertex(),
                    c = random_vertex();
      if (a != b && b != c && a != c) mesh.AddFace(a, b, c);
    }
    ExpectEdgeMapMatchesFrozen(mesh);
  }
}

TEST(EdgeMapTest, MatchesFrozenMapOnMeshesAndTheirSubdivisions) {
  const std::vector<std::pair<std::string, Mesh>> shapes = {
      {"terrain 4x3", MakeTerrainPatch(4, 3, 100, 60)},
      {"terrain 1x1", MakeTerrainPatch(1, 1, 10, 10)},
      {"terrain 2x5", MakeTerrainPatch(2, 5, 20, 50)},
      {"octahedron", MakeOctahedron()},
      {"building", MakeBuilding(10, 12, 8, 3)},
  };
  for (const auto& [name, base] : shapes) {
    Mesh mesh = base;
    for (int level = 0; level <= 2; ++level) {
      SCOPED_TRACE(name + " level " + std::to_string(level));
      ExpectEdgeMapMatchesFrozen(mesh);
      mesh = Subdivide(mesh).mesh;
    }
  }
}

TEST(EdgeMapTest, MatchesFrozenMapWithUnusedVertices) {
  // Vertices 0, 3, 6 and 9 belong to no face; IndexOf answers -1 for them.
  Mesh mesh(std::vector<geometry::Vec3>(10),
            {{1, 2, 4}, {4, 2, 5}, {5, 7, 4}, {8, 7, 5}});
  ExpectEdgeMapMatchesFrozen(mesh);
  const EdgeMap edges(mesh);
  EXPECT_EQ(edges.edge_count(), 9);
  for (int32_t v = 0; v < 10; ++v) {
    EXPECT_EQ(edges.IndexOf(0, v), -1);
    EXPECT_EQ(edges.IndexOf(v, 9), -1);
  }
}

TEST(EdgeMapTest, EdgeSharedByThreeFacesHasOneId) {
  Mesh mesh(std::vector<geometry::Vec3>(5), {{0, 1, 2}, {1, 0, 3}, {0, 1, 4}});
  ExpectEdgeMapMatchesFrozen(mesh);
  const EdgeMap edges(mesh);
  EXPECT_EQ(edges.edge_count(), 7);
  EXPECT_EQ(edges.face_edges()[0][0], 0);
  EXPECT_EQ(edges.face_edges()[1][0], 0);
  EXPECT_EQ(edges.face_edges()[2][0], 0);
  // The split edge's midpoint is shared by all three faces' children.
  const Subdivision sub = Subdivide(mesh);
  int32_t faces_on_midpoint = 0;
  for (const Face& f : sub.mesh.faces()) {
    faces_on_midpoint += f[0] == 5 || f[1] == 5 || f[2] == 5;
  }
  EXPECT_EQ(faces_on_midpoint, 9);
}

TEST(EdgeMapDeathTest, FaceIndexPastVertexCountFailsCheck) {
  // Re-executes the binary rather than forking it, so the test is safe
  // under the thread sanitizer too.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Mesh past({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, {{0, 1, 2}, {0, 2, 3}});
  EXPECT_DEATH(EdgeMap{past}, "face vertex 3 outside \\[0, 3\\)");
  const Mesh negative({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, {{0, -1, 2}});
  EXPECT_DEATH(CountEdges(negative), "face vertex -1 outside");
}

TEST(EdgeMapTest, IndicesDenseAndSymmetric) {
  const Mesh m = MakeOctahedron();
  const EdgeMap edges(m);
  EXPECT_EQ(edges.edge_count(), 12);
  std::set<int32_t> seen;
  for (int32_t e = 0; e < edges.edge_count(); ++e) {
    const auto [a, b] = edges.edge(e);
    EXPECT_EQ(edges.IndexOf(a, b), e);
    EXPECT_EQ(edges.IndexOf(b, a), e);
    seen.insert(e);
  }
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(edges.IndexOf(0, 1), -1);  // antipodal: no edge
}

// --- Subdivision ------------------------------------------------------------

// For a closed triangle mesh, one 1:4 subdivision gives V' = V + E,
// E' = 2E + 3F, F' = 4F.
class SubdivideCountsTest : public ::testing::TestWithParam<int> {
 protected:
  Mesh BaseFor(int which) const {
    switch (which) {
      case 0:
        return MakeTetrahedron();
      case 1:
        return MakeOctahedron();
      case 2:
        return MakeBox(1, 2, 3);
      default:
        return MakeBuilding(10, 12, 8, 3);
    }
  }
};

TEST_P(SubdivideCountsTest, CountsFollowRegularSubdivision) {
  const Mesh base = BaseFor(GetParam());
  const int64_t v = base.vertex_count();
  const int64_t e = CountEdges(base);
  const int64_t f = base.face_count();
  const Subdivision sub = Subdivide(base);
  EXPECT_EQ(sub.mesh.vertex_count(), v + e);
  EXPECT_EQ(sub.mesh.face_count(), 4 * f);
  EXPECT_EQ(CountEdges(sub.mesh), 2 * e + 3 * f);
  EXPECT_EQ(static_cast<int64_t>(sub.odd_vertices.size()), e);
  EXPECT_TRUE(sub.mesh.Validate().ok());
  // Euler characteristic is preserved.
  EXPECT_EQ(sub.mesh.vertex_count() - CountEdges(sub.mesh) +
                sub.mesh.face_count(),
            v - e + f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SubdivideCountsTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(SubdivideTest, EvenVerticesKeepIndicesAndPositions) {
  const Mesh base = MakeOctahedron();
  const Subdivision sub = Subdivide(base);
  for (int32_t i = 0; i < base.vertex_count(); ++i) {
    EXPECT_EQ(sub.mesh.vertex(i), base.vertex(i));
  }
}

TEST(SubdivideTest, OddVerticesAtParentMidpoints) {
  const Mesh base = MakeTetrahedron();
  const Subdivision sub = Subdivide(base);
  for (const OddVertex& odd : sub.odd_vertices) {
    const geometry::Vec3 expected = geometry::Midpoint(
        base.vertex(odd.parent_a), base.vertex(odd.parent_b));
    EXPECT_EQ(sub.mesh.vertex(odd.vertex), expected);
    EXPECT_GE(odd.vertex, base.vertex_count());
  }
}

TEST(SubdivideTest, SurfaceAreaPreservedByMidpointSplit) {
  // Pure midpoint subdivision does not change the surface.
  const Mesh base = MakeBuilding(10, 10, 10, 4);
  const Subdivision sub = Subdivide(base);
  EXPECT_NEAR(sub.mesh.SurfaceArea(), base.SurfaceArea(), 1e-9);
}

TEST(SubdivideTest, DeterministicOddOrder) {
  const Mesh base = MakeOctahedron();
  const Subdivision a = Subdivide(base);
  const Subdivision b = Subdivide(base);
  ASSERT_EQ(a.odd_vertices.size(), b.odd_vertices.size());
  for (size_t i = 0; i < a.odd_vertices.size(); ++i) {
    EXPECT_EQ(a.odd_vertices[i].vertex, b.odd_vertices[i].vertex);
    EXPECT_EQ(a.odd_vertices[i].parent_a, b.odd_vertices[i].parent_a);
    EXPECT_EQ(a.odd_vertices[i].parent_b, b.odd_vertices[i].parent_b);
  }
}

TEST(SubdivideTest, RepeatedSubdivisionGrowsGeometrically) {
  Mesh m = MakeBuilding(10, 10, 10, 3);
  const int64_t f0 = m.face_count();
  for (int level = 1; level <= 3; ++level) {
    m = Subdivide(m).mesh;
    EXPECT_EQ(m.face_count(), f0 * (1LL << (2 * level)));
    ASSERT_TRUE(m.Validate().ok());
  }
}

}  // namespace
}  // namespace mars::mesh
