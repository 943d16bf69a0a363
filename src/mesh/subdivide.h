#ifndef MARS_MESH_SUBDIVIDE_H_
#define MARS_MESH_SUBDIVIDE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/mesh.h"

namespace mars::mesh {

// A vertex introduced by one subdivision step: the midpoint of the parent
// edge (parent_a, parent_b) in the coarser mesh. "Odd" in the lifting-scheme
// sense; the original vertices are "even".
struct OddVertex {
  int32_t vertex = 0;    // index in the subdivided mesh
  int32_t parent_a = 0;  // endpoints of the split edge (coarse indices ==
  int32_t parent_b = 0;  // fine indices, evens keep their numbering)
};

// Result of one 1:4 subdivision step (paper Fig. 1(b)): every edge gains a
// midpoint vertex and every face (a, b, c) is replaced by four faces. Even
// vertices keep their indices; odd vertices are appended in edge-index
// order, so vertex i >= coarse.vertex_count() corresponds to odd_vertices
// [i - coarse.vertex_count()].
struct Subdivision {
  Mesh mesh;
  std::vector<OddVertex> odd_vertices;
  // Per coarse face (a, b, c): the odd_vertices indices of the midpoints of
  // its sides (a, b), (b, c), (c, a). Coarse face i becomes faces 4i..4i+3
  // of `mesh`.
  std::vector<std::array<int32_t, 3>> face_edges;
};

// Regularly subdivides `coarse` 1:4. Midpoints are placed exactly at the
// parent-edge midpoints (the "lazy wavelet" prediction); callers displace
// them afterwards to add detail or to apply wavelet coefficients.
Subdivision Subdivide(const Mesh& coarse);

}  // namespace mars::mesh

#endif  // MARS_MESH_SUBDIVIDE_H_
