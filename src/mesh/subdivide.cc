#include "mesh/subdivide.h"

#include <utility>

#include "geometry/vec.h"
#include "mesh/adjacency.h"

namespace mars::mesh {

Subdivision Subdivide(const Mesh& coarse) {
  const EdgeMap edge_map(coarse);
  const int32_t even_count = coarse.vertex_count();
  Subdivision out;

  // Even vertices keep their indices; one odd vertex per coarse edge is
  // appended in edge-index order.
  std::vector<geometry::Vec3> vertices;
  vertices.reserve(static_cast<size_t>(even_count) + edge_map.edge_count());
  vertices.insert(vertices.end(), coarse.vertices().begin(),
                  coarse.vertices().end());
  out.odd_vertices.reserve(edge_map.edge_count());
  for (const auto& [a, b] : edge_map.edges()) {
    out.odd_vertices.push_back(
        OddVertex{static_cast<int32_t>(vertices.size()), a, b});
    vertices.push_back(
        geometry::Midpoint(coarse.vertex(a), coarse.vertex(b)));
  }

  std::vector<Face> faces;
  faces.reserve(4 * coarse.faces().size());
  for (size_t i = 0; i < coarse.faces().size(); ++i) {
    const auto [a, b, c] = coarse.faces()[i];
    const auto [ab, bc, ca] = edge_map.face_edges()[i];
    const int32_t mab = even_count + ab;
    const int32_t mbc = even_count + bc;
    const int32_t mca = even_count + ca;
    faces.push_back({a, mab, mca});
    faces.push_back({b, mbc, mab});
    faces.push_back({c, mca, mbc});
    faces.push_back({mab, mbc, mca});
  }
  out.mesh = Mesh(std::move(vertices), std::move(faces));
  out.face_edges = edge_map.face_edges();
  return out;
}

}  // namespace mars::mesh
