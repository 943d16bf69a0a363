#ifndef MARS_MESH_MESH_H_
#define MARS_MESH_MESH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"
#include "geometry/vec.h"

namespace mars::mesh {

// A triangle face referencing three vertex indices, counter-clockwise when
// viewed from outside.
using Face = std::array<int32_t, 3>;

// Indexed triangle mesh: the surface representation of a 3D object
// (paper Sec. III). Plain data holder; topological queries live in
// adjacency.h and subdivide.h.
class Mesh {
 public:
  Mesh() = default;
  Mesh(std::vector<geometry::Vec3> vertices, std::vector<Face> faces)
      : vertices_(std::move(vertices)), faces_(std::move(faces)) {}

  int32_t vertex_count() const {
    return static_cast<int32_t>(vertices_.size());
  }
  int32_t face_count() const { return static_cast<int32_t>(faces_.size()); }

  const std::vector<geometry::Vec3>& vertices() const { return vertices_; }
  const std::vector<Face>& faces() const { return faces_; }
  const geometry::Vec3& vertex(int32_t i) const { return vertices_[i]; }
  geometry::Vec3& mutable_vertex(int32_t i) { return vertices_[i]; }
  const Face& face(int32_t i) const { return faces_[i]; }

  // Appends a vertex and returns its index.
  int32_t AddVertex(const geometry::Vec3& v) {
    vertices_.push_back(v);
    return vertex_count() - 1;
  }
  void AddFace(int32_t a, int32_t b, int32_t c) {
    faces_.push_back(Face{a, b, c});
  }

  // Axis-aligned bounds of all vertices.
  geometry::Box3 Bounds() const;

  // Total surface area (sum of triangle areas).
  double SurfaceArea() const;

  // Verifies all face indices are in range and no face is degenerate
  // (repeated vertex index).
  common::Status Validate() const;

  // Translates all vertices by `offset`.
  void Translate(const geometry::Vec3& offset);

  // Scales all vertices about the origin.
  void Scale(double factor);

 private:
  std::vector<geometry::Vec3> vertices_;
  std::vector<Face> faces_;
};

// Number of distinct undirected edges in the mesh; a face index outside
// the vertex range fails a check.
int64_t CountEdges(const Mesh& mesh);

}  // namespace mars::mesh

#endif  // MARS_MESH_MESH_H_
