#include "mesh/mesh.h"

#include <cstdint>
#include <string>

#include "mesh/adjacency.h"

namespace mars::mesh {

geometry::Box3 Mesh::Bounds() const {
  geometry::Box3 box;
  for (const geometry::Vec3& v : vertices_) {
    box.ExtendPoint({v.x, v.y, v.z});
  }
  return box;
}

double Mesh::SurfaceArea() const {
  double area = 0.0;
  for (const Face& f : faces_) {
    const geometry::Vec3& a = vertices_[f[0]];
    const geometry::Vec3& b = vertices_[f[1]];
    const geometry::Vec3& c = vertices_[f[2]];
    area += 0.5 * (b - a).Cross(c - a).Norm();
  }
  return area;
}

common::Status Mesh::Validate() const {
  const int32_t n = vertex_count();
  for (size_t i = 0; i < faces_.size(); ++i) {
    const Face& f = faces_[i];
    for (int32_t idx : f) {
      if (idx < 0 || idx >= n) {
        return common::InvalidArgumentError(
            "face " + std::to_string(i) + " references vertex " +
            std::to_string(idx) + " outside [0, " + std::to_string(n) + ")");
      }
    }
    if (f[0] == f[1] || f[1] == f[2] || f[0] == f[2]) {
      return common::InvalidArgumentError("face " + std::to_string(i) +
                                          " is degenerate");
    }
  }
  return common::OkStatus();
}

void Mesh::Translate(const geometry::Vec3& offset) {
  for (geometry::Vec3& v : vertices_) {
    v += offset;
  }
}

void Mesh::Scale(double factor) {
  for (geometry::Vec3& v : vertices_) {
    v = v * factor;
  }
}

int64_t CountEdges(const Mesh& mesh) { return EdgeMap(mesh).edge_count(); }

}  // namespace mars::mesh
