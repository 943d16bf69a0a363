#include "mesh/adjacency.h"

#include "common/logging.h"

namespace mars::mesh {

EdgeMap::EdgeMap(const Mesh& mesh) : head_(mesh.vertex_count(), -1) {
  const int32_t n = mesh.vertex_count();
  // A closed triangle mesh has 3F/2 edges; an open one a few more.
  const size_t expected_edges = mesh.faces().size() * 3 / 2;
  edges_.reserve(expected_edges);
  next_.reserve(expected_edges);
  face_edges_.reserve(mesh.faces().size());
  for (const Face& f : mesh.faces()) {
    for (const int32_t v : f) {
      MARS_CHECK(v >= 0 && v < n)
          << "face vertex " << v << " outside [0, " << n << ")";
    }
    std::array<int32_t, 3>& sides = face_edges_.emplace_back();
    for (int k = 0; k < 3; ++k) {
      const auto key = EdgeKey(f[k], f[(k + 1) % 3]);
      int32_t e = Find(key);
      if (e < 0) {
        e = edge_count();
        edges_.push_back(key);
        next_.push_back(head_[key.first]);
        head_[key.first] = e;
      }
      sides[k] = e;
    }
  }
}

int32_t EdgeMap::Find(const std::pair<int32_t, int32_t>& key) const {
  for (int32_t e = head_[key.first]; e >= 0; e = next_[e]) {
    if (edges_[e].second == key.second) return e;
  }
  return -1;
}

int32_t EdgeMap::IndexOf(int32_t a, int32_t b) const {
  const auto key = EdgeKey(a, b);
  if (key.first < 0 || key.second >= static_cast<int32_t>(head_.size())) {
    return -1;
  }
  return Find(key);
}

}  // namespace mars::mesh
