#ifndef MARS_MESH_ADJACENCY_H_
#define MARS_MESH_ADJACENCY_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/mesh.h"

namespace mars::mesh {

// Canonical (min, max) key for an undirected edge.
inline std::pair<int32_t, int32_t> EdgeKey(int32_t a, int32_t b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

// Maps each undirected edge to a dense index [0, edge_count), numbered in
// order of first appearance over the faces, which makes subdivision
// deterministic. Also records the edge index of each face side. A face
// index outside [0, vertex_count) fails a check.
class EdgeMap {
 public:
  explicit EdgeMap(const Mesh& mesh);

  int32_t edge_count() const { return static_cast<int32_t>(edges_.size()); }

  // Index of edge (a, b); -1 if the mesh has no such edge.
  int32_t IndexOf(int32_t a, int32_t b) const;

  // Edge endpoints by dense index.
  const std::pair<int32_t, int32_t>& edge(int32_t index) const {
    return edges_[index];
  }
  const std::vector<std::pair<int32_t, int32_t>>& edges() const {
    return edges_;
  }

  // Per face (a, b, c): the indices of its sides (a, b), (b, c), (c, a).
  const std::vector<std::array<int32_t, 3>>& face_edges() const {
    return face_edges_;
  }

 private:
  int32_t Find(const std::pair<int32_t, int32_t>& key) const;

  std::vector<std::pair<int32_t, int32_t>> edges_;
  std::vector<std::array<int32_t, 3>> face_edges_;
  // Edges chained by their smaller endpoint: head_[v] is the last edge
  // added whose smaller endpoint is v (-1: none), next_[e] the edge added
  // before e in the same chain.
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
};

}  // namespace mars::mesh

#endif  // MARS_MESH_ADJACENCY_H_
