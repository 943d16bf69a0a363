#include "wavelet/decompose.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "geometry/vec.h"
#include "mesh/subdivide.h"

namespace mars::wavelet {

using geometry::Vec3;
using mesh::Mesh;
using mesh::OddVertex;
using mesh::Subdivision;

common::StatusOr<MultiResMesh> Decompose(const Mesh& fine,
                                         const Mesh& base_connectivity,
                                         int32_t levels) {
  if (levels < 0) {
    return common::InvalidArgumentError("levels must be >= 0");
  }

  // Re-derive the subdivision hierarchy from the base connectivity. Only
  // the topology matters here; positions are placeholders.
  std::vector<Subdivision> chain;  // chain[j]: M^j -> M^{j+1}
  chain.reserve(levels);
  const Mesh* current = &base_connectivity;
  for (int32_t j = 0; j < levels; ++j) {
    chain.push_back(mesh::Subdivide(*current));
    current = &chain.back().mesh;
  }

  if (current->vertex_count() != fine.vertex_count() ||
      current->face_count() != fine.face_count()) {
    return common::InvalidArgumentError(
        "fine mesh does not have subdivision connectivity of the base: "
        "expected " +
        std::to_string(current->vertex_count()) + " vertices / " +
        std::to_string(current->face_count()) + " faces, got " +
        std::to_string(fine.vertex_count()) + " / " +
        std::to_string(fine.face_count()));
  }
  if (current->faces() != fine.faces()) {
    const auto differs = std::mismatch(current->faces().begin(),
                                       current->faces().end(),
                                       fine.faces().begin());
    return common::InvalidArgumentError(
        "fine mesh does not have subdivision connectivity of the base: "
        "face " +
        std::to_string(differs.first - current->faces().begin()) +
        " differs");
  }

  // Base mesh M^0: base connectivity with positions restricted from the
  // fine mesh (even vertices never move in the lazy-wavelet analysis).
  std::vector<Vec3> base_positions(
      fine.vertices().begin(),
      fine.vertices().begin() + base_connectivity.vertex_count());
  Mesh base(std::move(base_positions), base_connectivity.faces());

  const auto extend = [&fine](geometry::Box3& box, int32_t vertex) {
    const Vec3& p = fine.vertex(vertex);
    box.ExtendPoint({p.x, p.y, p.z});
  };
  size_t coefficient_count = 0;
  for (const Subdivision& sub : chain) {
    coefficient_count += sub.odd_vertices.size();
  }
  std::vector<WaveletCoefficient> coefficients;
  coefficients.reserve(coefficient_count);
  double max_magnitude = 0.0;
  for (int32_t j = 0; j < levels; ++j) {
    const Subdivision& sub = chain[j];
    const size_t first = coefficients.size();
    for (const OddVertex& odd : sub.odd_vertices) {
      WaveletCoefficient& c = coefficients.emplace_back();
      c.id = static_cast<int32_t>(coefficients.size() - 1);
      c.level = j;
      c.vertex = odd.vertex;
      c.parent_a = odd.parent_a;
      c.parent_b = odd.parent_b;
      const Vec3 predicted = geometry::Midpoint(fine.vertex(odd.parent_a),
                                                fine.vertex(odd.parent_b));
      c.detail = fine.vertex(odd.vertex) - predicted;
      c.vertex_position = fine.vertex(odd.vertex);
      c.magnitude = c.detail.Norm();
      max_magnitude = std::max(max_magnitude, c.magnitude);
      extend(c.support_bounds, odd.vertex);
      extend(c.support_bounds, odd.parent_a);
      extend(c.support_bounds, odd.parent_b);
    }
    // The support region of a level-j coefficient is the one-ring of its
    // odd vertex in M^{j+1}: the parent edge's endpoints plus, for every
    // coarse face on that edge, the midpoints of the face's other two
    // sides.
    for (const auto& sides : sub.face_edges) {
      for (int k = 0; k < 3; ++k) {
        geometry::Box3& box = coefficients[first + sides[k]].support_bounds;
        extend(box, sub.odd_vertices[sides[(k + 1) % 3]].vertex);
        extend(box, sub.odd_vertices[sides[(k + 2) % 3]].vertex);
      }
    }
  }

  // Normalize geometric influence to [0, 1]. A perfectly smooth object
  // (all-zero details) keeps w = 0 everywhere: its refinement carries no
  // information, so nothing beyond the base mesh is ever worth fetching.
  if (max_magnitude > 0.0) {
    for (WaveletCoefficient& c : coefficients) {
      c.w = c.magnitude / max_magnitude;
    }
  }

  return MultiResMesh(std::move(base), levels, std::move(coefficients));
}

}  // namespace mars::wavelet
