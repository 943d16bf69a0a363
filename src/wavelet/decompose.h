#ifndef MARS_WAVELET_DECOMPOSE_H_
#define MARS_WAVELET_DECOMPOSE_H_

#include <cstdint>

#include "common/statusor.h"
#include "mesh/mesh.h"
#include "wavelet/multires_mesh.h"

namespace mars::wavelet {

// Wavelet analysis (paper Sec. III): splits a fine mesh M^J with subdivision
// connectivity into a base mesh M^0 plus per-level coefficient sets.
//
// `base_connectivity` supplies the faces of M^0 (its vertex positions are
// ignored; the base positions are taken from `fine`, since the lazy-wavelet
// even filter is the identity). `fine` must have been produced by `levels`
// regular 1:4 subdivisions of that connectivity — the function re-derives
// the subdivision hierarchy deterministically and checks that its vertex
// count and face list equal `fine`'s.
//
// The returned coefficients are ordered level-by-level (coarse first) and,
// within a level, in the deterministic odd-vertex order of
// mesh::Subdivide(), which is what reconstruction relies on. Coefficient
// values w are normalized to [0, 1] by the maximum detail magnitude in the
// object; support-region MBBs are computed from the one-ring of each odd
// vertex in M^{level+1} using final-mesh vertex positions, read off the
// coarse faces on the vertex's parent edge.
common::StatusOr<MultiResMesh> Decompose(const mesh::Mesh& fine,
                                         const mesh::Mesh& base_connectivity,
                                         int32_t levels);

}  // namespace mars::wavelet

#endif  // MARS_WAVELET_DECOMPOSE_H_
