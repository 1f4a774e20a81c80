#pragma once

// Test oracles for the etree transform step (mesh::transform): a
// straight-line hash-map transform whose output the library's must match
// bit for bit, and a field-by-field bitwise comparison of two meshes. Not
// used by the library.

#include <string>

#include "quake/mesh/meshgen.hpp"

namespace quake::testsupport {

// Reference transform: vertices numbered first-touch (elements in order,
// local corners 0..7) through an unordered_map, hanging nodes found by
// probing all 12 edge midpoints and 6 face centres of every element, the
// first element to reach a node (lowest index, edges before faces) setting
// its raw constraint, and chains resolved to independent masters.
mesh::HexMesh transform_ref(const octree::LinearOctree& tree,
                            const vel::VelocityModel& model,
                            const mesh::MeshOptions& opt);

// Empty when `a` and `b` agree bit for bit in every HexMesh field (doubles
// compared by bit pattern); otherwise a description of the first
// difference.
std::string mesh_difference(const mesh::HexMesh& a, const mesh::HexMesh& b);

}  // namespace quake::testsupport
