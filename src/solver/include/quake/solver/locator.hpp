#pragma once

// Point location on a hex mesh through a uniform bucket grid over the node
// bounding box: the nearest independent node (source and receiver
// placement) and the element containing a point (material lookup). Both
// are built in O(nodes + elements) and answer a query by visiting only the
// buckets near the point, with the exact result of a scan over every node
// or element (tests/solver_test.cpp holds that scan as the oracle).

#include <array>
#include <cstdint>
#include <vector>

#include "quake/mesh/hex_mesh.hpp"

namespace quake::solver {

// Uniform cube cells over an axis-aligned box. cell_of() is monotone
// non-decreasing in the coordinate (one subtraction and one multiplication,
// both monotone under IEEE rounding, then a clamp into the grid), which is
// what lets bucket membership stand in for exact coordinate comparisons.
struct BucketGrid {
  std::array<double, 3> origin{};
  double cell = 1.0, inv_cell = 1.0;
  std::array<int, 3> dims{1, 1, 1};

  // A grid over the bounding box of `mesh.node_coords` with about one cell
  // per node.
  explicit BucketGrid(const mesh::HexMesh& mesh);
  [[nodiscard]] int cell_of(double x, int axis) const;
  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(dims[1]) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(dims[0]) +
           static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t n_cells() const { return index(0, 0, dims[2]); }
};

class NodeLocator {
 public:
  // Throws std::invalid_argument for a mesh without nodes.
  explicit NodeLocator(const mesh::HexMesh& mesh);

  // The non-hanging node minimizing dx*dx + dy*dy + dz*dz to `position`,
  // the lowest index among exact ties; node 0 when no node has a distance
  // below the largest finite double (a non-finite position).
  [[nodiscard]] mesh::NodeId nearest(std::array<double, 3> position) const;

  // The mesh this locator was built over; it must outlive the locator.
  [[nodiscard]] const mesh::HexMesh& mesh() const { return *mesh_; }

 private:
  const mesh::HexMesh* mesh_;
  BucketGrid grid_;
  std::vector<std::int32_t> start_;  // per cell, into nodes_ (CSR)
  std::vector<mesh::NodeId> nodes_;  // ascending within each cell
  double slack_ = 0.0;  // rounding allowance on cell-plane distances [m]
};

class ElementLocator {
 public:
  explicit ElementLocator(const mesh::HexMesh& mesh);

  // The lowest-index element whose closed box [anchor, anchor + h]^3
  // (anchor = local node 0) contains `p`, or -1 when none does.
  [[nodiscard]] mesh::ElemId containing(std::array<double, 3> p) const;

 private:
  const mesh::HexMesh* mesh_;
  BucketGrid grid_;
  std::vector<std::int64_t> start_;  // per cell, into elems_ (CSR)
  std::vector<mesh::ElemId> elems_;  // ascending within each cell
};

}  // namespace quake::solver
