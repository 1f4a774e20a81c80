#include "quake/solver/locator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace quake::solver {

BucketGrid::BucketGrid(const mesh::HexMesh& mesh) {
  if (mesh.node_coords.empty()) return;
  std::array<double, 3> hi = mesh.node_coords[0];
  origin = hi;
  for (const auto& c : mesh.node_coords) {
    for (int a = 0; a < 3; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      origin[sa] = std::min(origin[sa], c[sa]);
      hi[sa] = std::max(hi[sa], c[sa]);
    }
  }
  double extent = 0.0;
  for (int a = 0; a < 3; ++a) {
    const auto sa = static_cast<std::size_t>(a);
    extent = std::max(extent, hi[sa] - origin[sa]);
  }
  // About one cell per node: the edge is the mean node spacing over the
  // box. Cube cells keep the shell search in NodeLocator::nearest
  // isotropic.
  cell = extent / std::cbrt(static_cast<double>(mesh.node_coords.size()));
  if (!(cell > 0.0)) cell = 1.0;
  inv_cell = 1.0 / cell;
  for (int a = 0; a < 3; ++a) {
    const auto sa = static_cast<std::size_t>(a);
    dims[sa] = static_cast<int>((hi[sa] - origin[sa]) * inv_cell) + 1;
  }
}

int BucketGrid::cell_of(double x, int axis) const {
  const auto sa = static_cast<std::size_t>(axis);
  const double t = (x - origin[sa]) * inv_cell;
  if (!(t >= 0.0)) return 0;  // below the box, or NaN
  if (t >= static_cast<double>(dims[sa])) return dims[sa] - 1;
  return static_cast<int>(t);
}

NodeLocator::NodeLocator(const mesh::HexMesh& mesh)
    : mesh_(&mesh), grid_(mesh) {
  if (mesh.node_coords.empty()) {
    throw std::invalid_argument("NodeLocator: empty mesh");
  }
  // Counting sort of the independent nodes by cell; ascending node order
  // within a cell falls out of the ascending fill.
  const std::size_t n = mesh.node_coords.size();
  std::vector<std::size_t> cell(n);
  start_.assign(grid_.n_cells() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (mesh.node_hanging[i] != 0) continue;
    const auto& c = mesh.node_coords[i];
    cell[i] = grid_.index(grid_.cell_of(c[0], 0), grid_.cell_of(c[1], 1),
                          grid_.cell_of(c[2], 2));
    ++start_[cell[i] + 1];
  }
  for (std::size_t k = 1; k < start_.size(); ++k) start_[k] += start_[k - 1];
  nodes_.resize(static_cast<std::size_t>(start_.back()));
  std::vector<std::int32_t> fill(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (mesh.node_hanging[i] != 0) continue;
    nodes_[static_cast<std::size_t>(fill[cell[i]]++)] =
        static_cast<mesh::NodeId>(i);
  }
  // Bucket membership can disagree with an exact comparison against a cell
  // plane by rounding; the slack absorbs that in the search's stopping
  // bound.
  double reach = 0.0;
  for (int a = 0; a < 3; ++a) {
    const auto sa = static_cast<std::size_t>(a);
    const double far = grid_.origin[sa] + grid_.dims[sa] * grid_.cell;
    reach = std::max({reach, std::abs(grid_.origin[sa]), std::abs(far)});
  }
  slack_ = 1e-6 * grid_.cell + 1e-12 * reach;
}

mesh::NodeId NodeLocator::nearest(std::array<double, 3> position) const {
  const mesh::HexMesh& mesh = *mesh_;
  mesh::NodeId best = 0;
  double best_d = std::numeric_limits<double>::max();
  const auto scan = [&](int i, int j, int k) {
    const std::size_t cell = grid_.index(i, j, k);
    for (std::int32_t p = start_[cell]; p < start_[cell + 1]; ++p) {
      const mesh::NodeId n = nodes_[static_cast<std::size_t>(p)];
      const auto& c = mesh.node_coords[static_cast<std::size_t>(n)];
      const double dx = c[0] - position[0];
      const double dy = c[1] - position[1];
      const double dz = c[2] - position[2];
      const double d = dx * dx + dy * dy + dz * dz;
      if (d < best_d || (d == best_d && n < best)) {
        best_d = d;
        best = n;
      }
    }
  };

  std::array<int, 3> q{};
  for (int a = 0; a < 3; ++a) {
    q[static_cast<std::size_t>(a)] =
        grid_.cell_of(position[static_cast<std::size_t>(a)], a);
  }
  // Visit shells of cells at Chebyshev distance r = 0, 1, ... from the
  // query's cell until every node outside the visited box is provably
  // farther than the best so far (or the box covers the grid).
  for (int r = 0;; ++r) {
    std::array<int, 3> lo{}, hi{};
    for (int a = 0; a < 3; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      lo[sa] = std::max(q[sa] - r, 0);
      hi[sa] = std::min(q[sa] + r, grid_.dims[sa] - 1);
    }
    for (int k = lo[2]; k <= hi[2]; ++k) {
      for (int j = lo[1]; j <= hi[1]; ++j) {
        if (std::abs(k - q[2]) == r || std::abs(j - q[1]) == r) {
          for (int i = lo[0]; i <= hi[0]; ++i) scan(i, j, k);
        } else {
          if (q[0] - r >= lo[0]) scan(q[0] - r, j, k);
          if (r > 0 && q[0] + r <= hi[0]) scan(q[0] + r, j, k);
        }
      }
    }
    double gap = std::numeric_limits<double>::infinity();
    bool covered = true;
    for (int a = 0; a < 3; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      if (lo[sa] > 0) {
        covered = false;
        gap = std::min(gap, position[sa] - (grid_.origin[sa] +
                                            lo[sa] * grid_.cell));
      }
      if (hi[sa] < grid_.dims[sa] - 1) {
        covered = false;
        gap = std::min(gap, grid_.origin[sa] + (hi[sa] + 1) * grid_.cell -
                                position[sa]);
      }
    }
    if (covered) break;
    gap -= slack_;
    // Computed distances carry a few ulps of error; the 1e-9 margin keeps
    // an unvisited node that ties best_d after rounding from being missed.
    if (gap > 0.0 && gap * gap * (1.0 - 1e-9) > best_d) break;
  }
  return best;
}

ElementLocator::ElementLocator(const mesh::HexMesh& mesh)
    : mesh_(&mesh), grid_(mesh) {
  // Each element is listed in every cell its closed box overlaps. A point
  // inside the box has, per axis, anchor <= p <= anchor + h, so by the
  // monotonicity of cell_of its cell lies in the element's cell range.
  const auto for_each_cell = [&](std::size_t e, auto&& visit) {
    const auto& anchor =
        mesh.node_coords[static_cast<std::size_t>(mesh.elem_nodes[e][0])];
    const double h = mesh.elem_size[e];
    std::array<int, 3> lo{}, hi{};
    for (int a = 0; a < 3; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      lo[sa] = grid_.cell_of(anchor[sa], a);
      hi[sa] = grid_.cell_of(anchor[sa] + h, a);
    }
    for (int k = lo[2]; k <= hi[2]; ++k) {
      for (int j = lo[1]; j <= hi[1]; ++j) {
        for (int i = lo[0]; i <= hi[0]; ++i) visit(grid_.index(i, j, k));
      }
    }
  };
  start_.assign(grid_.n_cells() + 1, 0);
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    for_each_cell(e, [&](std::size_t cell) { ++start_[cell + 1]; });
  }
  for (std::size_t k = 1; k < start_.size(); ++k) start_[k] += start_[k - 1];
  elems_.resize(static_cast<std::size_t>(start_.back()));
  std::vector<std::int64_t> fill(start_.begin(), start_.end() - 1);
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    for_each_cell(e, [&](std::size_t cell) {
      elems_[static_cast<std::size_t>(fill[cell]++)] =
          static_cast<mesh::ElemId>(e);
    });
  }
}

mesh::ElemId ElementLocator::containing(std::array<double, 3> p) const {
  const mesh::HexMesh& mesh = *mesh_;
  const std::size_t cell = grid_.index(
      grid_.cell_of(p[0], 0), grid_.cell_of(p[1], 1), grid_.cell_of(p[2], 2));
  for (std::int64_t i = start_[cell]; i < start_[cell + 1]; ++i) {
    const mesh::ElemId e = elems_[static_cast<std::size_t>(i)];
    const auto& anchor = mesh.node_coords[static_cast<std::size_t>(
        mesh.elem_nodes[static_cast<std::size_t>(e)][0])];
    const double h = mesh.elem_size[static_cast<std::size_t>(e)];
    if (p[0] >= anchor[0] && p[0] <= anchor[0] + h && p[1] >= anchor[1] &&
        p[1] <= anchor[1] + h && p[2] >= anchor[2] && p[2] <= anchor[2] + h) {
      return e;
    }
  }
  return -1;
}

}  // namespace quake::solver
