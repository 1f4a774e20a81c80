#include "transform_ref.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace quake::testsupport {
namespace {

using mesh::BoundarySide;
using mesh::Constraint;
using mesh::ElemId;
using mesh::HexMesh;
using mesh::NodeId;
using octree::kTicks;
using octree::Octant;

std::uint64_t vertex_key(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  constexpr std::uint64_t kBase = std::uint64_t{kTicks} + 1;
  return (static_cast<std::uint64_t>(x) * kBase + y) * kBase + z;
}

constexpr std::array<std::array<std::uint32_t, 3>, 8> kCorner = {{
    {{0, 0, 0}}, {{1, 0, 0}}, {{0, 1, 0}}, {{1, 1, 0}},
    {{0, 0, 1}}, {{1, 0, 1}}, {{0, 1, 1}}, {{1, 1, 1}},
}};

constexpr std::array<std::array<int, 2>, 12> kEdges = {{
    {{0, 1}}, {{2, 3}}, {{4, 5}}, {{6, 7}},  // x-aligned
    {{0, 2}}, {{1, 3}}, {{4, 6}}, {{5, 7}},  // y-aligned
    {{0, 4}}, {{1, 5}}, {{2, 6}}, {{3, 7}},  // z-aligned
}};

constexpr std::array<std::array<int, 4>, 6> kFaces = mesh::kFaceNodes;

// Bit patterns, so -0.0 != 0.0 and NaNs compare by payload.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <class T, class Same>
std::string first_diff(const char* field, const std::vector<T>& a,
                       const std::vector<T>& b, const Same& same) {
  if (a.size() != b.size()) {
    return std::string(field) + ": size " + std::to_string(a.size()) +
           " vs " + std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) {
      return std::string(field) + "[" + std::to_string(i) + "] differs";
    }
  }
  return {};
}

}  // namespace

mesh::HexMesh transform_ref(const octree::LinearOctree& tree,
                            const vel::VelocityModel& model,
                            const mesh::MeshOptions& opt) {
  HexMesh mesh;
  mesh.domain.size = opt.domain_size;
  const double m_per_tick = opt.domain_size / static_cast<double>(kTicks);

  const std::size_t ne = tree.size();
  mesh.elem_nodes.reserve(ne);
  mesh.elem_size.reserve(ne);
  mesh.elem_level.reserve(ne);
  mesh.elem_mat.reserve(ne);

  std::unordered_map<std::uint64_t, NodeId> node_of;
  node_of.reserve(ne * 2);

  auto get_node = [&](std::uint32_t x, std::uint32_t y,
                      std::uint32_t z) -> NodeId {
    const std::uint64_t key = vertex_key(x, y, z);
    auto [it, inserted] = node_of.emplace(
        key, static_cast<NodeId>(mesh.node_coords.size()));
    if (inserted) {
      mesh.node_coords.push_back(
          {x * m_per_tick, y * m_per_tick, z * m_per_tick});
    }
    return it->second;
  };

  // Pass 1: elements, nodes, boundary faces, materials.
  for (std::size_t e = 0; e < ne; ++e) {
    const Octant& o = tree[e];
    const std::uint32_t s = o.size();
    std::array<NodeId, 8> conn;
    for (int i = 0; i < 8; ++i) {
      conn[static_cast<std::size_t>(i)] =
          get_node(o.x + kCorner[static_cast<std::size_t>(i)][0] * s,
                   o.y + kCorner[static_cast<std::size_t>(i)][1] * s,
                   o.z + kCorner[static_cast<std::size_t>(i)][2] * s);
    }
    mesh.elem_nodes.push_back(conn);
    const double s_m = s * m_per_tick;
    mesh.elem_size.push_back(s_m);
    mesh.elem_level.push_back(o.level);
    mesh.elem_mat.push_back(model.at((o.x + 0.5 * s) * m_per_tick,
                                     (o.y + 0.5 * s) * m_per_tick,
                                     (o.z + 0.5 * s) * m_per_tick));
    const ElemId eid = static_cast<ElemId>(e);
    if (o.x == 0) mesh.boundary_faces.push_back({eid, BoundarySide::kXMin});
    if (o.x + s == kTicks)
      mesh.boundary_faces.push_back({eid, BoundarySide::kXMax});
    if (o.y == 0) mesh.boundary_faces.push_back({eid, BoundarySide::kYMin});
    if (o.y + s == kTicks)
      mesh.boundary_faces.push_back({eid, BoundarySide::kYMax});
    if (o.z == 0) mesh.boundary_faces.push_back({eid, BoundarySide::kZMin});
    if (o.z + s == kTicks)
      mesh.boundary_faces.push_back({eid, BoundarySide::kZMax});
  }

  // Pass 2: hanging-node detection. A node that coincides with an edge
  // midpoint (resp. face center) of some element hangs on that element's
  // edge (resp. face); with the 2-to-1 balance, every hanging node arises
  // this way.
  struct RawConstraint {
    std::array<NodeId, 4> masters;
    int n;
  };
  std::unordered_map<NodeId, RawConstraint> raw;
  for (std::size_t e = 0; e < ne; ++e) {
    const Octant& o = tree[e];
    const std::uint32_t s = o.size();
    if (s < 2) continue;  // finest possible element cannot have finer neighbors
    const std::uint32_t h = s / 2;
    const auto& conn = mesh.elem_nodes[e];
    auto corner_ticks = [&](int i) -> std::array<std::uint32_t, 3> {
      const auto& c = kCorner[static_cast<std::size_t>(i)];
      return {o.x + c[0] * s, o.y + c[1] * s, o.z + c[2] * s};
    };
    for (const auto& ed : kEdges) {
      const auto a = corner_ticks(ed[0]);
      const auto b = corner_ticks(ed[1]);
      const std::array<std::uint32_t, 3> mid = {
          (a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2};
      auto it = node_of.find(vertex_key(mid[0], mid[1], mid[2]));
      if (it == node_of.end()) continue;
      raw.emplace(it->second,
                  RawConstraint{{conn[static_cast<std::size_t>(ed[0])],
                                 conn[static_cast<std::size_t>(ed[1])], 0, 0},
                                2});
    }
    for (const auto& fc : kFaces) {
      // Face center = anchor + h in the two in-face directions; average of
      // the four face-corner ticks.
      std::array<std::uint32_t, 3> c{0, 0, 0};
      for (int i : fc) {
        const auto t = corner_ticks(i);
        c[0] += t[0];
        c[1] += t[1];
        c[2] += t[2];
      }
      c = {c[0] / 4, c[1] / 4, c[2] / 4};
      auto it = node_of.find(vertex_key(c[0], c[1], c[2]));
      if (it == node_of.end()) continue;
      raw.emplace(it->second,
                  RawConstraint{{conn[static_cast<std::size_t>(fc[0])],
                                 conn[static_cast<std::size_t>(fc[1])],
                                 conn[static_cast<std::size_t>(fc[2])],
                                 conn[static_cast<std::size_t>(fc[3])]},
                                4});
      (void)h;
    }
  }

  // Pass 3: resolve chains so every stored master is independent.
  mesh.node_hanging.assign(mesh.node_coords.size(), 0);
  for (const auto& [node, rc] : raw) {
    mesh.node_hanging[static_cast<std::size_t>(node)] = 1;
    (void)rc;
  }
  mesh.constraints.reserve(raw.size());
  for (const auto& [node, rc] : raw) {
    // Expand (master, weight) pairs until no master is hanging.
    std::vector<std::pair<NodeId, double>> terms;
    for (int i = 0; i < rc.n; ++i) {
      terms.emplace_back(rc.masters[static_cast<std::size_t>(i)], 1.0 / rc.n);
    }
    for (int depth = 0; depth < 32; ++depth) {
      bool any_hanging = false;
      std::vector<std::pair<NodeId, double>> next;
      for (const auto& [m, w] : terms) {
        if (mesh.node_hanging[static_cast<std::size_t>(m)] != 0) {
          any_hanging = true;
          const RawConstraint& mc = raw.at(m);
          for (int i = 0; i < mc.n; ++i) {
            next.emplace_back(mc.masters[static_cast<std::size_t>(i)],
                              w / mc.n);
          }
        } else {
          next.emplace_back(m, w);
        }
      }
      terms = std::move(next);
      if (!any_hanging) break;
      if (depth == 31) {
        throw std::runtime_error("transform: hanging-node chain too deep");
      }
    }
    // Merge duplicates.
    std::sort(terms.begin(), terms.end());
    Constraint c{};
    c.node = node;
    c.n_masters = 0;
    for (std::size_t i = 0; i < terms.size();) {
      double w = 0.0;
      std::size_t j = i;
      while (j < terms.size() && terms[j].first == terms[i].first) {
        w += terms[j].second;
        ++j;
      }
      if (c.n_masters >= 8) {
        throw std::runtime_error("transform: constraint stencil exceeds 8");
      }
      c.masters[static_cast<std::size_t>(c.n_masters)] = terms[i].first;
      c.weights[static_cast<std::size_t>(c.n_masters)] = w;
      ++c.n_masters;
      i = j;
    }
    mesh.constraints.push_back(c);
  }
  std::sort(mesh.constraints.begin(), mesh.constraints.end(),
            [](const Constraint& a, const Constraint& b) {
              return a.node < b.node;
            });
  return mesh;
}

std::string mesh_difference(const HexMesh& a, const HexMesh& b) {
  if (bits(a.domain.size) != bits(b.domain.size)) return "domain.size differs";
  const auto eq = [](const auto& x, const auto& y) { return x == y; };
  const auto same_double = [](double x, double y) { return bits(x) == bits(y); };
  const auto same_coords = [](const std::array<double, 3>& x,
                              const std::array<double, 3>& y) {
    return bits(x[0]) == bits(y[0]) && bits(x[1]) == bits(y[1]) &&
           bits(x[2]) == bits(y[2]);
  };
  const auto same_mat = [](const vel::Material& x, const vel::Material& y) {
    return bits(x.rho) == bits(y.rho) && bits(x.lambda) == bits(y.lambda) &&
           bits(x.mu) == bits(y.mu);
  };
  const auto same_constraint = [](const Constraint& x, const Constraint& y) {
    if (x.node != y.node || x.n_masters != y.n_masters) return false;
    for (std::size_t m = 0; m < x.masters.size(); ++m) {
      if (x.masters[m] != y.masters[m] ||
          bits(x.weights[m]) != bits(y.weights[m])) {
        return false;
      }
    }
    return true;
  };
  const auto same_face = [](const mesh::BoundaryFace& x,
                            const mesh::BoundaryFace& y) {
    return x.elem == y.elem && x.side == y.side;
  };
  for (std::string d :
       {first_diff("elem_nodes", a.elem_nodes, b.elem_nodes, eq),
        first_diff("elem_size", a.elem_size, b.elem_size, same_double),
        first_diff("elem_level", a.elem_level, b.elem_level, eq),
        first_diff("elem_mat", a.elem_mat, b.elem_mat, same_mat),
        first_diff("node_coords", a.node_coords, b.node_coords, same_coords),
        first_diff("node_hanging", a.node_hanging, b.node_hanging, eq),
        first_diff("constraints", a.constraints, b.constraints,
                   same_constraint),
        first_diff("boundary_faces", a.boundary_faces, b.boundary_faces,
                   same_face)}) {
    if (!d.empty()) return d;
  }
  return {};
}

}  // namespace quake::testsupport
