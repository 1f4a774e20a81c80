#include "quake/mesh/meshgen.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "quake/obs/obs.hpp"
#include "quake/octree/etree_store.hpp"

namespace quake::mesh {
namespace {

using octree::kMaxLevel;
using octree::kTicks;
using octree::LinearOctree;
using octree::Octant;

// Vertex lattice key. Vertices live on tick coordinates in [0, kTicks]
// (inclusive at the far face), so the key base is kTicks + 1.
std::uint64_t vertex_key(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  constexpr std::uint64_t kBase = std::uint64_t{kTicks} + 1;
  return (static_cast<std::uint64_t>(x) * kBase + y) * kBase + z;
}

// Local tensor-node offsets: node i at ((i&1), (i>>1)&1, (i>>2)&1).
constexpr std::array<std::array<std::uint32_t, 3>, 8> kCorner = {{
    {{0, 0, 0}}, {{1, 0, 0}}, {{0, 1, 0}}, {{1, 1, 0}},
    {{0, 0, 1}}, {{1, 0, 1}}, {{0, 1, 1}}, {{1, 1, 1}},
}};

// Flat open-addressing table from vertex_key to node id (linear probing;
// an all-ones key, beyond the lattice, marks an empty slot).
class VertexTable {
 public:
  explicit VertexTable(std::size_t expected) {
    rehash(std::bit_ceil(2 * expected + 16));
  }

  // The id of the vertex at `key`; a new vertex gets `fresh`.
  NodeId find_or_insert(std::uint64_t key, NodeId fresh) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    Slot& e = slots_[find(key)];
    if (e.key == kEmpty) {
      e = {key, fresh};
      ++size_;
    }
    return e.id;
  }

  void prefetch(std::uint64_t key) const noexcept {
    __builtin_prefetch(&slots_[home(key)]);
  }

  // The id of the vertex at `key`, which must be present.
  [[nodiscard]] NodeId at(std::uint64_t key) const {
    const Slot& e = slots_[find(key)];
    if (e.key == kEmpty) {
      throw std::logic_error("transform: hanging-node master is not a vertex");
    }
    return e.id;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    NodeId id = -1;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find(std::uint64_t key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].key != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void rehash(std::size_t capacity) {  // a power of two, at least 16
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& e : old) {
      if (e.key != kEmpty) slots_[find(e.key)] = e;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

// The octants around a vertex, as bits of an 8-bit mask: octant b lies on
// the + side of axis a iff bit a of b is set. An element with the vertex as
// its local corner i fills octant 7 - i. kOctantsOnSide[a][side] holds the
// octants on that side of axis a.
constexpr std::array<std::array<std::uint8_t, 2>, 3> kOctantsOnSide = {{
    {{0x55, 0xAA}}, {{0x33, 0xCC}}, {{0x0F, 0xF0}},
}};

// The octants around vertex `t` that lie inside the root domain.
std::uint8_t octants_in_domain(const std::array<std::uint32_t, 3>& t) {
  std::uint8_t in = 0xFF;
  for (std::size_t a = 0; a < 3; ++a) {
    if (t[a] == 0) in &= kOctantsOnSide[a][1];
    if (t[a] == kTicks) in &= kOctantsOnSide[a][0];
  }
  return in;
}

}  // namespace

octree::RefinePolicy wavelength_policy(const vel::VelocityModel& model,
                                       const MeshOptions& opt) {
  if (!(opt.domain_size > 0.0)) {
    throw std::invalid_argument("MeshOptions: domain_size must be positive");
  }
  const double m_per_tick = opt.domain_size / static_cast<double>(kTicks);
  return [&model, opt, m_per_tick](const Octant& o) {
    if (o.level < opt.min_level) return true;
    if (o.level >= opt.max_level) return false;
    const double s_m = static_cast<double>(o.size()) * m_per_tick;
    // Minimum shear velocity sampled at the centroid and the 8 corners.
    double vs_min = std::numeric_limits<double>::max();
    const double x0 = o.x * m_per_tick, y0 = o.y * m_per_tick,
                 z0 = o.z * m_per_tick;
    for (const auto& c : kCorner) {
      vs_min = std::min(vs_min,
                        model.at(x0 + c[0] * s_m, y0 + c[1] * s_m,
                                 z0 + c[2] * s_m)
                            .vs());
    }
    vs_min = std::min(
        vs_min, model.at(x0 + 0.5 * s_m, y0 + 0.5 * s_m, z0 + 0.5 * s_m).vs());
    const double h_needed =
        vel::element_size_for(vs_min, opt.f_max, opt.n_lambda);
    return s_m > h_needed;
  };
}

octree::LinearOctree build_balanced_octree(const vel::VelocityModel& model,
                                           const MeshOptions& opt) {
  LinearOctree tree;
  {
    QUAKE_OBS_SCOPE("mesh/construct");
    tree = build_octree(wavelength_policy(model, opt), opt.max_level);
  }
  // Full (face+edge+corner) balance keeps hanging-node masters independent
  // in almost all configurations; residual chains are resolved in transform.
  QUAKE_OBS_SCOPE("mesh/balance");
  return balance(tree, octree::BalanceScope::kAll);
}

HexMesh transform(const LinearOctree& tree, const vel::VelocityModel& model,
                  const MeshOptions& opt) {
  HexMesh mesh;
  mesh.domain.size = opt.domain_size;
  const double m_per_tick = opt.domain_size / static_cast<double>(kTicks);

  const std::size_t ne = tree.size();
  mesh.elem_nodes.reserve(ne);
  mesh.elem_size.reserve(ne);
  mesh.elem_level.reserve(ne);
  mesh.elem_mat.reserve(ne);

  // Per node: its tick coordinates and the octants around it filled by an
  // element that has it as a corner.
  VertexTable vertices(ne + ne / 2);
  std::vector<std::array<std::uint32_t, 3>> node_ticks;
  std::vector<std::uint8_t> filled;
  node_ticks.reserve(ne + ne / 2);
  filled.reserve(ne + ne / 2);

  // Pass 1: elements, nodes (numbered in first-touch order: elements in
  // order, local corners 0..7), boundary faces, materials.
  for (std::size_t e = 0; e < ne; ++e) {
    const Octant& o = tree[e];
    const std::uint32_t s = o.size();
    // All eight keys first, so the table's cache misses overlap.
    std::array<std::array<std::uint32_t, 3>, 8> corner;
    std::array<std::uint64_t, 8> keys;
    for (std::size_t i = 0; i < 8; ++i) {
      corner[i] = {o.x + kCorner[i][0] * s, o.y + kCorner[i][1] * s,
                   o.z + kCorner[i][2] * s};
      keys[i] = vertex_key(corner[i][0], corner[i][1], corner[i][2]);
      vertices.prefetch(keys[i]);
    }
    std::array<NodeId, 8> conn;
    for (std::size_t i = 0; i < 8; ++i) {
      const auto fresh = static_cast<NodeId>(node_ticks.size());
      const NodeId id = vertices.find_or_insert(keys[i], fresh);
      if (id == fresh) {
        const auto& [x, y, z] = corner[i];
        mesh.node_coords.push_back(
            {x * m_per_tick, y * m_per_tick, z * m_per_tick});
        node_ticks.push_back(corner[i]);
        filled.push_back(0);
      }
      filled[static_cast<std::size_t>(id)] |=
          static_cast<std::uint8_t>(1u << (7 - i));
      conn[i] = id;
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

  // Pass 2: hanging nodes, found from the vertex side. A node hangs when it
  // is the midpoint of an edge or the centre of a face of some leaf. Let
  // s = 2^v be the largest power of two dividing all three of its
  // coordinates and k the number of coordinates that are odd multiples of
  // s. Only a leaf of size 2s can have the node there: at its edge midpoint
  // along the odd axis when k = 1, at its face centre spanned by the odd
  // axes when k = 2 (at k = 3 the node is a cell centre, on no leaf's
  // boundary). That leaf fills an octant around the node that no element
  // with the node as a corner fills, so only nodes with an unfilled
  // in-domain octant are candidates, and the parity alone names the
  // masters: the edge ends or face corners s away along the odd axes.
  // Because the masters depend only on the node, which element's edge or
  // face reaches it first cannot change them.
  struct RawConstraint {
    NodeId node;
    std::array<NodeId, 4> masters;
    int n;
  };
  std::vector<RawConstraint> raw;
  // Anchor Morton codes of the leaves, in tree order, to ask whether a
  // cell is a leaf.
  std::vector<std::uint64_t> leaf_codes(ne);
  for (std::size_t e = 0; e < ne; ++e) leaf_codes[e] = tree[e].morton();
  const auto is_leaf = [&](const Octant& c) {
    const auto it = std::lower_bound(leaf_codes.begin(), leaf_codes.end(),
                                     c.morton());
    return it != leaf_codes.end() && *it == c.morton() &&
           tree[static_cast<std::size_t>(it - leaf_codes.begin())].level ==
               c.level;
  };
  const std::size_t nn = node_ticks.size();
  mesh.node_hanging.assign(nn, 0);
  for (std::size_t n = 0; n < nn; ++n) {
    const std::array<std::uint32_t, 3>& t = node_ticks[n];
    const std::uint8_t in_domain = octants_in_domain(t);
    const auto unfilled = static_cast<std::uint8_t>(in_domain & ~filled[n]);
    if (unfilled == 0) continue;
    const int v = std::min({std::countr_zero(t[0]), std::countr_zero(t[1]),
                            std::countr_zero(t[2])});
    if (v + 1 > kMaxLevel) continue;  // a size-2s leaf would exceed the root
    const std::uint32_t s = 1u << v;
    std::array<std::size_t, 2> odd{};
    int k = 0;
    for (std::size_t a = 0; a < 3; ++a) {
      if (std::countr_zero(t[a]) == v) {
        if (k == 2) {
          k = 3;
          break;
        }
        odd[static_cast<std::size_t>(k++)] = a;
      }
    }
    if (k == 3) continue;
    // Is a leaf of size 2s among the cells filling the unfilled octants?
    bool hangs = false;
    for (unsigned b = 0; b < 8 && !hangs; ++b) {
      if (((unfilled >> b) & 1u) == 0) continue;
      std::array<std::uint32_t, 3> anchor{};
      for (std::size_t a = 0; a < 3; ++a) {
        const std::uint32_t cell = ((b >> a) & 1u) != 0 ? t[a] : t[a] - s;
        anchor[a] = cell & ~(2 * s - 1);
      }
      hangs = is_leaf(Octant{anchor[0], anchor[1], anchor[2],
                             static_cast<std::uint8_t>(kMaxLevel - v - 1)});
    }
    if (!hangs) continue;
    // Masters in tensor order: bit j of i puts master i s above (set) or
    // below (clear) the node along odd[j].
    RawConstraint rc{static_cast<NodeId>(n), {}, 2 * k};
    for (int i = 0; i < rc.n; ++i) {
      std::array<std::uint32_t, 3> m = t;
      for (int j = 0; j < k; ++j) {
        const std::size_t a = odd[static_cast<std::size_t>(j)];
        m[a] = ((i >> j) & 1) != 0 ? m[a] + s : m[a] - s;
      }
      rc.masters[static_cast<std::size_t>(i)] =
          vertices.at(vertex_key(m[0], m[1], m[2]));
    }
    raw.push_back(rc);
    mesh.node_hanging[n] = 1;
  }

  // Pass 3: resolve chains so every stored master is independent. `raw` is
  // in node order, so the constraints come out sorted by node.
  std::vector<std::int32_t> raw_of(nn, -1);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw_of[static_cast<std::size_t>(raw[r].node)] = static_cast<std::int32_t>(r);
  }
  mesh.constraints.reserve(raw.size());
  std::vector<std::pair<NodeId, double>> terms, next;
  for (const RawConstraint& rc : raw) {
    // Expand (master, weight) pairs until no master is hanging.
    terms.clear();
    for (int i = 0; i < rc.n; ++i) {
      terms.emplace_back(rc.masters[static_cast<std::size_t>(i)], 1.0 / rc.n);
    }
    for (int depth = 0; depth < 32; ++depth) {
      bool any_hanging = false;
      next.clear();
      for (const auto& [m, w] : terms) {
        const std::int32_t r = raw_of[static_cast<std::size_t>(m)];
        if (r >= 0) {
          any_hanging = true;
          const RawConstraint& mc = raw[static_cast<std::size_t>(r)];
          for (int i = 0; i < mc.n; ++i) {
            next.emplace_back(mc.masters[static_cast<std::size_t>(i)],
                              w / mc.n);
          }
        } else {
          next.emplace_back(m, w);
        }
      }
      terms.swap(next);
      if (!any_hanging) break;
      if (depth == 31) {
        throw std::runtime_error("transform: hanging-node chain too deep");
      }
    }
    // Merge duplicates.
    std::sort(terms.begin(), terms.end());
    Constraint c{};
    c.node = rc.node;
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
  return mesh;
}

HexMesh generate_mesh(const vel::VelocityModel& model, const MeshOptions& opt) {
  const LinearOctree tree = build_balanced_octree(model, opt);
  QUAKE_OBS_SCOPE("mesh/transform");
  return transform(tree, model, opt);
}

namespace {

// Writes `tree` into a fresh etree store at `path`; each leaf's payload is
// its centroid shear velocity (kept for provenance; transform re-samples
// the model).
void persist(const std::string& path, const LinearOctree& tree,
             const vel::VelocityModel& model, double m_per_tick) {
  octree::EtreeStore store(path, sizeof(double), /*pool_pages=*/64,
                           /*create=*/true);
  for (const Octant& o : tree.leaves()) {
    const double s = o.size() * m_per_tick;
    const double vs = model
                          .at(o.x * m_per_tick + 0.5 * s,
                              o.y * m_per_tick + 0.5 * s,
                              o.z * m_per_tick + 0.5 * s)
                          .vs();
    store.put(o, std::as_bytes(std::span<const double, 1>(&vs, 1)));
  }
  store.flush();
}

}  // namespace

HexMesh generate_mesh_out_of_core(const vel::VelocityModel& model,
                                  const MeshOptions& opt,
                                  const std::string& store_path) {
  const double m_per_tick = opt.domain_size / static_cast<double>(kTicks);
  // construct -> store.
  LinearOctree constructed;
  {
    QUAKE_OBS_SCOPE("mesh/construct");
    constructed = build_octree(wavelength_policy(model, opt), opt.max_level);
  }
  {
    QUAKE_OBS_SCOPE("mesh/etree");
    persist(store_path, constructed, model, m_per_tick);
  }
  // balance: read back, balance in memory, re-persist the balanced tree.
  std::vector<Octant> leaves;
  {
    QUAKE_OBS_SCOPE("mesh/etree");
    octree::EtreeStore store(store_path, sizeof(double), 64, /*create=*/false);
    store.scan([&leaves](const Octant& o, std::span<const std::byte>) {
      leaves.push_back(o);
    });
  }
  LinearOctree balanced;
  {
    QUAKE_OBS_SCOPE("mesh/balance");
    balanced =
        balance(LinearOctree(std::move(leaves)), octree::BalanceScope::kAll);
  }
  {
    QUAKE_OBS_SCOPE("mesh/etree");
    persist(store_path + ".balanced", balanced, model, m_per_tick);
  }
  QUAKE_OBS_SCOPE("mesh/transform");
  return transform(balanced, model, opt);
}

MeshStats compute_stats(const HexMesh& mesh, const vel::VelocityModel& model,
                        const MeshOptions& opt) {
  MeshStats s;
  s.n_elements = mesh.n_elements();
  s.n_nodes = mesh.n_nodes();
  s.n_hanging = mesh.n_hanging();
  s.n_independent = mesh.n_independent();
  int lo = octree::kMaxLevel, hi = 0;
  for (std::uint8_t l : mesh.elem_level) {
    lo = std::min<int>(lo, l);
    hi = std::max<int>(hi, l);
  }
  s.min_level = mesh.elem_level.empty() ? 0 : lo;
  s.max_level = mesh.elem_level.empty() ? 0 : hi;
  const double h_min =
      vel::element_size_for(model.min_vs(), opt.f_max, opt.n_lambda);
  const double n1d = opt.domain_size / h_min + 1.0;
  s.uniform_equivalent_points = n1d * n1d * n1d;
  return s;
}

}  // namespace quake::mesh
