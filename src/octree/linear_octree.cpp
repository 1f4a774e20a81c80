#include "quake/octree/linear_octree.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace quake::octree {
namespace {

// Morton-code volume of an octant: number of tick points it covers. The
// codes inside an octant form the contiguous range
// [morton(anchor), morton(anchor) + volume).
std::uint64_t morton_volume(const Octant& o) noexcept {
  const int shift = 3 * (kMaxLevel - o.level);
  return shift >= 64 ? 0 : (std::uint64_t{1} << shift);
}

std::span<const std::array<int, 3>> dirs_for(BalanceScope scope) noexcept {
  switch (scope) {
    case BalanceScope::kFaces:
      return {kFaceDirs.data(), kFaceDirs.size()};
    case BalanceScope::kFacesEdges:
      // kNeighborDirs is ordered with all 26; faces+edges are those with at
      // most two nonzero components. Precompute once.
      {
        static const std::vector<std::array<int, 3>> fe = [] {
          std::vector<std::array<int, 3>> v;
          for (const auto& d : kNeighborDirs) {
            const int nz = (d[0] != 0) + (d[1] != 0) + (d[2] != 0);
            if (nz <= 2) v.push_back(d);
          }
          return v;
        }();
        return {fe.data(), fe.size()};
      }
    case BalanceScope::kAll:
      return {kNeighborDirs.data(), kNeighborDirs.size()};
  }
  return {};
}

// Leaf set keyed by anchor Morton code. Disjoint leaves have distinct
// anchors, so the anchor alone identifies a leaf; the mapped value is its
// level. Only is_balanced and balance_global_sweeps use it (with
// find_leaf_at below): they stay the independent oracle and the Fig 2.1
// baseline that balance and balance_local are checked against.
using LeafMap = std::unordered_map<std::uint64_t, std::uint8_t>;

LeafMap to_map(std::span<const Octant> leaves) {
  LeafMap map;
  map.reserve(leaves.size() * 2);
  for (const Octant& o : leaves) map.emplace(o.morton(), o.level);
  return map;
}

// Finds the leaf containing tick point (x, y, z) by probing ancestors from
// fine to coarse. Returns false when the point is uncovered.
bool find_leaf_at(const LeafMap& map, std::uint32_t x, std::uint32_t y,
                  std::uint32_t z, int finest_level, Octant& out) {
  for (int lvl = finest_level; lvl >= 0; --lvl) {
    const Octant probe =
        Octant{x, y, z, 0}.ancestor_at(static_cast<std::uint8_t>(lvl));
    auto it = map.find(probe.morton());
    if (it != map.end() && it->second == lvl) {
      out = Octant{probe.x, probe.y, probe.z, it->second};
      return true;
    }
  }
  return false;
}

// Level-tagged key of an octant: a leading 1 bit above the 3 * level Morton
// bits of its cell on its level's grid, so every (anchor, level) pair —
// leaf or interior node — has its own nonzero key.
std::uint64_t node_key(const Octant& o) noexcept {
  const int l = o.level;
  return (std::uint64_t{1} << (3 * l)) | (o.morton() >> (3 * (kMaxLevel - l)));
}

// Every node of the tree, leaf or interior, in one flat open-addressing
// table (linear probing; key 0 marks an empty slot).
class NodeTable {
 public:
  enum State : std::uint8_t { kAbsent, kInterior, kLeaf };

  explicit NodeTable(std::span<const Octant> leaves) {
    // A full octree has about one interior node per seven leaves; size the
    // table for a load factor of at most one half.
    rehash(std::bit_ceil(2 * (leaves.size() + leaves.size() / 7) + 16));
    for (const Octant& o : leaves) {
      insert(o, kLeaf);
      for (Octant a = o; a.level > 0;) {
        a = a.parent();
        if (!insert(a, kInterior)) break;  // so are all its ancestors
      }
    }
  }

  [[nodiscard]] State state(const Octant& o) const noexcept {
    return states_[find(node_key(o))];  // an empty slot holds kAbsent
  }

  // Replaces leaf `o` by its eight children.
  void split(const Octant& o) {
    states_[find(node_key(o))] = kInterior;
    for (int c = 0; c < 8; ++c) insert(o.child(c), kLeaf);
  }

  // The leaves under each of `roots` (sorted, pairwise disjoint nodes), in
  // Morton order.
  [[nodiscard]] std::vector<Octant> leaves_under(
      std::span<const Octant> roots) const {
    std::vector<Octant> out;
    out.reserve(roots.size());
    for (const Octant& o : roots) collect(o, out);
    return out;
  }

 private:
  void collect(const Octant& o, std::vector<Octant>& out) const {
    const State s = state(o);
    if (s == kLeaf) {
      out.push_back(o);
    } else if (s == kInterior) {
      for (int c = 0; c < 8; ++c) collect(o.child(c), out);
    }
  }

  // Returns false (and changes nothing) when `o` is already present.
  bool insert(const Octant& o, State s) {
    if (2 * (size_ + 1) > keys_.size()) rehash(2 * keys_.size());
    const std::uint64_t k = node_key(o);
    const std::size_t i = find(k);
    if (keys_[i] == k) return false;
    keys_[i] = k;
    states_[i] = s;
    ++size_;
    return true;
  }

  // The slot holding key `k`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find(std::uint64_t k) const noexcept {
    std::size_t i =
        static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (keys_[i] != 0 && keys_[i] != k) i = (i + 1) & mask_;
    return i;
  }

  void rehash(std::size_t capacity) {  // a power of two, at least 16
    std::vector<std::uint64_t> keys(capacity, 0);
    std::vector<State> states(capacity, kAbsent);
    keys.swap(keys_);
    states.swap(states_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (keys[j] == 0) continue;
      const std::size_t i = find(keys[j]);
      keys_[i] = keys[j];
      states_[i] = states[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<State> states_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

// For a child at position c of its parent, the parent-level directions it
// probes: every nonzero component points out of the parent on its axis
// (+1 where bit a of c is set, -1 otherwise), with at most the scope's
// number of nonzero components. Each same-size neighbour of the child in
// the scope's directions is either a sibling or lies in the parent's
// neighbour in exactly one of these directions — at most 7 of 26.
struct ProbeDirs {
  std::array<std::array<int, 3>, 7> d{};
  int n = 0;
};
using ProbeTable = std::array<ProbeDirs, 8>;

ProbeTable make_probe_table(int max_nonzero) {
  ProbeTable t{};
  for (int c = 0; c < 8; ++c) {
    for (unsigned axes = 1; axes < 8; ++axes) {
      if (std::popcount(axes) > max_nonzero) continue;
      std::array<int, 3> d{};
      for (int a = 0; a < 3; ++a) {
        if (((axes >> a) & 1u) != 0) d[a] = ((c >> a) & 1) != 0 ? 1 : -1;
      }
      t[c].d[t[c].n++] = d;
    }
  }
  return t;
}

const ProbeTable& probe_table(BalanceScope scope) noexcept {
  static const ProbeTable faces = make_probe_table(1);
  static const ProbeTable faces_edges = make_probe_table(2);
  static const ProbeTable all = make_probe_table(3);
  switch (scope) {
    case BalanceScope::kFaces:
      return faces;
    case BalanceScope::kFacesEdges:
      return faces_edges;
    case BalanceScope::kAll:
      break;
  }
  return all;
}

// Position of `o` among its parent's children (Octant::child order).
int child_index(const Octant& o) noexcept {
  const int shift = kMaxLevel - o.level;
  return static_cast<int>(((o.x >> shift) & 1u) | (((o.y >> shift) & 1u) << 1) |
                          (((o.z >> shift) & 1u) << 2));
}

}  // namespace

LinearOctree::LinearOctree(std::vector<Octant> leaves)
    : leaves_(std::move(leaves)) {
  if (!std::is_sorted(leaves_.begin(), leaves_.end(), OctantLess{})) {
    std::sort(leaves_.begin(), leaves_.end(), OctantLess{});
  }
}

std::optional<std::size_t> LinearOctree::find_containing(
    std::uint32_t x, std::uint32_t y, std::uint32_t z) const {
  if (leaves_.empty()) return std::nullopt;
  const std::uint64_t code = morton_encode(x, y, z);
  // Last leaf whose anchor code is <= code.
  auto it = std::upper_bound(
      leaves_.begin(), leaves_.end(), code,
      [](std::uint64_t c, const Octant& o) { return c < o.morton(); });
  if (it == leaves_.begin()) return std::nullopt;
  --it;
  const Octant probe{x, y, z, kMaxLevel};
  if (!it->contains(probe)) return std::nullopt;
  return static_cast<std::size_t>(it - leaves_.begin());
}

std::optional<std::size_t> LinearOctree::find(const Octant& o) const {
  auto it = std::lower_bound(leaves_.begin(), leaves_.end(), o, OctantLess{});
  if (it == leaves_.end() || !(*it == o)) return std::nullopt;
  return static_cast<std::size_t>(it - leaves_.begin());
}

bool LinearOctree::validate(bool require_cover) const {
  std::uint64_t expected_next = 0;
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    const Octant& o = leaves_[i];
    const std::uint64_t code = o.morton();
    if (i > 0 && code < expected_next) return false;  // overlap or disorder
    if (require_cover && code != expected_next) return false;  // gap
    expected_next = code + morton_volume(o);
    covered += morton_volume(o);
  }
  if (require_cover) {
    const std::uint64_t full = std::uint64_t{1} << (3 * kMaxLevel);
    return covered == full;
  }
  return true;
}

std::pair<int, int> LinearOctree::level_range() const {
  if (leaves_.empty()) return {0, 0};
  int lo = kMaxLevel, hi = 0;
  for (const Octant& o : leaves_) {
    lo = std::min<int>(lo, o.level);
    hi = std::max<int>(hi, o.level);
  }
  return {lo, hi};
}

std::vector<std::size_t> LinearOctree::level_histogram() const {
  std::vector<std::size_t> h(kMaxLevel + 1, 0);
  for (const Octant& o : leaves_) ++h[o.level];
  return h;
}

LinearOctree build_octree(const RefinePolicy& policy, int max_level) {
  if (max_level < 0 || max_level > kMaxLevel) {
    throw std::invalid_argument("build_octree: bad max_level");
  }
  std::vector<Octant> leaves;
  // Iterative preorder traversal; children visited in Morton order, so the
  // emitted leaf sequence is already space-filling-curve sorted.
  std::vector<Octant> stack{Octant{}};
  while (!stack.empty()) {
    const Octant o = stack.back();
    stack.pop_back();
    if (o.level < max_level && policy(o)) {
      // Push children in reverse Morton order so they pop in Morton order.
      for (int c = 7; c >= 0; --c) stack.push_back(o.child(c));
    } else {
      leaves.push_back(o);
    }
  }
  return LinearOctree(std::move(leaves));
}

bool is_balanced(const LinearOctree& tree, BalanceScope scope) {
  const auto dirs = dirs_for(scope);
  const LeafMap map = to_map(tree.leaves());
  const int finest = tree.level_range().second;
  for (const Octant& o : tree.leaves()) {
    for (const auto& d : dirs) {
      const auto n = o.neighbor(d[0], d[1], d[2]);
      if (!n) continue;
      Octant leaf;
      if (!find_leaf_at(map, n->x, n->y, n->z, finest, leaf)) continue;
      if (static_cast<int>(o.level) - static_cast<int>(leaf.level) > 1) {
        return false;
      }
    }
  }
  return true;
}

namespace {

// The one work-queue body behind balance and balance_local. A leaf o at
// level L is balanced against its neighbours in every direction iff, for
// each of its parent-level probe directions, the parent's neighbour P is a
// node of the tree (a leaf, or an interior node covered by finer leaves):
// otherwise P lies strictly inside a leaf at level < L - 1, which is split.
// So each leaf makes at most 7 membership probes, and only a failed probe
// searches upwards for the leaf to split. `may_split` filters the leaves
// this pass may refine and `check` the probes it makes (local balancing
// keeps its internal passes inside one block). `seeds` must all be leaves
// of `table` when the pass starts. Split children and the instigating leaf
// are re-examined. Returns the number of splits.
template <typename MaySplit, typename Check>
std::size_t balance_queue(NodeTable& table, std::span<const Octant> seeds,
                          const ProbeTable& probes, const MaySplit& may_split,
                          const Check& check) {
  std::size_t splits = 0;
  std::vector<Octant> queue;
  const auto visit = [&](const Octant& o) {
    // Seeds are leaves until the first split; after it, skip stale entries.
    if (o.level == 0 || (splits > 0 && table.state(o) != NodeTable::kLeaf)) {
      return;
    }
    const Octant parent = o.parent();
    const ProbeDirs& pd = probes[static_cast<std::size_t>(child_index(o))];
    for (int i = 0; i < pd.n; ++i) {
      const auto& d = pd.d[static_cast<std::size_t>(i)];
      const auto n = parent.neighbor(d[0], d[1], d[2]);
      if (!n || !check(*n) || table.state(*n) != NodeTable::kAbsent) continue;
      // The leaf holding n, if n is covered at all (partial trees).
      Octant coarse = *n;
      NodeTable::State s = NodeTable::kAbsent;
      while (s == NodeTable::kAbsent && coarse.level > 0) {
        coarse = coarse.parent();
        s = table.state(coarse);
      }
      if (s != NodeTable::kLeaf || !may_split(coarse)) continue;
      table.split(coarse);
      ++splits;
      for (int c = 0; c < 8; ++c) queue.push_back(coarse.child(c));
      queue.push_back(o);
    }
  };
  for (const Octant& o : seeds) visit(o);
  while (!queue.empty()) {
    const Octant o = queue.back();
    queue.pop_back();
    visit(o);
  }
  return splits;
}

constexpr auto kAny = [](const Octant&) { return true; };

}  // namespace

LinearOctree balance(const LinearOctree& tree, BalanceScope scope) {
  NodeTable table(tree.leaves());
  if (balance_queue(table, tree.leaves(), probe_table(scope), kAny, kAny) ==
      0) {
    return tree;
  }
  return LinearOctree(table.leaves_under(tree.leaves()));
}

LinearOctree balance_global_sweeps(const LinearOctree& tree,
                                   BalanceScope scope) {
  const auto dirs = dirs_for(scope);
  std::vector<Octant> leaves(tree.leaves().begin(), tree.leaves().end());
  bool changed = true;
  while (changed) {
    changed = false;
    LeafMap map = to_map(leaves);
    int finest = 0;
    for (const Octant& o : leaves) finest = std::max<int>(finest, o.level);
    LeafMap to_split;  // anchor -> level of leaves that must refine
    for (const Octant& o : leaves) {
      for (const auto& d : dirs) {
        const auto n = o.neighbor(d[0], d[1], d[2]);
        if (!n) continue;
        Octant leaf;
        if (!find_leaf_at(map, n->x, n->y, n->z, finest, leaf)) continue;
        if (static_cast<int>(o.level) - static_cast<int>(leaf.level) > 1) {
          to_split.emplace(leaf.morton(), leaf.level);
        }
      }
    }
    if (!to_split.empty()) {
      changed = true;
      std::vector<Octant> next;
      next.reserve(leaves.size() + 7 * to_split.size());
      for (const Octant& o : leaves) {
        auto it = to_split.find(o.morton());
        if (it != to_split.end() && it->second == o.level) {
          for (int c = 0; c < 8; ++c) next.push_back(o.child(c));
        } else {
          next.push_back(o);
        }
      }
      leaves = std::move(next);
    }
  }
  return LinearOctree(std::move(leaves));
}

LinearOctree balance_local(const LinearOctree& tree, BalanceScope scope,
                           int block_level) {
  const ProbeTable& probes = probe_table(scope);
  // Blocks coarser than the coarsest leaf would leave leaves spanning
  // several blocks; clamp so every leaf lies in exactly one block.
  const int coarsest = tree.level_range().first;
  const int bl = std::min(block_level, coarsest);
  const std::span<const Octant> leaves = tree.leaves();
  NodeTable table(leaves);

  // Internal balancing: one pass per block, splits and probes confined to
  // the block. A block's leaves are one contiguous run of the sorted array.
  for (std::size_t i = 0; i < leaves.size();) {
    const Octant block = leaves[i].ancestor_at(static_cast<std::uint8_t>(bl));
    std::size_t j = i + 1;
    while (j < leaves.size() && block.contains(leaves[j])) ++j;
    const auto inside = [&block](const Octant& o) { return block.contains(o); };
    balance_queue(table, leaves.subspan(i, j - i), probes, inside, inside);
    i = j;
  }

  // Boundary balancing: seed the global queue with every leaf touching a
  // block face; cascades re-enter block interiors as needed.
  std::vector<Octant> seeds;
  const std::uint32_t block_size = 1u << (kMaxLevel - bl);
  for (const Octant& o : table.leaves_under(leaves)) {
    const std::uint32_t s = o.size();
    const bool on_boundary =
        (o.x % block_size == 0) || ((o.x + s) % block_size == 0) ||
        (o.y % block_size == 0) || ((o.y + s) % block_size == 0) ||
        (o.z % block_size == 0) || ((o.z + s) % block_size == 0);
    if (on_boundary) seeds.push_back(o);
  }
  balance_queue(table, seeds, probes, kAny, kAny);
  return LinearOctree(table.leaves_under(leaves));
}

}  // namespace quake::octree
