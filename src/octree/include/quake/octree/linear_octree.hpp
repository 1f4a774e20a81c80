#pragma once

// In-memory linear octree: the sorted, pairwise-disjoint set of leaf octants
// that covers the domain. This is the in-core working representation; the
// out-of-core representation is the EtreeStore (B-tree on disk), and the two
// round-trip losslessly.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "quake/octree/octant.hpp"

namespace quake::octree {

class LinearOctree {
 public:
  LinearOctree() = default;

  // Takes ownership of `leaves` and sorts them into space-filling-curve
  // order (one linear check when they already arrive sorted, as they do
  // from build_octree and EtreeStore::scan).
  // Pre: leaves are pairwise disjoint (checked in debug via validate()).
  explicit LinearOctree(std::vector<Octant> leaves);

  [[nodiscard]] std::span<const Octant> leaves() const noexcept {
    return leaves_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return leaves_.size(); }
  [[nodiscard]] const Octant& operator[](std::size_t i) const noexcept {
    return leaves_[i];
  }

  // Index of the leaf containing tick point (x, y, z), or nullopt when the
  // point is not covered (possible for partial-domain trees).
  [[nodiscard]] std::optional<std::size_t> find_containing(
      std::uint32_t x, std::uint32_t y, std::uint32_t z) const;

  // Index of the leaf equal to `o`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> find(const Octant& o) const;

  // True iff leaves are sorted, disjoint, and (when `require_cover` is set)
  // cover the whole root domain exactly.
  [[nodiscard]] bool validate(bool require_cover) const;

  // Coarsest and finest leaf levels present; {0, 0} for an empty tree.
  [[nodiscard]] std::pair<int, int> level_range() const;

  // Histogram of leaf counts by level, indexed 0..kMaxLevel.
  [[nodiscard]] std::vector<std::size_t> level_histogram() const;

 private:
  std::vector<Octant> leaves_;
};

// -- Construction (the etree "construct" step) -------------------------------
//
// Auto-navigation: the traversal logic lives here, the application supplies
// only a refinement predicate. The tree is expanded in preorder from the
// root; the resulting leaf sequence is already in space-filling-curve order.

using RefinePolicy = std::function<bool(const Octant&)>;

// Builds leaves by refining from the root wherever `policy` returns true,
// stopping at `max_level`.
LinearOctree build_octree(const RefinePolicy& policy, int max_level);

// -- Balancing (the etree "balance" step) ------------------------------------

// Which neighbor relations the 2-to-1 constraint is enforced across.
enum class BalanceScope { kFaces, kFacesEdges, kAll };

// True iff no two neighboring leaves (per `scope`) differ by more than one
// level.
bool is_balanced(const LinearOctree& tree, BalanceScope scope);

// Work-queue balancing, the production algorithm. Every leaf is probed
// once: for each direction in `scope` that leaves its parent (at most 7 of
// the 26, since neighbours sharing a parent-level cell share one probe) it
// asks a flat table of the tree's nodes whether the parent's neighbour is a
// leaf or an interior node. Only a failed probe splits the coarse leaf
// around it, and only split children and the failing leaf are re-examined.
// Returns `tree` unchanged when no probe fails.
LinearOctree balance(const LinearOctree& tree, BalanceScope scope);

// Baseline: repeated full sweeps over all leaves until a fixed point; the
// "naive global balancing" the paper's local balancing is compared against.
LinearOctree balance_global_sweeps(const LinearOctree& tree,
                                   BalanceScope scope);

// The paper's local balancing: partition the domain into 8^block_level
// equal blocks, balance each block internally, then resolve inter-block
// boundaries (§2.3: "internal balancing" + "boundary balancing"). Both
// phases run balance()'s probe-and-split queue.
LinearOctree balance_local(const LinearOctree& tree, BalanceScope scope,
                           int block_level);

}  // namespace quake::octree
