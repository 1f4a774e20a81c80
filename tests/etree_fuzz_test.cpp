// Model-based fuzz test for the etree B-tree store: random sequences of
// put / overwrite / erase / get are mirrored against a std::map reference
// model, with periodic full-scan and reopen consistency checks. This is the
// kind of storage-engine test that guards the out-of-core meshing pipeline.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "quake/octree/etree_store.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/util/rng.hpp"

namespace {

using namespace quake::octree;

struct KeyLess {
  bool operator()(const Octant& a, const Octant& b) const {
    return OctantLess{}(a, b);
  }
};

class EtreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtreeFuzz, MatchesReferenceModel) {
  const std::string path = testing::TempDir() + "/fuzz_" +
                           std::to_string(GetParam()) + ".etree";
  quake::util::Rng rng(GetParam());

  // Key universe: all octants of a few levels (collisions with existing
  // keys are then frequent, exercising overwrite and erase paths).
  const auto tree =
      build_octree([](const Octant& q) { return q.level < 3; }, 3);
  std::vector<Octant> universe;
  for (const Octant& o : tree.leaves()) {
    universe.push_back(o);
    universe.push_back(o.parent());
  }

  std::map<Octant, double, KeyLess> ref;
  auto store = std::make_unique<EtreeStore>(path, sizeof(double), 8,
                                            /*create=*/true);

  auto check_scan = [&] {
    std::size_t idx = 0;
    std::vector<std::pair<Octant, double>> expected(ref.begin(), ref.end());
    store->scan([&](const Octant& o, std::span<const std::byte> v) {
      ASSERT_LT(idx, expected.size());
      EXPECT_EQ(o, expected[idx].first);
      double d;
      std::memcpy(&d, v.data(), sizeof d);
      EXPECT_DOUBLE_EQ(d, expected[idx].second);
      ++idx;
    });
    EXPECT_EQ(idx, expected.size());
    EXPECT_EQ(store->count(), ref.size());
  };

  for (int op = 0; op < 4000; ++op) {
    const Octant key = universe[static_cast<std::size_t>(
        rng.next_u64() % universe.size())];
    const double roll = rng.uniform();
    if (roll < 0.55) {
      const double v = rng.uniform(-1e6, 1e6);
      store->put(key, std::as_bytes(std::span<const double, 1>(&v, 1)));
      ref[key] = v;
    } else if (roll < 0.75) {
      EXPECT_EQ(store->erase(key), ref.erase(key) > 0);
    } else {
      double got = 0.0;
      const bool found = store->get(
          key, std::as_writable_bytes(std::span<double, 1>(&got, 1)));
      auto it = ref.find(key);
      EXPECT_EQ(found, it != ref.end());
      if (found && it != ref.end()) {
        EXPECT_DOUBLE_EQ(got, it->second);
      }
    }
    if (op % 500 == 499) check_scan();
    if (op == 2000) {
      // Close and reopen mid-sequence: durability across sessions.
      store->flush();
      store.reset();
      store = std::make_unique<EtreeStore>(path, sizeof(double), 8,
                                           /*create=*/false);
      check_scan();
    }
  }
  check_scan();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtreeFuzz,
                         ::testing::Values(1u, 42u, 2026u, 777u));

}  // namespace
