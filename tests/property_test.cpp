// Parameterized property sweeps across modules: octant algebra invariants,
// balancing over random trees and scopes, filter frequency response,
// communicator oversubscription, and wavelength-rule monotonicity.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "quake/mesh/meshgen.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/par/communicator.hpp"
#include "quake/util/filter.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"

namespace {

using namespace quake;
using namespace quake::octree;

// -- octant algebra -----------------------------------------------------

class OctantLevel : public ::testing::TestWithParam<int> {};

TEST_P(OctantLevel, ChildContainmentAndParentInverse) {
  const int level = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(level) + 1);
  for (int trial = 0; trial < 200; ++trial) {
    // Random octant at `level` by descending random children.
    Octant o{};
    for (int l = 0; l < level; ++l) {
      o = o.child(static_cast<int>(rng.next_u64() % 8));
    }
    EXPECT_EQ(o.level, level);
    for (int c = 0; c < 8; ++c) {
      const Octant ch = o.child(c);
      EXPECT_TRUE(o.contains(ch));
      EXPECT_EQ(ch.parent(), o);
      EXPECT_EQ(ch.ancestor_at(o.level), o);
    }
    // Neighbor relation is symmetric: o.neighbor(d).neighbor(-d) == o.
    for (const auto& d : kNeighborDirs) {
      const auto n = o.neighbor(d[0], d[1], d[2]);
      if (!n) continue;
      const auto back = n->neighbor(-d[0], -d[1], -d[2]);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, o);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, OctantLevel, ::testing::Values(1, 3, 7, 15));

TEST(OctantProperty, MortonOrderEqualsPreorderOfLeaves) {
  // Leaves of any tree are emitted in strictly increasing Morton order, and
  // the Morton ranges are exactly contiguous (covering <-> no gaps).
  util::Rng rng(17);
  auto policy = [&rng](const Octant& o) {
    return o.level < 2 || (o.level < 5 && rng.uniform() < 0.4);
  };
  const LinearOctree t = build_octree(policy, 5);
  ASSERT_TRUE(t.validate(true));
  std::uint64_t next = 0;
  for (const Octant& o : t.leaves()) {
    EXPECT_EQ(o.morton(), next);
    next = o.morton() +
           (std::uint64_t{1} << (3 * (kMaxLevel - o.level)));
  }
}

class BalanceRandom
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, BalanceScope>> {
};

TEST_P(BalanceRandom, BalancedClosureIsMinimalAndIdempotent) {
  const auto [seed, scope] = GetParam();
  util::Rng rng(seed);
  auto policy = [&rng](const Octant& o) {
    return rng.uniform() < 1.2 / (1 + o.level);
  };
  const LinearOctree t = build_octree(policy, 6);
  const LinearOctree b = balance(t, scope);
  EXPECT_TRUE(is_balanced(b, scope));
  EXPECT_TRUE(b.validate(true));
  // The minimal balanced refinement is unique: the probe-and-split queue
  // and the find_leaf_at full sweeps reach it leaf for leaf.
  const LinearOctree sweeps = balance_global_sweeps(t, scope);
  ASSERT_EQ(b.size(), sweeps.size());
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], sweeps[i]);
  // Idempotent: balancing a balanced tree changes nothing.
  const LinearOctree b2 = balance(b, scope);
  EXPECT_EQ(b2.size(), b.size());
  // Refinement-only: every original leaf is present or refined.
  for (const Octant& o : t.leaves()) {
    const auto idx = b.find_containing(o.x, o.y, o.z);
    ASSERT_TRUE(idx.has_value());
    EXPECT_GE(b[*idx].level, o.level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BalanceRandom,
    ::testing::Combine(::testing::Values(3u, 1234u, 999u),
                       ::testing::Values(BalanceScope::kFaces,
                                         BalanceScope::kAll)));

// -- filter frequency response ------------------------------------------

class FilterResponse : public ::testing::TestWithParam<double> {};

TEST_P(FilterResponse, GainNearUnityInPassbandAndSmallInStopband) {
  const double fc = GetParam();
  const double fs = 100.0;
  auto gain_at = [&](double f) {
    const int n = 6000;
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] =
          std::sin(2.0 * std::numbers::pi * f * i / fs);
    }
    const auto y = util::lowpass_zero_phase(x, fc, fs);
    // Interior RMS ratio.
    double sx = 0.0, sy = 0.0;
    for (int i = 1000; i < 5000; ++i) {
      sx += x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
      sy += y[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
    }
    return std::sqrt(sy / sx);
  };
  EXPECT_NEAR(gain_at(fc / 8.0), 1.0, 0.02);
  // Zero-phase doubling of the 2nd-order rolloff: ~1/2 at cutoff.
  EXPECT_NEAR(gain_at(fc), 0.5, 0.06);
  EXPECT_LT(gain_at(4.0 * fc), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, FilterResponse,
                         ::testing::Values(1.0, 2.5, 6.0));

// -- communicator stress --------------------------------------------------

class CommRanks : public ::testing::TestWithParam<int> {};

TEST_P(CommRanks, RingPassAndReductionsOversubscribed) {
  const int r = GetParam();
  par::Communicator comm(r);
  comm.run([&](par::Rank& rank) {
    // Ring: pass a growing token around twice.
    const int next = (rank.id() + 1) % rank.size();
    const int prev = (rank.id() + rank.size() - 1) % rank.size();
    double token = 0.0;
    if (rank.id() == 0) {
      std::vector<double> t = {1.0};
      rank.send(next, 0, t);
    }
    for (int lap = 0; lap < 2; ++lap) {
      const auto msg = rank.recv(prev, 0);
      token = msg[0] + 1.0;
      if (!(lap == 1 && rank.id() == 0)) {
        std::vector<double> t = {token};
        rank.send(next, 0, t);
      }
    }
    if (rank.id() == 0) {
      EXPECT_DOUBLE_EQ(token, 2.0 * rank.size() + 1.0);  // 1 + one increment per recv
    }
    // Interleaved reductions still agree.
    for (int round = 0; round < 3; ++round) {
      const double s = rank.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, rank.size());
      rank.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommRanks, ::testing::Values(2, 5, 16, 32));

// -- wavelength rule monotonicity -----------------------------------------

TEST(MeshProperty, HigherFrequencyNeverCoarsensTheMesh) {
  const vel::BasinModel basin = vel::BasinModel::demo(16000.0);
  std::size_t prev = 0;
  for (double f : {0.02, 0.04, 0.08, 0.16}) {
    mesh::MeshOptions opt;
    opt.domain_size = 16000.0;
    opt.f_max = f;
    opt.n_lambda = 8.0;
    opt.min_level = 2;
    opt.max_level = 6;
    const auto m = mesh::generate_mesh(basin, opt);
    EXPECT_GE(m.n_elements(), prev);
    prev = m.n_elements();
  }
}

TEST(MeshProperty, MorePointsPerWavelengthRefines) {
  const vel::BasinModel basin = vel::BasinModel::demo(16000.0);
  std::size_t prev = 0;
  for (double nl : {4.0, 8.0, 16.0}) {
    mesh::MeshOptions opt;
    opt.domain_size = 16000.0;
    opt.f_max = 0.05;
    opt.n_lambda = nl;
    opt.min_level = 2;
    opt.max_level = 6;
    const auto m = mesh::generate_mesh(basin, opt);
    EXPECT_GE(m.n_elements(), prev);
    prev = m.n_elements();
  }
}

}  // namespace
