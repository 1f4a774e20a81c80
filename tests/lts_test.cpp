// Tests for the local-time-stepping subsystem (src/lts, docs/LTS.md):
// the clustering pass (per-element stable dt, power-of-two binning, +-1
// adjacency normalization through hanging-node constraint groups) and
// ParallelSetup::run_lts — serially at one rank (tolerance-equivalent to
// global dt with several classes, element updates following the
// schedule) and in parallel (global-dt forwarding, single-class bitwise
// anchor, the one-rank reference-stepper oracle, multi-rate equivalence,
// bitwise determinism across repeats, cancellation, and reuse of one setup
// across every execution mode).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "quake/lts/clustering.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/vel/model.hpp"
#include "reference_stepper.hpp"

namespace {

using namespace quake;
using testsupport::same_bits;

// Uniform single-level mesh: one material, one octree level, so the
// clustering must collapse to a single class and LTS must degenerate to
// the global scheme bit for bit.
mesh::HexMesh uniform_mesh() {
  const vel::HomogeneousModel model(
      vel::Material::from_velocities(4000.0, 2300.0, 2600.0));
  mesh::MeshOptions opt;
  opt.domain_size = 8000.0;
  opt.f_max = 1e-9;
  opt.min_level = 3;
  opt.max_level = 3;
  return mesh::generate_mesh(model, opt);
}

// Soft layer with a saturated-sediment P velocity (vp/vs = 4) over a stiff
// halfspace: wavelength refinement sizes h to vs while the stable step
// follows h / vp, so the two octree levels carry genuinely different rates
// and the level transition has hanging nodes.
mesh::HexMesh two_rate_mesh() {
  const vel::LayeredModel model(
      {{150.0, vel::Material::from_velocities(3200.0, 800.0, 2000.0)},
       {0.0, vel::Material::from_velocities(1.732 * 1600.0, 1600.0, 2400.0)}});
  mesh::MeshOptions opt;
  opt.domain_size = 800.0;
  opt.f_max = 2.0;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 5;
  return mesh::generate_mesh(model, opt);
}

// The small multi-level basin from par_test: three stability bins, hanging
// nodes, and enough structure for multi-rank runs.
mesh::HexMesh small_basin_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(20000.0);
  mesh::MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.04;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  return mesh::generate_mesh(basin, opt);
}

// Element adjacency as the clustering defines it: two elements are
// adjacent when they share a node directly, or when one touches a hanging
// node whose constraint group (dependent + masters) the other touches.
std::vector<std::set<mesh::ElemId>> node_to_elems(const mesh::HexMesh& mesh) {
  std::vector<std::set<mesh::ElemId>> of_node(mesh.n_nodes());
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    for (const mesh::NodeId n : mesh.elem_nodes[e]) {
      of_node[static_cast<std::size_t>(n)].insert(
          static_cast<mesh::ElemId>(e));
    }
  }
  return of_node;
}

// SH-style upgoing pulse in the halfspace of two_rate_mesh (see
// bench_table2_1 --lts-sweep): u0 and v0 on the y component.
std::pair<std::vector<double>, std::vector<double>> sh_pulse(
    const mesh::HexMesh& mesh) {
  const double zc = 500.0, sigma = 120.0, vs2 = 1600.0;
  std::vector<double> u0(3 * mesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const double z = mesh.node_coords[n][2];
    const double p = std::exp(-std::pow((z - zc) / sigma, 2));
    u0[3 * n + 1] = p;
    v0[3 * n + 1] = vs2 * (-2.0 * (z - zc) / (sigma * sigma)) * p;
  }
  return {u0, v0};
}

}  // namespace

TEST(LtsClustering, ElementStableDtMatchesFormula) {
  const auto mesh = uniform_mesh();
  const double cfl = 0.4;
  const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
  ASSERT_EQ(dts.size(), mesh.n_elements());
  double mn = dts[0];
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const double want = cfl * mesh.elem_size[e] / mesh.elem_mat[e].vp();
    EXPECT_NEAR(dts[e], want, 1e-12 * want);
    mn = std::min(mn, dts[e]);
  }
  const solver::ElasticOperator op(mesh, {});
  EXPECT_NEAR(mn, op.stable_dt(cfl), 1e-12 * mn);
}

TEST(LtsClustering, PowerOfTwoBinsAndHistograms) {
  const auto mesh = two_rate_mesh();
  ASSERT_GT(mesh.n_hanging(), 0u);
  const double cfl = 0.35;
  const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
  const double base_dt = *std::min_element(dts.begin(), dts.end());
  const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, cfl, 32);

  EXPECT_GE(cl.n_classes, 2);
  EXPECT_EQ(cl.base_dt, base_dt);
  ASSERT_EQ(cl.elem_rate_log2.size(), mesh.n_elements());
  ASSERT_EQ(cl.elem_class_log2.size(), mesh.n_elements());
  ASSERT_EQ(cl.node_rate_log2.size(), mesh.n_nodes());
  std::size_t rate_total = 0, class_total = 0;
  ASSERT_EQ(cl.rate_histogram.size(), static_cast<std::size_t>(cl.n_classes));
  for (int c = 0; c < cl.n_classes; ++c) {
    rate_total += cl.rate_histogram[static_cast<std::size_t>(c)];
    class_total += cl.class_histogram[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(rate_total, mesh.n_elements());
  EXPECT_EQ(class_total, mesh.n_elements());
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const int rate = 1 << cl.elem_rate_log2[e];
    EXPECT_LE(rate, 32);
    // Stability: each element's cadence keeps its own CFL bound.
    EXPECT_LE(rate * base_dt, dts[e] * (1.0 + 1e-12));
    // The compute cadence never exceeds the stability cadence.
    EXPECT_LE(cl.elem_class_log2[e], cl.elem_rate_log2[e]);
  }
  EXPECT_GT(cl.predicted_updates_saved(), 1.0);
  EXPECT_NEAR(cl.predicted_update_fraction() * cl.predicted_updates_saved(),
              1.0, 1e-12);
}

TEST(LtsClustering, AdjacentRatesDifferByAtMostOneThroughHangingNodes) {
  for (const auto& mesh : {two_rate_mesh(), small_basin_mesh()}) {
    ASSERT_GT(mesh.n_hanging(), 0u);
    const double cfl = 0.4;
    const std::vector<double> dts = lts::element_stable_dt(mesh, cfl);
    const double base_dt = *std::min_element(dts.begin(), dts.end());
    const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, cfl, 32);
    ASSERT_GE(cl.n_classes, 2);

    // A hanging node and its masters share one cadence.
    for (const mesh::Constraint& c : mesh.constraints) {
      for (int m = 0; m < c.n_masters; ++m) {
        EXPECT_EQ(cl.node_rate_log2[static_cast<std::size_t>(c.node)],
                  cl.node_rate_log2[static_cast<std::size_t>(c.masters[m])]);
      }
    }

    // Adjacency including constraint-group coupling: elements touching any
    // node of the same group are mutually adjacent for the +-1 rule.
    auto of_node = node_to_elems(mesh);
    for (const mesh::Constraint& c : mesh.constraints) {
      std::set<mesh::ElemId> group = of_node[static_cast<std::size_t>(c.node)];
      for (int m = 0; m < c.n_masters; ++m) {
        const auto& more = of_node[static_cast<std::size_t>(c.masters[m])];
        group.insert(more.begin(), more.end());
      }
      of_node[static_cast<std::size_t>(c.node)] = group;
      for (int m = 0; m < c.n_masters; ++m) {
        of_node[static_cast<std::size_t>(c.masters[m])] = group;
      }
    }
    for (const auto& elems : of_node) {
      int lo = 127, hi = 0;
      for (const mesh::ElemId e : elems) {
        lo = std::min<int>(lo, cl.elem_rate_log2[static_cast<std::size_t>(e)]);
        hi = std::max<int>(hi, cl.elem_rate_log2[static_cast<std::size_t>(e)]);
      }
      if (!elems.empty()) {
        EXPECT_LE(hi - lo, 1);
      }
    }

    // Node cadence = min rate over touching elements (folded above);
    // element class = min node cadence over its nodes.
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      if (of_node[n].empty()) continue;
      int want = 127;
      for (const mesh::ElemId e : of_node[n]) {
        want = std::min<int>(want,
                             cl.elem_rate_log2[static_cast<std::size_t>(e)]);
      }
      EXPECT_EQ(cl.node_rate_log2[n], want);
    }
    for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
      int want = 127;
      for (const mesh::NodeId n : mesh.elem_nodes[e]) {
        want = std::min<int>(want,
                             cl.node_rate_log2[static_cast<std::size_t>(n)]);
      }
      EXPECT_EQ(cl.elem_class_log2[e], want);
    }
  }
}

TEST(LtsClustering, MaxRateOneDegeneratesToGlobal) {
  const auto mesh = two_rate_mesh();
  const std::vector<double> dts = lts::element_stable_dt(mesh, 0.4);
  const double base_dt = *std::min_element(dts.begin(), dts.end());
  const lts::Clustering cl = lts::cluster_elements(mesh, base_dt, 0.4, 1);
  EXPECT_EQ(cl.n_classes, 1);
  EXPECT_EQ(cl.max_rate(), 1);
  EXPECT_DOUBLE_EQ(cl.predicted_updates_saved(), 1.0);
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    EXPECT_EQ(cl.elem_rate_log2[e], 0);
    EXPECT_EQ(cl.elem_class_log2[e], 0);
  }
}

TEST(LtsClustering, RejectsBadArguments) {
  const auto mesh = uniform_mesh();
  EXPECT_THROW(lts::cluster_elements(mesh, 0.0, 0.4, 32),
               std::invalid_argument);
  EXPECT_THROW(lts::cluster_elements(mesh, -1.0, 0.4, 32),
               std::invalid_argument);
  EXPECT_THROW(lts::cluster_elements(mesh, 0.01, 0.4, 0),
               std::invalid_argument);
}

TEST(LtsSerial, TwoRateMatchesGlobalWithinTolerance) {
  const auto mesh = two_rate_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.6;
  so.cfl_fraction = 0.35;
  so.fixed_components = {true, false, true};
  const auto [u0, v0] = sh_pulse(mesh);
  par::RunControl ctl;
  ctl.initial_u = u0;
  ctl.initial_v = v0;
  const std::array<double, 3> rxs[] = {{400.0, 400.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, oo, so);

  const par::ParallelResult ref = setup.run(so.t_end, {}, rxs, {}, ctl);
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = 32;
  const par::ParallelResult pr = setup.run_lts(so.t_end, {}, rxs, lo, ctl);

  ASSERT_GE(lts::cluster_elements(mesh, setup.dt(), so.cfl_fraction, 32)
                .n_classes,
            2);
  EXPECT_LT(pr.rank_stats[0].element_updates,
            ref.rank_stats[0].element_updates);
  ASSERT_EQ(pr.u_final.size(), ref.u_final.size());
  const double unorm = util::norm_l2(ref.u_final);
  EXPECT_LT(util::diff_l2(pr.u_final, ref.u_final), 0.02 * (1.0 + unorm));
  const auto rec_ref = testsupport::component(ref.receiver_histories[0], 1);
  const auto rec_lts = testsupport::component(pr.receiver_histories[0], 1);
  ASSERT_EQ(rec_ref.size(), rec_lts.size());
  EXPECT_LT(util::rel_l2(rec_lts, rec_ref), 0.02);
}

TEST(LtsSerial, ElementUpdatesFollowTheSchedule) {
  const auto mesh = two_rate_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.3;
  so.cfl_fraction = 0.35;
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = 32;
  const par::ParallelResult pr = setup.run_lts(so.t_end, {}, {}, lo);

  // Class c runs at fine steps k in [0, n_steps) with 2^c | k.
  const lts::Clustering cl =
      lts::cluster_elements(mesh, setup.dt(), so.cfl_fraction, lo.max_rate);
  std::uint64_t want = 0;
  for (int c = 0; c < cl.n_classes; ++c) {
    const std::uint64_t active =
        static_cast<std::uint64_t>((pr.n_steps - 1) >> c) + 1;
    want += active * cl.class_histogram[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(pr.rank_stats[0].element_updates, want);
  EXPECT_LT(want, static_cast<std::uint64_t>(pr.n_steps) * mesh.n_elements());
}

TEST(LtsSerial, RayleighDampingRejected) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 0.1;
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions lo;
  lo.enabled = true;
  EXPECT_THROW(setup.run_lts(so.t_end, {}, {}, lo), std::invalid_argument);
}

TEST(LtsParallel, DisabledForwardsToGlobalRun) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);

  const par::ParallelResult ref =
      par::run_parallel(mesh, part, oo, so, sources, rxs);
  par::ParallelSetup setup(mesh, part, oo, so);
  const par::ParallelResult pr =
      setup.run_lts(so.t_end, sources, rxs, lts::LtsOptions{});

  EXPECT_TRUE(same_bits(pr, ref));
  std::uint64_t updates = 0;
  for (const auto& s : pr.rank_stats) updates += s.element_updates;
  EXPECT_EQ(updates, static_cast<std::uint64_t>(pr.n_steps) *
                         mesh.n_elements());
}

TEST(LtsParallel, SingleClassBitwiseMatchesGlobalRun) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 0.5;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {4000.0, 4000.0, 3000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 10.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{6000.0, 3000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);

  const par::ParallelResult ref =
      par::run_parallel(mesh, part, oo, so, sources, rxs);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = 32;
  const par::ParallelResult pr = setup.run_lts(so.t_end, sources, rxs, lo);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  EXPECT_TRUE(same_bits(pr, ref));
}

// The multi-class oracle: at one rank there is no exchange, so the
// loop's per-rate sweeps, bracket gather and in-place update must
// reproduce the reference stepper's window recursion bit for bit — from
// rest with a point source, and from SH-pulse initial conditions under the
// component mask. (The global-dt anchor only holds to tolerance once there
// is more than one class.)
TEST(LtsParallel, OneRankMatchesReferenceLtsStepperBitwise) {
  struct Case {
    const char* name;
    mesh::HexMesh mesh;
    int max_rate;
    double t_end;
    double cfl;
    std::array<double, 3> src, rx;
    double fp, tc;
    int n_classes, n_steps;
    bool sh_ic;  // SH-pulse initial conditions and mask, no source
  };
  const std::vector<Case> cases = {
      // 26 steps: the last 4-step window of the coarsest class is partial.
      {"basin/max_rate=32", small_basin_mesh(), 32, 2.0, 0.4,
       {10000.0, 10000.0, 4000.0}, {14000.0, 9000.0, 0.0}, 0.03, 40.0, 3,
       26, false},
      {"basin/max_rate=2", small_basin_mesh(), 2, 2.0, 0.4,
       {10000.0, 10000.0, 4000.0}, {14000.0, 9000.0, 0.0}, 0.03, 40.0, 2,
       26, false},
      {"two_rate", two_rate_mesh(), 32, 0.3, 0.4, {400.0, 400.0, 500.0},
       {400.0, 400.0, 0.0}, 4.0, 0.05, 2, 48, false},
      {"two_rate/ic+mask", two_rate_mesh(), 32, 0.3, 0.35,
       {400.0, 400.0, 500.0}, {400.0, 400.0, 0.0}, 4.0, 0.05, 2, 55, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    solver::OperatorOptions oo;
    solver::SolverOptions so;
    so.t_end = c.t_end;
    so.cfl_fraction = c.cfl;
    if (c.sh_ic) so.fixed_components = {true, false, true};
    const solver::PointSource src(c.mesh, c.src, {1.0, 0.5, 0.2}, 1e12, c.fp,
                                  c.tc);
    const solver::SourceModel* sources[] = {&src};
    const auto srcs = c.sh_ic ? std::span<const solver::SourceModel* const>()
                              : std::span<const solver::SourceModel* const>(
                                    sources);
    const std::array<double, 3> rxs[] = {c.rx};
    const auto [u0, v0] = sh_pulse(c.mesh);
    par::RunControl ctl;
    if (c.sh_ic) {
      ctl.initial_u = u0;
      ctl.initial_v = v0;
    }
    lts::LtsOptions lo;
    lo.enabled = true;
    lo.max_rate = c.max_rate;

    const par::Partition part = par::partition_sfc(c.mesh, 1);
    par::ParallelSetup setup(c.mesh, part, oo, so);
    const par::ParallelResult pr =
        setup.run_lts(so.t_end, srcs, rxs, lo, ctl);

    const solver::ElasticOperator op(c.mesh, oo);
    const lts::Clustering cl =
        lts::cluster_elements(c.mesh, setup.dt(), c.cfl, c.max_rate);
    EXPECT_EQ(cl.n_classes, c.n_classes);
    const testsupport::Reference ref = testsupport::reference_lts(
        op, so, cl, srcs, rxs, ctl.initial_u, ctl.initial_v);
    EXPECT_EQ(ref.n_steps, c.n_steps);
    EXPECT_EQ(pr.n_steps, ref.n_steps);
    EXPECT_TRUE(same_bits(ref, pr));
  }
}

TEST(LtsParallel, MultiRateMatchesGlobalWithinTolerance) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 2.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 4);
  par::ParallelSetup setup(mesh, part, oo, so);

  lts::LtsOptions off;
  const par::ParallelResult ref = setup.run_lts(so.t_end, sources, rxs, off);
  lts::LtsOptions on;
  on.enabled = true;
  on.max_rate = 32;
  const par::ParallelResult pr = setup.run_lts(so.t_end, sources, rxs, on);

  EXPECT_EQ(pr.n_steps, ref.n_steps);
  std::uint64_t updates = 0;
  for (const auto& s : pr.rank_stats) updates += s.element_updates;
  EXPECT_LT(updates, static_cast<std::uint64_t>(pr.n_steps) *
                         mesh.n_elements());  // actually saved work
  ASSERT_EQ(pr.u_final.size(), ref.u_final.size());
  const double unorm = util::norm_l2(ref.u_final);
  EXPECT_LT(util::diff_l2(pr.u_final, ref.u_final), 0.05 * (1.0 + unorm));
}

TEST(LtsParallel, RepeatedMultiRankRunsBitIdentical) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  lts::LtsOptions on;
  on.enabled = true;
  on.max_rate = 32;

  for (const int R : {2, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(R));
    const par::Partition part = par::partition_sfc(mesh, R);
    par::ParallelSetup setup(mesh, part, oo, so);
    const par::ParallelResult a = setup.run_lts(so.t_end, sources, rxs, on);
    const par::ParallelResult b = setup.run_lts(so.t_end, sources, rxs, on);
    EXPECT_TRUE(same_bits(a, b));
  }
}

TEST(LtsParallel, RayleighDampingRejected) {
  const auto mesh = uniform_mesh();
  solver::OperatorOptions oo;
  oo.rayleigh = true;
  oo.damping_f_min = 0.01;
  oo.damping_f_max = 0.05;
  solver::SolverOptions so;
  so.t_end = 0.2;
  const par::Partition part = par::partition_sfc(mesh, 2);
  par::ParallelSetup setup(mesh, part, oo, so);
  lts::LtsOptions on;
  on.enabled = true;
  EXPECT_THROW(setup.run_lts(so.t_end, {}, {}, on), std::invalid_argument);
}


// One setup driven through every mode in turn — a 4-wide batch, a solo run
// with a killed and in-place revived rank, a multi-class LTS run, a plain
// solo run — must give each call exactly what a cold setup gives it. A
// buffer that only grows, a cached plan or a log ring sized by an earlier
// mode would leak into a later call and show here.
TEST(LtsParallel, CrossModeReuseMatchesColdSetups) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  solver::SolverOptions so;
  so.t_end = 1.5;
  so.cfl_fraction = 0.4;
  const par::Partition part = par::partition_sfc(mesh, 4);

  std::vector<solver::PointSource> srcs;
  for (int s = 0; s < 4; ++s) {
    srcs.emplace_back(mesh,
                      std::array<double, 3>{6000.0 + 2000.0 * s,
                                            14000.0 - 1500.0 * s, 3000.0},
                      std::array<double, 3>{1.0, 0.5 * s, 0.2}, 1e12,
                      0.03 + 0.002 * s, 40.0 - 2.0 * s);
  }
  const std::vector<std::array<double, 3>> rxs = {{14000.0, 9000.0, 0.0},
                                                  {6000.0, 11000.0, 0.0}};
  std::vector<par::BatchScenario> scenarios;
  for (const auto& s : srcs) scenarios.push_back({{&s}, rxs});
  const solver::SourceModel* one[] = {&srcs[0]};

  par::ParallelSetup warm(mesh, part, oo, so);
  const int n_steps = warm.n_steps(so.t_end);
  ASSERT_GT(n_steps, 8);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_cross_mode_reuse_test";
  std::filesystem::remove_all(dir);
  par::FaultPlan plan;
  plan.kills.push_back({/*rank=*/2, /*step=*/2 * n_steps / 3});
  par::FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, n_steps / 4);
  ft.max_revives = 2;
  ft.fault_plan = &plan;
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = 32;

  const auto batch = warm.solve(so.t_end, scenarios);
  const par::ParallelResult killed = warm.run(so.t_end, one, rxs, ft);
  EXPECT_GE(killed.revives_used, 1);
  const par::ParallelResult lts_run = warm.run_lts(so.t_end, one, rxs, lo);
  const par::ParallelResult plain = warm.run(so.t_end, one, rxs);

  {
    par::ParallelSetup cold(mesh, part, oo, so);
    const auto want = cold.solve(so.t_end, scenarios);
    ASSERT_EQ(batch.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_TRUE(same_bits(batch[s], want[s])) << "batch lane " << s;
    }
  }
  {
    par::ParallelSetup cold(mesh, part, oo, so);
    EXPECT_TRUE(same_bits(killed, cold.run(so.t_end, one, rxs, ft)))
        << "killed run";
  }
  {
    par::ParallelSetup cold(mesh, part, oo, so);
    EXPECT_TRUE(same_bits(lts_run, cold.run_lts(so.t_end, one, rxs, lo)))
        << "lts run";
  }
  {
    par::ParallelSetup cold(mesh, part, oo, so);
    EXPECT_TRUE(same_bits(plain, cold.run(so.t_end, one, rxs))) << "plain run";
  }
  // The killed run recovered to the undisturbed answer.
  EXPECT_TRUE(same_bits(killed, plain));
  std::filesystem::remove_all(dir);
}

// RunControl reaches run_lts: a pre-set cancel flag stops the solve at the
// first agreement (step 0) with nothing recorded, and the setup stays
// reusable — the next run_lts equals a cold setup's.
TEST(LtsParallel, CancelStopsAtAgreementAndSetupStaysReusable) {
  const auto mesh = small_basin_mesh();
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  so.t_end = 1.0;
  so.cfl_fraction = 0.4;
  const solver::PointSource src(mesh, {10000.0, 10000.0, 4000.0},
                                {1.0, 0.5, 0.2}, 1e12, 0.03, 40.0);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{14000.0, 9000.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 2);
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = 32;

  par::ParallelSetup setup(mesh, part, oo, so);
  std::atomic<bool> cancel{true};
  par::RunControl ctl;
  ctl.cancel = &cancel;
  const par::ParallelResult stopped =
      setup.run_lts(so.t_end, sources, rxs, lo, ctl);
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_EQ(stopped.steps_completed, 0);
  EXPECT_LT(stopped.steps_completed, stopped.n_steps);
  ASSERT_EQ(stopped.receiver_histories.size(), 1u);
  EXPECT_TRUE(stopped.receiver_histories[0].empty());

  const par::ParallelResult after = setup.run_lts(so.t_end, sources, rxs, lo);
  par::ParallelSetup cold(mesh, part, oo, so);
  const par::ParallelResult want = cold.run_lts(so.t_end, sources, rxs, lo);
  EXPECT_FALSE(after.cancelled);
  EXPECT_TRUE(same_bits(after, want));
}
