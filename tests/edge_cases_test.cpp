// Argument-validation and edge-case coverage across the public API: bad
// options must throw rather than corrupt state, degenerate inputs must be
// handled, and documented preconditions are enforced.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/octree/linear_octree.hpp"
#include "quake/opt/frankel.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave2d/march.hpp"
#include "quake/wave2d/sh_model.hpp"
#include "quake/wave3d/scalar_model.hpp"

namespace {

using namespace quake;

TEST(EdgeCases, BuildOctreeRejectsBadLevels) {
  EXPECT_THROW(octree::build_octree([](const octree::Octant&) { return false; },
                                    -1),
               std::invalid_argument);
  EXPECT_THROW(octree::build_octree([](const octree::Octant&) { return false; },
                                    octree::kMaxLevel + 1),
               std::invalid_argument);
}

TEST(EdgeCases, EmptyRefinementGivesRootOnly) {
  const auto t =
      octree::build_octree([](const octree::Octant&) { return false; }, 5);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], octree::Octant{});
  EXPECT_TRUE(t.validate(true));
  EXPECT_TRUE(octree::is_balanced(t, octree::BalanceScope::kAll));
}

TEST(EdgeCases, MeshOptionsValidation) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions bad;
  bad.domain_size = 0.0;
  EXPECT_THROW(mesh::generate_mesh(m, bad), std::invalid_argument);
}

mesh::HexMesh tiny_mesh() {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  return mesh::generate_mesh(m, opt);
}

TEST(EdgeCases, SolverRejectsBadTimeSetup) {
  const auto mesh = tiny_mesh();
  const par::Partition part = par::partition_sfc(mesh, 1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // A time step that is not positive and finite: a non-positive or NaN
  // CFL fraction (dt chosen from the CFL bound) or an infinite dt.
  for (const double cfl : {0.0, -0.4, nan}) {
    solver::SolverOptions so;
    so.cfl_fraction = cfl;
    EXPECT_THROW(par::ParallelSetup(mesh, part, {}, so), std::invalid_argument)
        << "cfl_fraction " << cfl;
  }
  solver::SolverOptions inf_dt;
  inf_dt.dt = inf;
  EXPECT_THROW(par::ParallelSetup(mesh, part, {}, inf_dt),
               std::invalid_argument);

  // A duration that is not positive and finite, or needs > INT_MAX steps:
  // every entry point rejects it, with and without receivers.
  par::ParallelSetup setup(mesh, part, {}, {});
  const std::array<double, 3> rx[] = {{50.0, 50.0, 0.0}};
  lts::LtsOptions lts_on;
  lts_on.enabled = true;
  for (const double t_end : {-1.0, 0.0, nan, inf, 1e300}) {
    SCOPED_TRACE("t_end " + std::to_string(t_end));
    EXPECT_THROW(static_cast<void>(setup.n_steps(t_end)),
                 std::invalid_argument);
    for (const std::size_t n_rx : {0u, 1u}) {
      const std::span<const std::array<double, 3>> rxs(rx, n_rx);
      EXPECT_THROW(setup.run(t_end, {}, rxs), std::invalid_argument);
      EXPECT_THROW(setup.run_lts(t_end, {}, rxs, {}), std::invalid_argument);
      EXPECT_THROW(setup.run_lts(t_end, {}, rxs, lts_on),
                   std::invalid_argument);
      const par::BatchScenario one{{}, {rxs.begin(), rxs.end()}};
      EXPECT_THROW(setup.solve(t_end, {&one, 1}), std::invalid_argument);
    }
  }
  // The setup stays usable after the rejections.
  EXPECT_EQ(setup.run(0.01, {}, rx).receiver_histories[0].size(),
            static_cast<std::size_t>(setup.n_steps(0.01)));
}

TEST(EdgeCases, PointSourceRejectsZeroDirection) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  EXPECT_THROW(solver::PointSource(mesh, {50, 50, 50}, {0, 0, 0}, 1.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(EdgeCases, FaultSourceRejectsDegeneratePlane) {
  const vel::HomogeneousModel m(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  mesh::MeshOptions opt;
  opt.domain_size = 100.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 1;
  const auto mesh = mesh::generate_mesh(m, opt);
  solver::FaultSource::Spec fs;
  fs.x0 = 60.0;
  fs.x1 = 40.0;  // inverted extent
  EXPECT_THROW(solver::FaultSource(mesh, fs), std::invalid_argument);
}

TEST(EdgeCases, Sh1dRejectsBadLayer) {
  solver::ShLayerParams p{0.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(
      solver::sh_layer_surface_response(p, [](double) { return 0.0; }, 10, 0.1),
      std::invalid_argument);
}

TEST(EdgeCases, ShModelValidation) {
  wave2d::ShGrid g{4, 4, 10.0};
  EXPECT_THROW(
      wave2d::ShModel(g, std::vector<double>(3, 1e9), 1000.0),  // wrong size
      std::invalid_argument);
  EXPECT_THROW(wave2d::ShModel(
                   g, std::vector<double>(static_cast<std::size_t>(g.n_elems()),
                                          -1.0),
                   1000.0),
               std::invalid_argument);
  EXPECT_THROW(wave2d::ShModel(
                   g, std::vector<double>(static_cast<std::size_t>(g.n_elems()),
                                          1e9),
                   0.0),
               std::invalid_argument);
}

TEST(EdgeCases, MarchValidation) {
  wave2d::ShGrid g{4, 4, 10.0};
  const wave2d::ShModel m(
      g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), 1e9),
      1000.0);
  EXPECT_THROW(wave2d::time_march(m, {0.0, 10},
                                  [](int, double, std::span<double>) {}, {},
                                  false),
               std::invalid_argument);
  EXPECT_THROW(wave2d::time_march(m, {0.01, 0},
                                  [](int, double, std::span<double>) {}, {},
                                  false),
               std::invalid_argument);
}

TEST(EdgeCases, Grid3dValidation) {
  wave3d::ScalarGrid3d bad{0, 4, 4, 10.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  wave3d::ScalarGrid3d g{2, 2, 2, 10.0};
  EXPECT_THROW(wave3d::ScalarModel3d(g, std::vector<double>(7, 1e9), 1000.0),
               std::invalid_argument);
}

TEST(EdgeCases, FrankelHandlesZeroOperator) {
  // A zero operator has lambda_max = 0; the sweep must bail out cleanly.
  opt::LinOp zero = [](std::span<const double>, std::span<double>) {};
  std::vector<double> b(4, 1.0), x(4, 0.0);
  opt::FrankelOptions fo;
  fo.sweeps = 3;
  opt::frankel_two_step(zero, b, x, fo, nullptr);
  EXPECT_DOUBLE_EQ(util::norm_l2(x), 0.0);
}

TEST(EdgeCases, HexApplyFlopsAccounting) {
  EXPECT_GT(fem::hex_apply_flops(true), fem::hex_apply_flops(false));
  EXPECT_GT(fem::hex_apply_flops(false), 1000u);
}

TEST(EdgeCases, InitialConditionSizeChecked) {
  const auto mesh = tiny_mesh();
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, {}, {});
  const std::vector<double> wrong(5, 0.0), right(3 * mesh.n_nodes(), 0.0);
  for (const auto& [u0, v0] : {std::pair{wrong, right}, std::pair{right, wrong},
                               std::pair{wrong, std::vector<double>{}}}) {
    par::RunControl ctl;
    ctl.initial_u = u0;
    ctl.initial_v = v0;
    EXPECT_THROW(setup.run(0.01, {}, {}, {}, ctl), std::invalid_argument);
  }
  // Initial conditions belong to one scenario, not a batch.
  par::RunControl ctl;
  ctl.initial_u = right;
  const std::vector<par::BatchScenario> two(2);
  EXPECT_THROW(setup.solve(0.01, two, {}, {}, ctl), std::invalid_argument);
  EXPECT_NO_THROW(setup.run(0.01, {}, {}, {}, ctl));
}

}  // namespace
