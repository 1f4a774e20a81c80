// Cross-module integration tests: the full forward pipeline (model -> mesh
// -> operator -> the step loop at one rank), multiresolution accuracy,
// attenuation behavior, and out-of-core meshing feeding the solver.

#include <gtest/gtest.h>

#include <cmath>

#include "quake/mesh/meshgen.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "reference_stepper.hpp"

namespace {

using namespace quake;
using testsupport::component;
using testsupport::run_one_rank;

// A small two-layer model with moderate contrast: the adaptive mesher puts
// fine elements in the soft layer and coarse ones below.
vel::LayeredModel two_layer() {
  return vel::LayeredModel(
      {{400.0, vel::Material::from_velocities(1200.0, 600.0, 2000.0)},
       {0.0, vel::Material::from_velocities(3460.0, 2000.0, 2400.0)}});
}

std::vector<double> run_scenario(const mesh::HexMesh& mesh, double t_end,
                                 double dt) {
  solver::SolverOptions so;
  so.t_end = t_end;
  so.dt = dt;
  const double L = mesh.domain.size;
  // Source inside the soft layer, where both meshes are equally fine; the
  // rock (coarse in the adaptive mesh) only carries the fast long waves.
  const solver::PointSource src(mesh, {0.5 * L, 0.5 * L, 200.0},
                                {1.0, 0.0, 0.5}, 1e13, 1.2, 1.2);
  const solver::SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{0.3 * L, 0.5 * L, 0.0}};
  return component(
      run_one_rank(mesh, {}, so, sources, rxs).receiver_histories[0], 0);
}

TEST(Pipeline, AdaptiveMeshMatchesUniformFineMesh) {
  // The multiresolution mesh must reproduce the uniform-fine-mesh solution:
  // the whole point of wavelength-adaptive octrees (§2).
  const auto model = two_layer();
  const double L = 3200.0;

  mesh::MeshOptions fine;
  fine.domain_size = L;
  fine.f_max = 1e-9;
  fine.min_level = 5;
  fine.max_level = 5;  // uniform h = 100 m
  const auto mesh_fine = mesh::generate_mesh(model, fine);

  mesh::MeshOptions adapt;
  adapt.domain_size = L;
  adapt.f_max = 0.75;  // resolves the soft layer at h=100, rock coarser
  adapt.n_lambda = 8.0;
  adapt.min_level = 3;
  adapt.max_level = 5;
  const auto mesh_adapt = mesh::generate_mesh(model, adapt);

  ASSERT_LT(mesh_adapt.n_elements(), mesh_fine.n_elements() / 2);
  ASSERT_GT(mesh_adapt.n_hanging(), 0u);

  const double dt = 0.008;
  const auto rec_fine = run_scenario(mesh_fine, 3.0, dt);
  const auto rec_adapt = run_scenario(mesh_adapt, 3.0, dt);
  ASSERT_EQ(rec_fine.size(), rec_adapt.size());
  EXPECT_GT(util::norm_max(rec_fine), 0.0);
  EXPECT_GT(util::correlation(rec_fine, rec_adapt), 0.97);
  EXPECT_LT(util::rel_l2(rec_adapt, rec_fine), 0.25);
}

TEST(Pipeline, OutOfCoreMeshRunsIdentically) {
  const auto model = two_layer();
  mesh::MeshOptions opt;
  opt.domain_size = 3200.0;
  opt.f_max = 0.5;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 4;
  const auto m1 = mesh::generate_mesh(model, opt);
  const auto m2 = mesh::generate_mesh_out_of_core(
      model, opt, testing::TempDir() + "/integration.etree");
  const auto r1 = run_scenario(m1, 1.5, 0.01);
  const auto r2 = run_scenario(m2, 1.5, 0.01);
  ASSERT_EQ(r1.size(), r2.size());
  EXPECT_LT(util::diff_l2(r1, r2), 1e-12 * (1.0 + util::norm_l2(r1)));
}

TEST(Pipeline, RayleighDampingAttenuates) {
  const auto model = two_layer();
  mesh::MeshOptions opt;
  opt.domain_size = 3200.0;
  opt.f_max = 0.6;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 5;
  const auto mesh = mesh::generate_mesh(model, opt);

  auto run = [&](bool damped) {
    solver::OperatorOptions oo;
    oo.rayleigh = damped;
    oo.damping_f_min = 0.1;
    oo.damping_f_max = 1.0;
    solver::SolverOptions so;
    so.t_end = 3.0;
    so.dt = 0.008;
    const solver::PointSource src(mesh, {1600.0, 1600.0, 1800.0},
                                  {1.0, 0.0, 0.0}, 1e13, 1.0, 1.2);
    const solver::SourceModel* sources[] = {&src};
    const std::array<double, 3> rxs[] = {{800.0, 1600.0, 0.0}};
    return util::norm_max(component(
        run_one_rank(mesh, oo, so, sources, rxs).receiver_histories[0], 0));
  };
  const double peak_undamped = run(false);
  const double peak_damped = run(true);
  EXPECT_GT(peak_undamped, 0.0);
  EXPECT_LT(peak_damped, peak_undamped);
  EXPECT_GT(peak_damped, 0.3 * peak_undamped);  // a few % damping, not a wall
}

TEST(Pipeline, FaultRuptureProducesDirectivity) {
  // Unilateral rupture focuses motion ahead of the rupture front (Fig 2.5).
  const vel::BasinModel basin = vel::BasinModel::demo(12800.0);
  mesh::MeshOptions opt;
  opt.domain_size = 12800.0;
  opt.f_max = 0.15;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 5;
  const auto mesh = mesh::generate_mesh(basin, opt);

  solver::FaultSource::Spec fs;
  fs.y = 6400.0;
  fs.x0 = 3500.0;
  fs.x1 = 7500.0;
  fs.z_top = 1000.0;
  fs.z_bot = 4000.0;
  fs.hypocenter = {3700.0, 3000.0};  // -x end: rupture runs toward +x
  fs.rupture_velocity = 2800.0;
  fs.rise_time = 1.5;
  fs.slip = 1.0;
  const solver::FaultSource src(mesh, fs);

  solver::SolverOptions so;
  so.t_end = 8.0;
  so.cfl_fraction = 0.4;
  const solver::SourceModel* sources[] = {&src};
  // Forward of the rupture, then behind it.
  const std::array<double, 3> rxs[] = {{9500.0, 6400.0, 0.0},
                                       {1700.0, 6400.0, 0.0}};
  const par::ParallelResult pr = run_one_rank(mesh, {}, so, sources, rxs);
  const double peak_fwd =
      util::norm_max(component(pr.receiver_histories[0], 0));
  const double peak_bwd =
      util::norm_max(component(pr.receiver_histories[1], 0));
  EXPECT_GT(peak_fwd, 1.3 * peak_bwd);
}

TEST(Pipeline, StaceyAndLysmerAgreeInInterior) {
  // The two ABC variants differ only in boundary terms; interior records of
  // the early wavefield must be close.
  const auto model = two_layer();
  mesh::MeshOptions opt;
  opt.domain_size = 3200.0;
  opt.f_max = 0.5;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 5;
  const auto mesh = mesh::generate_mesh(model, opt);

  auto run = [&](fem::AbcType abc) {
    solver::OperatorOptions oo;
    oo.abc = abc;
    solver::SolverOptions so;
    so.t_end = 2.5;
    so.dt = 0.008;
    const solver::PointSource src(mesh, {1600.0, 1600.0, 1500.0},
                                  {0.7, 0.7, 0.0}, 1e13, 1.0, 1.0);
    const solver::SourceModel* sources[] = {&src};
    const std::array<double, 3> rxs[] = {{1400.0, 1700.0, 0.0}};
    return component(
        run_one_rank(mesh, oo, so, sources, rxs).receiver_histories[0], 0);
  };
  const auto a = run(fem::AbcType::kStacey);
  const auto b = run(fem::AbcType::kLysmer);
  EXPECT_GT(util::correlation(a, b), 0.99);
}

}  // namespace
