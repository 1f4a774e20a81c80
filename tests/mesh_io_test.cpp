// Tests for the element/node database pair (the transform step's output,
// §2.3) and the etree-backed velocity model (the "CVM etree" component).

#include <gtest/gtest.h>

#include <cmath>

#include "quake/mesh/mesh_io.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/vel/etree_model.hpp"
#include "reference_stepper.hpp"

namespace {

using namespace quake;

mesh::HexMesh demo_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(16000.0);
  mesh::MeshOptions opt;
  opt.domain_size = 16000.0;
  opt.f_max = 0.05;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  return mesh::generate_mesh(basin, opt);
}

TEST(MeshIo, RoundTripPreservesEverything) {
  const mesh::HexMesh a = demo_mesh();
  ASSERT_GT(a.n_hanging(), 0u);
  const std::string path = testing::TempDir() + "/meshdb";
  const auto stats = mesh::save_mesh(a, path);
  EXPECT_EQ(stats.element_records, a.n_elements());
  EXPECT_EQ(stats.node_records, a.n_nodes());

  const mesh::HexMesh b = mesh::load_mesh(path);
  ASSERT_EQ(b.n_elements(), a.n_elements());
  ASSERT_EQ(b.n_nodes(), a.n_nodes());
  ASSERT_EQ(b.n_hanging(), a.n_hanging());
  EXPECT_DOUBLE_EQ(b.domain.size, a.domain.size);
  for (std::size_t e = 0; e < a.n_elements(); ++e) {
    EXPECT_EQ(b.elem_nodes[e], a.elem_nodes[e]);
    EXPECT_DOUBLE_EQ(b.elem_size[e], a.elem_size[e]);
    EXPECT_EQ(b.elem_level[e], a.elem_level[e]);
    EXPECT_DOUBLE_EQ(b.elem_mat[e].mu, a.elem_mat[e].mu);
  }
  for (std::size_t n = 0; n < a.n_nodes(); ++n) {
    EXPECT_EQ(b.node_coords[n], a.node_coords[n]);
    EXPECT_EQ(b.node_hanging[n], a.node_hanging[n]);
  }
  ASSERT_EQ(b.constraints.size(), a.constraints.size());
  for (std::size_t c = 0; c < a.constraints.size(); ++c) {
    EXPECT_EQ(b.constraints[c].node, a.constraints[c].node);
    EXPECT_EQ(b.constraints[c].n_masters, a.constraints[c].n_masters);
    for (int m = 0; m < a.constraints[c].n_masters; ++m) {
      EXPECT_EQ(b.constraints[c].masters[static_cast<std::size_t>(m)],
                a.constraints[c].masters[static_cast<std::size_t>(m)]);
      EXPECT_DOUBLE_EQ(b.constraints[c].weights[static_cast<std::size_t>(m)],
                       a.constraints[c].weights[static_cast<std::size_t>(m)]);
    }
  }
  EXPECT_EQ(b.boundary_faces.size(), a.boundary_faces.size());
}

TEST(MeshIo, LoadedMeshRunsIdentically) {
  const mesh::HexMesh a = demo_mesh();
  const std::string path = testing::TempDir() + "/meshdb_run";
  mesh::save_mesh(a, path);
  const mesh::HexMesh b = mesh::load_mesh(path);

  auto run = [](const mesh::HexMesh& mesh) {
    solver::SolverOptions so;
    so.t_end = 2.0;
    so.cfl_fraction = 0.4;
    const solver::PointSource src(mesh, {8000.0, 8000.0, 3000.0},
                                  {1.0, 0.0, 0.0}, 1e13, 0.05, 10.0);
    const solver::SourceModel* sources[] = {&src};
    const std::array<double, 3> rxs[] = {{5000.0, 8000.0, 0.0}};
    return testsupport::component(
        testsupport::run_one_rank(mesh, {}, so, sources, rxs)
            .receiver_histories[0],
        0);
  };
  const auto ra = run(a);
  const auto rb = run(b);
  EXPECT_LT(util::diff_l2(ra, rb), 1e-14 * (1.0 + util::norm_l2(ra)));
}

TEST(MeshIo, LoadMissingThrows) {
  EXPECT_THROW(mesh::load_mesh(testing::TempDir() + "/does_not_exist"),
               std::runtime_error);
}

TEST(EtreeModel, MatchesSourceModelAtSamplingResolution) {
  const vel::BasinModel basin = vel::BasinModel::demo(8000.0);
  vel::EtreeModelOptions opt;
  opt.domain_size = 8000.0;
  opt.level = 4;
  const std::string path = testing::TempDir() + "/cvm.etree";
  const std::size_t n = vel::build_etree_model(basin, opt, path);
  EXPECT_EQ(n, 4096u);  // 8^4

  const vel::EtreeVelocityModel db(path, opt);
  // At octant centers the database reproduces the source model exactly.
  const double h = 8000.0 / 16.0;
  for (double x : {0.5 * h, 7.5 * h, 13.5 * h}) {
    for (double z : {0.5 * h, 3.5 * h, 11.5 * h}) {
      const auto a = basin.at(x, 4000.0 + 0.5 * h - 4000.0 + 3.5 * h, z);
      (void)a;
      const double qx = x, qy = 3.5 * h, qz = z;
      const auto exact = basin.at((std::floor(qx / h) + 0.5) * h,
                                  (std::floor(qy / h) + 0.5) * h,
                                  (std::floor(qz / h) + 0.5) * h);
      const auto got = db.at(qx, qy, qz);
      EXPECT_NEAR(got.mu, exact.mu, 1e-6 * exact.mu);
      EXPECT_NEAR(got.rho, exact.rho, 1e-9 * exact.rho);
    }
  }
  // min_vs is the floor over the octant-center samples: positive, and no
  // larger than rock velocity (the piecewise-constant sampling cannot see
  // shallower than the first center plane, so it exceeds the analytic
  // surface minimum).
  EXPECT_GT(db.min_vs(), 0.0);
  EXPECT_LT(db.min_vs(), 3200.0);
  EXPECT_GE(db.min_vs(), basin.min_vs());
}

TEST(EtreeModel, MeshableLikeTheSourceModel) {
  // Meshing through the database yields a mesh of the same scale as meshing
  // the analytic model (piecewise-constant sampling shifts a few elements).
  const vel::BasinModel basin = vel::BasinModel::demo(8000.0);
  vel::EtreeModelOptions eopt;
  eopt.domain_size = 8000.0;
  eopt.level = 5;
  const std::string path = testing::TempDir() + "/cvm_mesh.etree";
  vel::build_etree_model(basin, eopt, path);
  const vel::EtreeVelocityModel db(path, eopt);

  // Pick the target frequency from the DATABASE's velocity floor so the
  // wavelength rule actually drives refinement inside the basin.
  mesh::MeshOptions mopt;
  mopt.domain_size = 8000.0;
  mopt.f_max = db.min_vs() / (8.0 * 200.0);  // finest h ~ 200 m
  mopt.n_lambda = 8.0;
  mopt.min_level = 2;
  mopt.max_level = 5;
  const auto m_db = mesh::generate_mesh(db, mopt);
  // Wavelength adaptivity engaged: multiple levels present.
  const auto stats = mesh::compute_stats(m_db, db, mopt);
  EXPECT_GT(stats.max_level, stats.min_level);
  EXPECT_GT(m_db.n_elements(), 500u);
  // The database was actually exercised.
  EXPECT_GT(db.stats().cache_hits + db.stats().page_reads, 1000u);
}

TEST(EtreeModel, MissingQueryThrows) {
  const vel::HomogeneousModel homo(
      vel::Material::from_velocities(2000.0, 1000.0, 2000.0));
  vel::EtreeModelOptions opt;
  opt.domain_size = 1000.0;
  opt.level = 2;
  const std::string path = testing::TempDir() + "/tiny.etree";
  vel::build_etree_model(homo, opt, path);
  vel::EtreeModelOptions wrong = opt;
  wrong.level = 3;  // querying at the wrong level misses every record
  const vel::EtreeVelocityModel db(path, wrong);
  EXPECT_THROW((void)db.at(500.0, 500.0, 500.0), std::runtime_error);
}

}  // namespace
