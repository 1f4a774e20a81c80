// The full production workflow of the paper, end to end on disk:
//
//   1. sample the ground model into a material database (the "CVM etree");
//   2. mesh it out of core (construct -> balance -> transform);
//   3. persist the element/node databases (the transform step's output);
//   4. reload the mesh — as a separate solver run would — and simulate a
//      rupture scenario in parallel, recording seismograms and surface
//      snapshots in the same run.
//
// Every stage hands off through files, as in the paper's "mesh once,
// simulate many earthquakes" workflow.
//
//   ./pipeline [work_dir] [n_ranks]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "quake/mesh/mesh_io.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/source.hpp"
#include "quake/solver/surface.hpp"
#include "quake/util/io.hpp"
#include "quake/util/timer.hpp"
#include "quake/vel/etree_model.hpp"

int main(int argc, char** argv) {
  using namespace quake;
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const int n_ranks = argc > 2 ? std::atoi(argv[2]) : 4;
  const double extent = 16000.0;
  util::Timer timer;

  // -- 1. material database ---------------------------------------------
  const vel::BasinModel basin = vel::BasinModel::demo(extent);
  vel::EtreeModelOptions eopt;
  eopt.domain_size = extent;
  eopt.level = 6;
  const std::string cvm_path = dir + "/pipeline_cvm.etree";
  const std::size_t cvm_records = vel::build_etree_model(basin, eopt, cvm_path);
  std::printf("[1] material database: %zu octants at level %d (%.2f s)\n",
              cvm_records, eopt.level, timer.seconds());

  // -- 2. out-of-core meshing through the database ------------------------
  timer.reset();
  const vel::EtreeVelocityModel cvm(cvm_path, eopt);
  mesh::MeshOptions mopt;
  mopt.domain_size = extent;
  // Target the frequency the database's velocity floor supports.
  mopt.f_max = cvm.min_vs() / (8.0 * (extent / (1 << 6)));
  mopt.n_lambda = 8.0;
  mopt.min_level = 3;
  mopt.max_level = 6;
  const mesh::HexMesh meshed = mesh::generate_mesh_out_of_core(
      cvm, mopt, dir + "/pipeline_mesh.etree");
  std::printf("[2] meshed to %.2f Hz: %zu elements, %zu nodes, %zu hanging "
              "(%.2f s); CVM stats: %llu reads, %llu hits\n",
              mopt.f_max, meshed.n_elements(), meshed.n_nodes(),
              meshed.n_hanging(), timer.seconds(),
              static_cast<unsigned long long>(cvm.stats().page_reads),
              static_cast<unsigned long long>(cvm.stats().cache_hits));

  // -- 3. element/node databases -----------------------------------------
  timer.reset();
  const std::string mesh_db = dir + "/pipeline_meshdb";
  const auto db_stats = mesh::save_mesh(meshed, mesh_db);
  std::printf("[3] mesh databases: %zu element + %zu node records (%.2f s)\n",
              db_stats.element_records, db_stats.node_records,
              timer.seconds());

  // -- 4. reload and simulate ------------------------------------------
  timer.reset();
  const mesh::HexMesh mesh = mesh::load_mesh(mesh_db);
  std::printf("[4] reloaded mesh: %zu elements (%.2f s)\n", mesh.n_elements(),
              timer.seconds());

  solver::FaultSource::Spec fs;
  fs.y = 0.55 * extent;
  fs.x0 = 0.32 * extent;
  fs.x1 = 0.62 * extent;
  fs.z_top = 1000.0;
  fs.z_bot = 4000.0;
  fs.hypocenter = {0.35 * extent, 3200.0};
  fs.rupture_velocity = 2800.0;
  fs.rise_time = 1.2;
  fs.slip = 1.5;
  const solver::FaultSource source(mesh, fs);

  solver::OperatorOptions oopt;
  oopt.rayleigh = true;
  oopt.damping_f_min = 0.02;
  oopt.damping_f_max = std::max(0.1, mopt.f_max);
  solver::SolverOptions sopt;
  sopt.t_end = 10.0;
  sopt.cfl_fraction = 0.4;

  // One parallel run records the seismograms and, through the snapshot
  // hook, the surface velocity images.
  timer.reset();
  const par::Partition part = par::partition_sfc(mesh, n_ranks);
  par::ParallelSetup setup(mesh, part, oopt, sopt);
  const solver::SourceModel* sources[] = {&source};
  const std::array<double, 3> rxs[] = {{0.70 * extent, 0.55 * extent, 0.0},
                                       {0.45 * extent, 0.40 * extent, 0.0}};
  solver::SurfaceRaster raster(mesh, 128);
  int snap = 0;
  par::RunControl ctl;
  ctl.snapshot = [&](int, double t, std::span<const double>,
                     std::span<const double> v) {
    const auto mag = raster.velocity_magnitude(v);
    raster.update_peak(mag);
    char name[64];
    std::snprintf(name, sizeof name, "/pipeline_snap_%02d_t%04.1f.pgm",
                  snap++, t);
    raster.write_pgm(dir + name, mag, 0.0, 0.5);
  };
  ctl.snapshot_every = std::max(1, setup.n_steps(sopt.t_end) / 6);
  const par::ParallelResult pr =
      setup.run(sopt.t_end, sources, rxs, {}, ctl);
  std::printf("[5] %d-rank simulation: %d steps, dt %.4f s (%.2f s wall)\n",
              n_ranks, pr.n_steps, pr.dt, timer.seconds());
  raster.write_pgm(dir + "/pipeline_peak_velocity.pgm", raster.peak(), 0.0,
                   1.0);
  std::printf("[6] wrote %d snapshots + peak-velocity map to %s\n", snap,
              dir.c_str());

  // Seismogram CSV.
  std::vector<std::string> names = {"t", "rx0_ux", "rx1_ux"};
  std::vector<std::vector<double>> cols(3);
  for (int k = 0; k < pr.n_steps; ++k) {
    cols[0].push_back((k + 1) * pr.dt);
    cols[1].push_back(pr.receiver_histories[0][static_cast<std::size_t>(k)][0]);
    cols[2].push_back(pr.receiver_histories[1][static_cast<std::size_t>(k)][0]);
  }
  util::write_csv(dir + "/pipeline_seismograms.csv", names, cols);
  std::printf("[7] wrote %s/pipeline_seismograms.csv\n", dir.c_str());
  return 0;
}
