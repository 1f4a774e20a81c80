// Quickstart: mesh a small heterogeneous basin, run a point-source
// simulation, and write surface seismograms to CSV.
//
//   ./quickstart [output_dir]
//
// This walks the full forward pipeline of the library in ~50 lines of user
// code: velocity model -> wavelength-adaptive octree mesh -> matrix-free
// elastic operator -> explicit solver (the SPMD step loop, here at one
// rank) -> receivers.

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/io.hpp"

int main(int argc, char** argv) {
  using namespace quake;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // A 10 km synthetic basin: soft sediments over rock.
  const double extent = 10000.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);

  mesh::MeshOptions mopt;
  mopt.domain_size = extent;
  mopt.f_max = 0.4;       // resolve up to 0.4 Hz
  mopt.n_lambda = 8.0;    // grid points per shortest wavelength
  mopt.min_level = 3;
  mopt.max_level = 6;
  const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);
  const mesh::MeshStats stats = mesh::compute_stats(mesh, model, mopt);
  std::printf("mesh: %zu elements, %zu nodes (%zu hanging), levels %d..%d\n",
              stats.n_elements, stats.n_nodes, stats.n_hanging,
              stats.min_level, stats.max_level);
  std::printf("uniform grid at the finest wavelength would need %.2e points "
              "(%.0fx more)\n",
              stats.uniform_equivalent_points,
              stats.uniform_equivalent_points /
                  static_cast<double>(stats.n_nodes));

  // Matrix-free elastodynamic operator with Stacey absorbing boundaries,
  // stepped by the explicit solver on one rank (partition_sfc(mesh, R)
  // spreads the same run over R ranks).
  solver::OperatorOptions oopt;
  oopt.abc = fem::AbcType::kStacey;
  solver::SolverOptions sopt;
  sopt.t_end = 6.0;
  sopt.cfl_fraction = 0.4;
  const par::Partition part = par::partition_sfc(mesh, 1);

  // A buried Ricker point source and a line of surface receivers.
  const solver::PointSource source(mesh, {0.5 * extent, 0.5 * extent, 2500.0},
                                   {1.0, 0.0, 0.0}, /*amplitude=*/1e15,
                                   /*fp=*/0.25, /*tc=*/2.0);
  const solver::SourceModel* sources[] = {&source};
  std::vector<std::array<double, 3>> receivers;
  for (int i = 1; i <= 4; ++i) {
    receivers.push_back({i * extent / 5.0, 0.5 * extent, 0.0});
  }

  const par::ParallelResult pr =
      par::run_parallel(mesh, part, oopt, sopt, sources, receivers);
  const auto& st = pr.rank_stats[0];
  std::printf("ran %d steps, dt = %.4f s, sustained %.0f Mflop/s\n",
              pr.n_steps, pr.dt,
              static_cast<double>(st.flops) / st.compute_seconds * 1e-6);

  // Write the x-component seismograms.
  std::vector<std::string> names = {"t"};
  std::vector<std::vector<double>> cols(1);
  for (int k = 0; k < pr.n_steps; ++k) cols[0].push_back((k + 1) * pr.dt);
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    names.push_back("ux_rx" + std::to_string(r));
    cols.emplace_back();
    for (const auto& s : pr.receiver_histories[r]) cols.back().push_back(s[0]);
  }
  const std::string path = out_dir + "/quickstart_seismograms.csv";
  util::write_csv(path, names, cols);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
