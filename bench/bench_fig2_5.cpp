// Fig 2.5 — snapshots of propagating waves from the Northridge-style
// simulation: surface velocity magnitude at a series of times (the step
// loop's snapshot hook, at one rank), plus the rupture-directivity
// statistic the paper's caption calls out ("notice the directivity of the
// ground motion along strike from the epicenter").

#include <cmath>
#include <cstdio>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/source.hpp"
#include "quake/solver/surface.hpp"
#include "quake/util/io.hpp"

int main() {
  using namespace quake;
  const double extent = 25600.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);

  mesh::MeshOptions mopt;
  mopt.domain_size = extent;
  mopt.f_max = 0.2;
  mopt.n_lambda = 8.0;
  mopt.min_level = 3;
  mopt.max_level = 6;
  const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);
  std::printf("Fig 2.5 analogue: Northridge-style rupture, %zu elements\n",
              mesh.n_elements());

  // Unilateral rupture: hypocenter at the -x end of the fault so directivity
  // focuses toward +x.
  solver::FaultSource::Spec fs;
  fs.y = 0.50 * extent;
  fs.x0 = 0.30 * extent;
  fs.x1 = 0.62 * extent;
  fs.z_top = 1500.0;
  fs.z_bot = 6000.0;
  fs.hypocenter = {0.32 * extent, 5000.0};
  fs.rupture_velocity = 2800.0;
  fs.rise_time = 1.2;
  fs.slip = 2.0;
  const solver::FaultSource source(mesh, fs);

  solver::OperatorOptions oopt;
  oopt.rayleigh = true;
  oopt.damping_f_min = 0.02;
  oopt.damping_f_max = 0.2;
  solver::SolverOptions sopt;
  sopt.t_end = 16.0;
  sopt.cfl_fraction = 0.4;
  const par::Partition one_rank = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, one_rank, oopt, sopt);
  const solver::SourceModel* sources[] = {&source};

  // Surface raster and along/back-strike peak-velocity tracking.
  const int img = 160;
  solver::SurfaceRaster raster(mesh, img);
  int snap = 0;
  par::RunControl ctl;
  ctl.snapshot = [&](int, double t, std::span<const double>,
                     std::span<const double> v) {
    const auto mag = raster.velocity_magnitude(v);
    raster.update_peak(mag);
    char name[64];
    std::snprintf(name, sizeof name, "/tmp/fig2_5_snap_%02d_t%04.1fs.pgm",
                  snap++, t);
    raster.write_pgm(name, mag, 0.0, 0.5);
    std::printf("  t = %5.1f s: wrote %s\n", t, name);
  };
  ctl.snapshot_every = std::max(1, setup.n_steps(sopt.t_end) / 8);
  setup.run(sopt.t_end, sources, {}, {}, ctl);
  raster.write_pgm("/tmp/fig2_5_peak_velocity.pgm", raster.peak(), 0.0, 1.0);

  // Directivity: peak surface velocity ahead of the rupture (along +x of
  // the hypocenter, past the fault end) vs behind it.
  const auto peak = raster.peak();
  auto region_peak = [&](double x0, double x1) {
    double m = 0.0;
    for (int iy = 0; iy < img; ++iy) {
      for (int ix = 0; ix < img; ++ix) {
        const double x = (ix + 0.5) * extent / img;
        const double y = (iy + 0.5) * extent / img;
        if (x >= x0 && x < x1 && std::abs(y - fs.y) < 0.2 * extent) {
          m = std::max(m, peak[static_cast<std::size_t>(iy) * img + ix]);
        }
      }
    }
    return m;
  };
  const double fwd = region_peak(fs.x1, fs.x1 + 0.25 * extent);
  const double bwd = region_peak(fs.x0 - 0.25 * extent, fs.x0);
  std::printf("directivity: peak velocity forward of rupture %.3f m/s vs "
              "backward %.3f m/s (ratio %.2f; paper: motion concentrates "
              "along strike from the epicenter)\n",
              fwd, bwd, fwd / std::max(bwd, 1e-12));
  return 0;
}
