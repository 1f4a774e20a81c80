// Northridge-style scenario: an extended strike-slip fault rupturing inside
// a synthetic LA-like basin, with surface velocity snapshots written as PGM
// images (the Fig 2.5 visualization), then rerun in parallel across SPMD
// ranks with checkpoint/restart and cross-checked against the one-rank run.
// Exits 1 unless the parallel receiver history matches the one-rank one to
// within 1e-9 of its peak |value|.
//
//   ./northridge [output_dir] [n_ranks]

#include <cmath>
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
  const int n_ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  const double extent = 20000.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);

  mesh::MeshOptions mopt;
  mopt.domain_size = extent;
  mopt.f_max = 0.25;
  mopt.n_lambda = 8.0;
  mopt.min_level = 3;
  mopt.max_level = 6;
  const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);
  std::printf("mesh: %zu elements, %zu nodes\n", mesh.n_elements(),
              mesh.n_nodes());

  // Extended vertical strike-slip fault through the deeper depression;
  // rupture nucleates at depth and spreads along strike (the directivity
  // visible in the snapshots mirrors the 1994 event's pattern).
  solver::FaultSource::Spec fs;
  fs.y = 0.55 * extent;
  fs.x0 = 0.30 * extent;
  fs.x1 = 0.65 * extent;
  fs.z_top = 1000.0;
  fs.z_bot = 5000.0;
  fs.hypocenter = {0.35 * extent, 4000.0};
  fs.rupture_velocity = 2800.0;
  fs.rise_time = 1.0;
  fs.slip = 1.5;
  const solver::FaultSource source(mesh, fs);
  std::printf("fault: %zu patches\n", source.n_patches());

  solver::OperatorOptions oopt;
  oopt.abc = fem::AbcType::kStacey;
  oopt.rayleigh = true;
  oopt.damping_f_min = 0.02;
  oopt.damping_f_max = 0.25;

  // One-rank run for the snapshots: the snapshot hook does not compose
  // with the checkpointing of the parallel run below, which cross-checks
  // the receiver and reports the per-rank statistics.
  solver::SolverOptions sopt;
  sopt.t_end = 12.0;
  sopt.cfl_fraction = 0.4;
  const par::Partition one_rank = par::partition_sfc(mesh, 1);
  par::ParallelSetup serial(mesh, one_rank, oopt, sopt);
  const int n_steps = serial.n_steps(sopt.t_end);
  const solver::SourceModel* sources[] = {&source};
  const std::array<double, 3> rxs[] = {{0.7 * extent, 0.55 * extent, 0.0}};

  // Raster of surface nodes for imaging.
  const int img = 160;
  std::vector<mesh::NodeId> surface_pixel(static_cast<std::size_t>(img) * img);
  {
    std::vector<double> best(static_cast<std::size_t>(img) * img, 1e30);
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      const auto& c = mesh.node_coords[n];
      if (c[2] > 1.0) continue;  // surface nodes only
      const int ix = std::min(img - 1, static_cast<int>(c[0] / extent * img));
      const int iy = std::min(img - 1, static_cast<int>(c[1] / extent * img));
      const std::size_t p = static_cast<std::size_t>(iy) * img + ix;
      // Keep the node closest to the pixel center.
      const double px = (ix + 0.5) * extent / img, py = (iy + 0.5) * extent / img;
      const double d = std::hypot(c[0] - px, c[1] - py);
      if (d < best[p]) {
        best[p] = d;
        surface_pixel[p] = static_cast<mesh::NodeId>(n);
      }
    }
  }

  int snap_id = 0;
  par::RunControl ctl;
  ctl.snapshot = [&](int, double t, std::span<const double>,
                     std::span<const double> v) {
    std::vector<double> mag(surface_pixel.size());
    for (std::size_t p = 0; p < surface_pixel.size(); ++p) {
      const std::size_t base = 3 * static_cast<std::size_t>(surface_pixel[p]);
      mag[p] = std::sqrt(v[base] * v[base] + v[base + 1] * v[base + 1] +
                         v[base + 2] * v[base + 2]);
    }
    char name[64];
    std::snprintf(name, sizeof name, "/northridge_snap_%02d_t%.1fs.pgm",
                  snap_id++, t);
    util::write_pgm(out_dir + name, mag, img, img, 0.0, 0.4);
  };
  ctl.snapshot_every = std::max(1, n_steps / 8);
  const par::ParallelResult sr = serial.run(sopt.t_end, sources, rxs, {}, ctl);
  std::printf("1 rank: %d steps, %.0f Mflop/s, wrote %d snapshots\n",
              n_steps,
              static_cast<double>(sr.rank_stats[0].flops) /
                  sr.rank_stats[0].compute_seconds * 1e-6,
              snap_id);

  // Parallel cross-check, with checkpoint/restart enabled: each rank writes
  // a CRC-verified snapshot every ~10% of the run, and a failed attempt is
  // retried from the newest snapshot all ranks agree on (see DESIGN.md,
  // "Fault tolerance & checkpointing"). Snapshots are removed on success.
  const par::Partition part = par::partition_sfc(mesh, n_ranks);
  par::FaultToleranceOptions ft;
  ft.checkpoint_dir = out_dir;
  ft.checkpoint_every = std::max(1, n_steps / 10);
  ft.max_retries = 2;
  const par::ParallelResult pr =
      par::run_parallel(mesh, part, oopt, sopt, sources, rxs, ft);
  const auto& one = sr.receiver_histories[0];
  const auto& many = pr.receiver_histories[0];
  double max_err = 0.0, peak = 0.0;
  for (std::size_t k = 0; k < std::min(one.size(), many.size()); ++k) {
    for (std::size_t c = 0; c < 3; ++c) {
      max_err = std::max(max_err, std::abs(many[k][c] - one[k][c]));
      peak = std::max(peak, std::abs(one[k][c]));
    }
  }
  std::printf("parallel (%d ranks): receiver max |1 rank - parallel| = %.2e "
              "(%.1e of the peak %.3g)\n",
              n_ranks, max_err, max_err / peak, peak);
  for (std::size_t r = 0; r < pr.rank_stats.size(); ++r) {
    const auto& s = pr.rank_stats[r];
    std::printf("  rank %zu: %zu elems, %zu nodes, %zu neighbors, "
                "%zu doubles/step sent\n",
                r, s.n_elems, s.n_local_nodes, s.n_neighbors,
                s.doubles_sent_per_step);
  }
  // Rounding-level agreement: the ranks regroup each shared node's sum.
  if (many.size() != one.size() || !(max_err <= 1e-9 * peak)) {
    std::fprintf(stderr, "northridge: parallel run disagrees with 1 rank\n");
    return 1;
  }
  return 0;
}
