// Fig 2.2 — verification of the hexahedral forward solver against a
// closed-form solution: vertically incident SH pulse into a soft layer over
// a stiff halfspace. The paper's visualization shows wave propagation in a
// layer-over-halfspace due to an idealized source and reports excellent
// agreement between the finite element simulation and the Green's function
// solution; here the 3D hex code (the step loop at one rank) runs the
// problem as a 1D column (component mask + layered model, see tests) and
// the surface seismogram is compared against the exact ray-series response.

#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/util/io.hpp"
#include "quake/util/stats.hpp"

int main() {
  using namespace quake;
  const double L = 1600.0;       // domain depth [m]
  const double H = 300.0;        // layer thickness
  // Moderate contrast: the transmitted wavelength shrinks by vs1/vs2, so
  // the layer must stay resolvable on the coarsest ladder level.
  const double vs1 = 800.0, rho1 = 2000.0;   // soft layer
  const double vs2 = 1600.0, rho2 = 2400.0;  // halfspace
  const vel::LayeredModel model(
      {{H, vel::Material::from_velocities(1.9 * vs1, vs1, rho1)},
       {0.0, vel::Material::from_velocities(1.732 * vs2, vs2, rho2)}});

  std::printf("Fig 2.2 analogue: layer over halfspace vs closed form\n");
  std::printf("layer: vs=%.0f m/s H=%.0f m; halfspace vs=%.0f m/s; "
              "impedance contrast %.1f\n",
              vs1, H, vs2, (rho2 * vs2) / (rho1 * vs1));

  std::printf("%8s %10s %12s %12s\n", "level", "h (m)", "rel L2 err",
              "correlation");
  double prev_err = -1.0;
  for (int level : {4, 5, 6}) {
    mesh::MeshOptions mopt;
    mopt.domain_size = L;
    mopt.f_max = 1e-9;
    mopt.min_level = level;
    mopt.max_level = level;
    const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);

    solver::OperatorOptions oopt;
    oopt.abc = fem::AbcType::kLysmer;
    oopt.absorbing_sides = {false, false, false, false, false, true};
    solver::SolverOptions sopt;
    sopt.t_end = 2.5;
    sopt.cfl_fraction = 0.35;
    sopt.fixed_components = {true, false, true};

    // Upgoing displacement pulse in the halfspace.
    const double zc = 900.0, sigma = 250.0;
    auto pulse = [&](double z) {
      return std::exp(-std::pow((z - zc) / sigma, 2));
    };
    std::vector<double> u0(3 * mesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      const double z = mesh.node_coords[n][2];
      u0[3 * n + 1] = pulse(z);
      v0[3 * n + 1] = vs2 * (-2.0 * (z - zc) / (sigma * sigma)) * pulse(z);
    }
    par::RunControl ctl;
    ctl.initial_u = u0;
    ctl.initial_v = v0;
    const std::array<double, 3> rx[] = {{L / 2, L / 2, 0.0}};
    const par::Partition one_rank = par::partition_sfc(mesh, 1);
    par::ParallelSetup setup(mesh, one_rank, oopt, sopt);
    const par::ParallelResult pr = setup.run(sopt.t_end, {}, rx, {}, ctl);

    // Closed form: incident history at the interface depth H.
    std::vector<double> rec;
    for (const auto& s : pr.receiver_histories[0]) rec.push_back(s[1]);
    const double dt = pr.dt;
    solver::ShLayerParams p{H, rho1, vs1, rho2, vs2};
    // Incident displacement at the interface depth: u(H, t) = f(H + vs2 t)
    // for the upgoing wave u(z, t) = f(z + vs2 t).
    auto incident = [&](double t) { return pulse(H + vs2 * t); };
    // The solver records u^{k+1} at t = (k+1) dt; sample the closed form on
    // the same staggered instants.
    std::vector<double> exact_all = sh_layer_surface_response(
        p, incident, static_cast<int>(rec.size()) + 1, dt);
    std::vector<double> exact(exact_all.begin() + 1, exact_all.end());

    const double err = util::rel_l2(rec, exact);
    const double corr = util::correlation(rec, exact);
    std::printf("%8d %10.1f %12.4f %12.6f\n", level, L / (1 << level), err,
                corr);
    if (level == 6) {
      std::vector<std::string> names = {"t", "fem", "exact"};
      std::vector<std::vector<double>> cols(3);
      for (std::size_t k = 0; k < rec.size(); ++k) {
        cols[0].push_back((static_cast<double>(k) + 1.0) * dt);
        cols[1].push_back(rec[k]);
        cols[2].push_back(exact[k]);
      }
      util::write_csv("/tmp/fig2_2_seismogram.csv", names, cols);
      std::printf("wrote /tmp/fig2_2_seismogram.csv\n");
    }
    if (prev_err > 0.0) {
      std::printf("   convergence ratio vs previous level: %.2f "
                  "(2nd order => ~4)\n",
                  prev_err / err);
    }
    prev_err = err;
  }
  std::printf("(paper: \"agreement between the finite element simulation and "
              "the Green's function solution is excellent\")\n");
  return 0;
}
