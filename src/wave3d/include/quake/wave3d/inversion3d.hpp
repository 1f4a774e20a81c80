#pragma once

// 3D scalar-wave material inversion — the exact setting of Table 3.1
// ("algorithmic scalability of inversion algorithm for scalar 3D wave
// equation case"): a fixed wave-propagation grid, a ladder of trilinear
// material grids, Gauss-Newton-CG with an exact discrete adjoint. Known
// point sources; receivers on the free surface. The state, adjoint and
// tangent solves march on wave2d::Stepper, and the adjoint, tangent and
// gradient kernels are quake/inverse's, shared with the antiplane problem.

#include <span>
#include <vector>

#include "quake/inverse/problem.hpp"
#include "quake/opt/cg.hpp"
#include "quake/wave3d/scalar_model.hpp"

namespace quake::wave3d {

struct PointSource3d {
  int node = 0;
  double amplitude = 1.0;
  double fp = 1.0;  // Ricker peak frequency [Hz]
  double tc = 1.0;  // center time [s]
};

struct Setup3d {
  ScalarGrid3d grid;
  double rho = 0.0;
  std::vector<PointSource3d> sources;
  std::vector<int> receiver_nodes;
  double dt = 0.0;
  int nt = 0;
  inverse::Records observations;  // per receiver
};

class ScalarInversion3d {
 public:
  explicit ScalarInversion3d(Setup3d setup);

  [[nodiscard]] const Setup3d& setup() const { return setup_; }

  inverse::ForwardOut forward(const ScalarModel3d& model,
                              bool store_history) const;

  // Adjoint in reversed time (lambda^{k+1} = result[nt-k-1]).
  inverse::History adjoint(const ScalarModel3d& model,
                           const inverse::Records& driver) const;

  void assemble_gradient(const ScalarModel3d& model, const inverse::History& u,
                         const inverse::History& nu,
                         std::span<double> ge) const;

  void gauss_newton(const ScalarModel3d& model, const inverse::History& u,
                    std::span<const double> dmu, std::span<double> h_dmu) const;

 private:
  void add_sources(double t, std::span<double> f) const;
  Setup3d setup_;
};

// Trilinear material grid over the wave domain: mu_e = P m.
class MaterialGrid3d {
 public:
  MaterialGrid3d(const ScalarGrid3d& wave, int gx, int gy, int gz);
  [[nodiscard]] std::size_t n_params() const {
    return static_cast<std::size_t>((gx_ + 1) * (gy_ + 1) * (gz_ + 1));
  }
  void apply(std::span<const double> m, std::span<double> mu) const;
  void apply_transpose(std::span<const double> ge, std::span<double> gm) const;

 private:
  struct Interp {
    int idx[8];
    double w[8];
  };
  int gx_, gy_, gz_;
  std::vector<Interp> elem_interp_;
};

struct Inversion3dOptions {
  int gx = 2, gy = 2, gz = 2;  // material grid (cells)
  int max_newton = 12;
  opt::CgOptions cg{30, 0.5};
  // Relative H1 (smoothness) weight: beta = beta_h1_rel * ||H v|| / ||L v||
  // measured on a probe direction at the first Newton step (data-Hessian
  // scale is problem-dependent). 0: no smoothness term.
  double beta_h1_rel = 0.0;
  double mu_min = 1e6;
  double initial_mu = 0.0;
  double grad_tol = 1e-2;
};

struct Inversion3dReport {
  std::size_t n_params = 0;
  int newton_iters = 0;
  int cg_iters = 0;
  double misfit_initial = 0.0;
  double misfit_final = 0.0;
  double grad_reduction = 1.0;
  double model_error = 0.0;
  std::vector<double> mu;
};

Inversion3dReport invert_material3d(const ScalarInversion3d& prob,
                                    const Inversion3dOptions& opt,
                                    std::span<const double> mu_target = {});

}  // namespace quake::wave3d
