#pragma once

// Multiscale Gauss-Newton-CG material inversion (§3.1-3.2): the shear
// modulus field is inverted through a ladder of successively finer material
// grids (grid continuation keeps each stage's iterate inside the Newton
// basin of the next), each stage solving a TV-regularized, log-barrier-
// safeguarded nonlinear least squares problem by Gauss-Newton with
// matrix-free CG inner solves, an Armijo line search, and an L-BFGS
// preconditioner seeded with Frankel two-step sweeps and refreshed with CG
// curvature pairs.

#include <span>
#include <utility>
#include <vector>

#include "quake/inverse/problem.hpp"
#include "quake/opt/cg.hpp"

namespace quake::inverse {

struct MaterialInversionOptions {
  // Ladder of (gx, gz) inversion grids, coarse to fine.
  std::vector<std::pair<int, int>> stages;
  // Frequency continuation (§3.1): per-stage low-pass cutoff [Hz] applied to
  // the misfit (J = 1/2 dt sum ||B r||^2, exact adjoint via B^T B). Empty:
  // no filtering; an entry <= 0 leaves that stage unfiltered. Shorter than
  // `stages`: trailing stages unfiltered.
  std::vector<double> stage_f_cut;
  int max_newton = 12;
  opt::CgOptions cg{30, 1e-2};
  double beta_tv = 1e3;
  double tv_eps = 1e5;          // in mu units [Pa]
  double mu_min = 1e6;          // barrier floor [Pa]
  double barrier_kappa = 0.0;   // 0: rely on the fraction-to-boundary cap
  double grad_tol = 1e-2;       // relative gradient reduction per stage
  double initial_mu = 0.0;      // homogeneous first-stage guess [Pa]
  bool precondition = true;
  int frankel_sweeps = 0;       // L-BFGS seeding sweeps per stage
};

struct StageReport {
  int gx = 0, gz = 0;
  std::size_t n_params = 0;
  int newton_iters = 0;
  int cg_iters = 0;
  double misfit_initial = 0.0;
  double misfit_final = 0.0;
  double grad_reduction = 1.0;  // |g_final| / |g_initial| within the stage
  double model_error = 0.0;  // rel. L2 of mu vs target (when target given)
};

struct MaterialInversionResult {
  std::vector<double> mu;  // final element shear moduli
  std::vector<double> m;   // final material-grid field
  std::vector<StageReport> stages;
  int total_newton = 0;
  int total_cg = 0;
};

// `mu_target` (element field) is used only for error reporting; pass {} when
// unknown.
MaterialInversionResult invert_material(const InversionProblem& prob,
                                        const MaterialInversionOptions& opt,
                                        std::span<const double> mu_target = {});

}  // namespace quake::inverse
