#pragma once

// Source inversion (§3.2, Fig 3.3): with the material known, recover the
// per-fault-node delay time T(z), rise time t0(z), and dislocation
// amplitude u0(z) from surface records, by Gauss-Newton-CG with Tikhonov
// regularization of each parameter field along the fault and a
// positivity safeguard on the rise time.

#include <span>
#include <vector>

#include "quake/inverse/problem.hpp"
#include "quake/opt/cg.hpp"

namespace quake::inverse {

struct SourceInversionOptions {
  int max_newton = 20;
  opt::CgOptions cg{25, 1e-2};
  double beta_u0 = 1e-2;
  double beta_t0 = 1e-2;
  double beta_T = 1e-2;
  double t0_min = 0.05;    // rise times stay above this [s]
  double T_min = -0.02;    // delays stay (essentially) causal [s]
  double grad_tol = 1e-3;  // relative gradient reduction
  // Initial guesses (constant along the fault).
  double u0_init = 1.0;
  double t0_init = 1.0;
  double T_init = 1.0;
};

struct SourceIterate {
  wave2d::SourceParams2d params;
  double misfit = 0.0;
};

struct SourceInversionResult {
  wave2d::SourceParams2d params;     // converged fields
  std::vector<SourceIterate> iterates;  // per Newton iteration (0 = initial)
  int newton_iters = 0;
  int cg_iters = 0;
  double misfit_final = 0.0;
};

SourceInversionResult invert_source(const InversionProblem& prob,
                                    const wave2d::ShModel& model,
                                    const SourceInversionOptions& opt);

}  // namespace quake::inverse
