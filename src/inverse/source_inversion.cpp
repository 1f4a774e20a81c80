#include "quake/inverse/source_inversion.hpp"

#include <algorithm>
#include <cmath>

#include "quake/inverse/regularization.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"

namespace quake::inverse {

SourceInversionResult invert_source(const InversionProblem& prob,
                                    const wave2d::ShModel& model,
                                    const SourceInversionOptions& opt) {
  const auto& setup = prob.setup();
  const std::size_t np = static_cast<std::size_t>(setup.fault.n_points());
  const double h = setup.grid.h;
  const Tikhonov1d reg_u0(opt.beta_u0, h), reg_t0(opt.beta_t0, h),
      reg_T(opt.beta_T, h);

  wave2d::SourceParams2d p;
  p.u0.assign(np, opt.u0_init);
  p.t0.assign(np, opt.t0_init);
  p.T.assign(np, opt.T_init);

  SourceInversionResult result;

  auto regularization = [&](const wave2d::SourceParams2d& q) {
    return reg_u0.value(q.u0) + reg_t0.value(q.t0) + reg_T.value(q.T);
  };
  auto objective = [&](const wave2d::SourceParams2d& q) {
    const auto fwd = prob.forward(model, q, /*history=*/false);
    return fwd.misfit + regularization(q);
  };

  double g0_norm = -1.0;
  for (int newton = 0; newton < opt.max_newton; ++newton) {
    const auto fwd = prob.forward(model, p, /*history=*/false);
    const double j = fwd.misfit + regularization(p);
    result.iterates.push_back({p, fwd.misfit});
    result.misfit_final = fwd.misfit;

    // Gradient: adjoint from residuals, then the parameter forms.
    const History nu = prob.adjoint(model, fwd.residuals);
    std::vector<double> g(3 * np, 0.0);
    prob.assemble_source_gradient(model, p, nu, {g.data(), np},
                                  {g.data() + np, np},
                                  {g.data() + 2 * np, np});
    reg_u0.add_gradient(p.u0, {g.data(), np});
    reg_t0.add_gradient(p.t0, {g.data() + np, np});
    reg_T.add_gradient(p.T, {g.data() + 2 * np, np});

    const double gnorm = util::norm_l2(g);
    if (g0_norm < 0.0) g0_norm = gnorm;
    QUAKE_LOG_DEBUG("source newton %d: J=%.6e misfit=%.6e |g|=%.3e", newton, j,
                    fwd.misfit, gnorm);
    if (gnorm <= opt.grad_tol * g0_norm) break;

    opt::LinOp hvp = [&](std::span<const double> v, std::span<double> hv) {
      prob.gauss_newton_source(model, p, v, hv);
      reg_u0.add_hessian_vec({v.data(), np}, {hv.data(), np});
      reg_t0.add_hessian_vec({v.data() + np, np}, {hv.data() + np, np});
      reg_T.add_hessian_vec({v.data() + 2 * np, np}, {hv.data() + 2 * np, np});
    };

    std::vector<double> b(3 * np), d(3 * np, 0.0);
    for (std::size_t i = 0; i < 3 * np; ++i) b[i] = -g[i];
    const auto cgres = opt::conjugate_gradient(hvp, b, d, opt.cg);
    result.cg_iters += cgres.iterations;
    if (util::norm_l2(d) == 0.0) break;

    double dphi0 = util::dot(g, d);
    if (dphi0 >= 0.0) {
      for (std::size_t i = 0; i < 3 * np; ++i) d[i] = -g[i];
      dphi0 = -gnorm * gnorm;
    }

    // Projected step: bounds (t0 >= t0_min, T >= T_min) are enforced by
    // projection inside the line search, so an active bound on one fault
    // node never blocks progress on the others (gradient projection).
    auto projected = [&](double alpha) {
      wave2d::SourceParams2d trial = p;
      for (std::size_t i = 0; i < np; ++i) {
        trial.u0[i] += alpha * d[i];
        trial.t0[i] = std::max(opt.t0_min, trial.t0[i] + alpha * d[np + i]);
        trial.T[i] = std::max(opt.T_min, trial.T[i] + alpha * d[2 * np + i]);
      }
      return trial;
    };

    opt::ArmijoOptions ao;
    const auto ls = opt::armijo_backtracking(
        [&](double alpha) { return objective(projected(alpha)); }, j, dphi0,
        ao);
    ++result.newton_iters;
    if (!ls.success) break;
    p = projected(ls.alpha);
  }

  result.params = p;
  return result;
}

}  // namespace quake::inverse
