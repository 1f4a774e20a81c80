#include "quake/inverse/joint_inversion.hpp"

#include <algorithm>
#include <cmath>

#include "quake/inverse/regularization.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave2d/march.hpp"

namespace quake::inverse {

JointInversionResult invert_joint(const InversionProblem& prob,
                                  const JointInversionOptions& opt,
                                  std::span<const double> mu_target,
                                  const wave2d::SourceParams2d* source_target) {
  const auto& setup = prob.setup();
  const wave2d::FaultSource2d& src = prob.source_op();
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());
  const std::size_t nn = static_cast<std::size_t>(setup.grid.n_nodes());
  const std::size_t nps = static_cast<std::size_t>(setup.fault.n_points());

  const MaterialGrid mg(setup.grid, opt.gx, opt.gz);
  const std::size_t npm = mg.n_params();
  const std::size_t n_total = npm + 3 * nps;

  const TotalVariation tv(mg, opt.beta_tv, opt.tv_eps);
  const Tikhonov1d reg_u0(opt.beta_u0, setup.grid.h),
      reg_t0(opt.beta_t0, setup.grid.h), reg_T(opt.beta_T, setup.grid.h);

  // Diagonal variable scaling: the CG operates on x-hat with
  // x = D x-hat, D = diag(mu_scale ... , 1 ...).
  const double mu_scale = opt.initial_mu > 0.0 ? opt.initial_mu : 1e9;

  // Unscaled parameters.
  std::vector<double> m(npm, opt.initial_mu > 0.0 ? opt.initial_mu : 1e9);
  wave2d::SourceParams2d p;
  p.u0.assign(nps, opt.u0_init);
  p.t0.assign(nps, opt.t0_init);
  p.T.assign(nps, opt.T_init);

  auto regularization = [&](std::span<const double> mm,
                            const wave2d::SourceParams2d& q) {
    return tv.value(mm) + reg_u0.value(q.u0) + reg_t0.value(q.t0) +
           reg_T.value(q.T);
  };
  auto objective = [&](std::span<const double> mm,
                       const wave2d::SourceParams2d& q) {
    std::vector<double> mu_try(ne);
    mg.apply(mm, mu_try);
    const wave2d::ShModel model(setup.grid, std::move(mu_try), setup.rho);
    return prob.forward(model, q, false).misfit + regularization(mm, q);
  };

  JointInversionResult result;
  std::vector<double> mu(ne);
  double g0 = -1.0;

  for (int newton = 0; newton < opt.max_newton; ++newton) {
    mg.apply(m, mu);
    const wave2d::ShModel model(setup.grid, std::vector<double>(mu),
                                setup.rho);
    const auto fwd = prob.forward(model, p, /*history=*/true);
    const double j = fwd.misfit + regularization(m, p);
    if (newton == 0) result.misfit_initial = fwd.misfit;
    result.misfit_final = fwd.misfit;

    // One adjoint drives both gradient blocks.
    const History nu = prob.adjoint(model, fwd.residuals);
    std::vector<double> ge(ne, 0.0);
    prob.assemble_material_gradient(model, p, fwd.march.history, nu, ge);
    std::vector<double> g(n_total, 0.0);
    mg.apply_transpose(ge, {g.data(), npm});
    tv.add_gradient(m, {g.data(), npm});
    prob.assemble_source_gradient(model, p, nu, {g.data() + npm, nps},
                                  {g.data() + npm + nps, nps},
                                  {g.data() + npm + 2 * nps, nps});
    reg_u0.add_gradient(p.u0, {g.data() + npm, nps});
    reg_t0.add_gradient(p.t0, {g.data() + npm + nps, nps});
    reg_T.add_gradient(p.T, {g.data() + npm + 2 * nps, nps});

    // Scaled gradient g-hat = D g.
    std::vector<double> gh(n_total);
    for (std::size_t i = 0; i < n_total; ++i) {
      gh[i] = (i < npm ? mu_scale : 1.0) * g[i];
    }
    const double gnorm = util::norm_l2(gh);
    if (g0 < 0.0) g0 = gnorm;
    QUAKE_LOG_DEBUG("joint newton %d: misfit=%.4e |g|=%.3e", newton,
                    fwd.misfit, gnorm);
    if (gnorm <= opt.grad_tol * g0) break;

    // Scaled Gauss-Newton product: H-hat = D H D.
    opt::LinOp hvp = [&](std::span<const double> vh, std::span<double> hv) {
      // Unscale the direction.
      std::vector<double> vm(npm);
      for (std::size_t i = 0; i < npm; ++i) vm[i] = mu_scale * vh[i];
      std::span<const double> du0 = vh.subspan(npm, nps);
      std::span<const double> dt0 = vh.subspan(npm + nps, nps);
      std::span<const double> dT = vh.subspan(npm + 2 * nps, nps);
      std::vector<double> dmu(ne);
      mg.apply(vm, dmu);

      // Combined incremental forward: material terms + source-parameter
      // terms in one rhs.
      std::vector<double> diff(nn), tmp(nn);
      auto inc = wave2d::time_march(
          model, {setup.dt, setup.nt},
          [&](int k, double t, std::span<double> f) {
            src.add_forces_delta_mu(model, p, dmu, t, f);
            src.add_forces_delta_params(model, p, du0, dt0, dT, t, f);
            subtract_tangent_forces(model, fwd.march.history, k, setup.dt,
                                    dmu, f, diff, tmp);
          },
          setup.receiver_nodes, /*store_history=*/false);

      const History nuh = prob.adjoint(model, inc.records);
      std::vector<double> he(ne, 0.0), hraw(n_total, 0.0);
      prob.assemble_material_gradient(model, p, fwd.march.history, nuh, he);
      mg.apply_transpose(he, {hraw.data(), npm});
      prob.assemble_source_gradient(model, p, nuh, {hraw.data() + npm, nps},
                                    {hraw.data() + npm + nps, nps},
                                    {hraw.data() + npm + 2 * nps, nps});
      // Regularization blocks (on unscaled variables).
      tv.add_hessian_vec(m, vm, {hraw.data(), npm});
      reg_u0.add_hessian_vec(du0, {hraw.data() + npm, nps});
      reg_t0.add_hessian_vec(dt0, {hraw.data() + npm + nps, nps});
      reg_T.add_hessian_vec(dT, {hraw.data() + npm + 2 * nps, nps});
      // Rescale.
      for (std::size_t i = 0; i < n_total; ++i) {
        hv[i] += (i < npm ? mu_scale : 1.0) * hraw[i];
      }
    };

    std::vector<double> b(n_total), dh(n_total, 0.0);
    for (std::size_t i = 0; i < n_total; ++i) b[i] = -gh[i];
    const auto cg = opt::conjugate_gradient(hvp, b, dh, opt.cg);
    result.cg_iters += cg.iterations;
    if (util::norm_l2(dh) == 0.0) break;

    // Active-set reduction: zero direction components that push into an
    // active bound (their projected motion is zero, but they would corrupt
    // the directional derivative the Armijo test relies on).
    auto reduce_active = [&](std::vector<double>& dir) {
      const double tiny = 1e-12;
      for (std::size_t i = 0; i < npm; ++i) {
        if (m[i] <= opt.mu_min * 1.0001 * (1.0 + tiny) && dir[i] < 0.0) {
          dir[i] = 0.0;
        }
      }
      for (std::size_t i = 0; i < nps; ++i) {
        if (p.t0[i] <= opt.t0_min + tiny && dir[npm + nps + i] < 0.0) {
          dir[npm + nps + i] = 0.0;
        }
        if (p.T[i] <= opt.T_min + tiny && dir[npm + 2 * nps + i] < 0.0) {
          dir[npm + 2 * nps + i] = 0.0;
        }
      }
    };
    reduce_active(dh);
    double dphi0 = util::dot(gh, dh);
    if (dphi0 >= 0.0) {
      // Projected steepest descent fallback.
      for (std::size_t i = 0; i < n_total; ++i) dh[i] = -gh[i];
      reduce_active(dh);
      dphi0 = util::dot(gh, dh);
      if (dphi0 >= 0.0) break;  // stationary within the feasible set
    }
    // Trust-region-style cap: near-null Hessian directions can make the CG
    // step enormous in the scaled variables (where the whole parameter
    // range is O(1)); cap the step so backtracking starts in a sane range.
    const double dmax = util::norm_max(dh);
    if (dmax > 0.5) {
      const double scale = 0.5 / dmax;
      for (double& v : dh) v *= scale;
      dphi0 *= scale;
    }

    // Projected step in unscaled variables.
    auto projected = [&](double alpha) {
      std::pair<std::vector<double>, wave2d::SourceParams2d> trial{m, p};
      for (std::size_t i = 0; i < npm; ++i) {
        trial.first[i] = std::max(opt.mu_min * 1.0001,
                                  trial.first[i] + alpha * mu_scale * dh[i]);
      }
      for (std::size_t i = 0; i < nps; ++i) {
        trial.second.u0[i] += alpha * dh[npm + i];
        trial.second.t0[i] =
            std::max(opt.t0_min, trial.second.t0[i] + alpha * dh[npm + nps + i]);
        trial.second.T[i] = std::max(
            opt.T_min, trial.second.T[i] + alpha * dh[npm + 2 * nps + i]);
      }
      return trial;
    };
    const auto ls = opt::armijo_backtracking(
        [&](double a) {
          const auto t = projected(a);
          return objective(t.first, t.second);
        },
        j, dphi0, opt::ArmijoOptions{});
    ++result.newton_iters;
    if (!ls.success) {
      QUAKE_LOG_DEBUG("joint: line search failed; dphi0=%.3e phi0=%.6e "
                      "phi(1e-4)=%.6e phi(1e-8)=%.6e",
                      dphi0, j,
                      [&] { auto t = projected(1e-4); return objective(t.first, t.second); }(),
                      [&] { auto t = projected(1e-8); return objective(t.first, t.second); }());
      break;
    }
    auto t = projected(ls.alpha);
    m = std::move(t.first);
    p = std::move(t.second);
  }

  result.mu.resize(ne);
  mg.apply(m, result.mu);
  result.source = p;
  if (!mu_target.empty()) {
    result.material_error = util::rel_l2(result.mu, mu_target);
  }
  if (source_target != nullptr) {
    std::vector<double> a, b2;
    for (auto* f : {&p.u0, &p.t0, &p.T}) {
      a.insert(a.end(), f->begin(), f->end());
    }
    for (auto* f : {&source_target->u0, &source_target->t0,
                    &source_target->T}) {
      b2.insert(b2.end(), f->begin(), f->end());
    }
    result.source_error = util::rel_l2(a, b2);
  }
  return result;
}

}  // namespace quake::inverse
