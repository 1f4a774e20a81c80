#include "quake/inverse/material_inversion.hpp"

#include <algorithm>
#include <memory>
#include <cmath>
#include <stdexcept>

#include "quake/inverse/band.hpp"
#include "quake/inverse/regularization.hpp"
#include "quake/obs/obs.hpp"
#include "quake/opt/frankel.hpp"
#include "quake/opt/lbfgs.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"

namespace quake::inverse {

MaterialInversionResult invert_material(const InversionProblem& prob,
                                        const MaterialInversionOptions& opt,
                                        std::span<const double> mu_target) {
  if (opt.stages.empty()) {
    throw std::invalid_argument("invert_material: no stages");
  }
  const auto& setup = prob.setup();
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());

  MaterialInversionResult result;
  std::vector<double> m;  // current material-grid iterate
  std::unique_ptr<MaterialGrid> prev_grid;

  std::size_t stage_idx = 0;
  for (const auto& [gx, gz] : opt.stages) {
    // Frequency continuation: band-limit the misfit for this stage.
    std::unique_ptr<ResidualFilter> rf;
    if (stage_idx < opt.stage_f_cut.size() &&
        opt.stage_f_cut[stage_idx] > 0.0) {
      rf = std::make_unique<ResidualFilter>(opt.stage_f_cut[stage_idx],
                                            1.0 / setup.dt);
    }
    ++stage_idx;
    auto mg = std::make_unique<MaterialGrid>(setup.grid, gx, gz);
    const std::size_t np = mg->n_params();
    if (prev_grid == nullptr) {
      const double mu0 = opt.initial_mu > 0.0 ? opt.initial_mu
                                              : std::max(10.0 * opt.mu_min, 1e7);
      m.assign(np, mu0);
    } else {
      m = prev_grid->prolongate(m, *mg);
      for (double& v : m) v = std::max(v, opt.mu_min * 1.01);
    }

    const TotalVariation tv(*mg, opt.beta_tv, opt.tv_eps);
    const LogBarrier barrier(opt.barrier_kappa, opt.mu_min);
    const bool use_barrier = opt.barrier_kappa > 0.0;

    // Morales-Nocedal refresh: precondition each CG with the curvature
    // pairs harvested from the PREVIOUS Newton step's CG (the Hessian
    // changes between steps, so stale pairs are discarded).
    opt::LbfgsOperator lbfgs_prev(np), lbfgs_next(np);
    StageReport report;
    report.gx = gx;
    report.gz = gz;
    report.n_params = np;

    std::vector<double> mu(ne), ge(ne), g(np), d(np);

    auto data_misfit = [&](const ForwardOut& fwd) {
      if (rf == nullptr) return fwd.misfit;
      return 0.5 * setup.dt * rf->filtered_norm2(fwd.residuals);
    };
    auto objective = [&](std::span<const double> mm) -> double {
      std::vector<double> mu_try(ne);
      mg->apply(mm, mu_try);
      for (double v : mu_try) {
        if (!(v > 0.0)) return std::numeric_limits<double>::infinity();
      }
      const wave2d::ShModel model(setup.grid, std::move(mu_try), setup.rho);
      const auto fwd = prob.forward(model, setup.source, /*history=*/false);
      double j = data_misfit(fwd) + tv.value(mm);
      if (use_barrier) j += barrier.value(mm);
      return j;
    };

    double g0_norm = -1.0;
    for (int newton = 0; newton < opt.max_newton; ++newton) {
      QUAKE_OBS_SCOPE("gn/newton");
      obs::counter_add("gn/newton_total", 1);
      mg->apply(m, mu);
      const wave2d::ShModel model(setup.grid, std::vector<double>(mu),
                                  setup.rho);
      const auto fwd = [&] {
        QUAKE_OBS_SCOPE("forward");
        return prob.forward(model, setup.source, /*history=*/true);
      }();
      const double jd = data_misfit(fwd);
      double j = jd + tv.value(m);
      if (use_barrier) j += barrier.value(m);
      if (newton == 0) report.misfit_initial = jd;
      report.misfit_final = jd;

      // Gradient (band-limited misfit drives the adjoint with B^T B r).
      {
        QUAKE_OBS_SCOPE("adjoint");
        const History nu = prob.adjoint(
            model, rf ? rf->apply_symmetric(fwd.residuals) : fwd.residuals);
        std::fill(ge.begin(), ge.end(), 0.0);
        prob.assemble_material_gradient(model, setup.source, fwd.march.history,
                                        nu, ge);
      }
      std::fill(g.begin(), g.end(), 0.0);
      mg->apply_transpose(ge, g);
      tv.add_gradient(m, g);
      if (use_barrier) barrier.add_gradient(m, g);

      const double gnorm = util::norm_l2(g);
      // Per-outer-iteration convergence trace (Table 3.1 columns).
      obs::series_append("gn/misfit", jd);
      obs::series_append("gn/grad_norm", gnorm);
      if (g0_norm < 0.0) g0_norm = gnorm;
      report.grad_reduction = g0_norm > 0.0 ? gnorm / g0_norm : 1.0;
      QUAKE_LOG_DEBUG("stage %dx%d newton %d: J=%.6e misfit=%.6e |g|=%.3e", gx,
                      gz, newton, j, fwd.misfit, gnorm);
      if (gnorm <= opt.grad_tol * g0_norm) break;

      // Gauss-Newton Hessian-vector product in material-grid space
      // (J^T W J with W = B^T B when band-limited).
      opt::LinOp hvp = [&](std::span<const double> v, std::span<double> hv) {
        QUAKE_OBS_SCOPE("hessvec");
        std::vector<double> dmu(ne), he(ne, 0.0);
        mg->apply(v, dmu);
        if (rf == nullptr) {
          prob.gauss_newton_material(model, setup.source, fwd.march.history,
                                     dmu, he);
        } else {
          Records du = prob.incremental_forward_material(
              model, setup.source, fwd.march.history, dmu);
          const History nu_h = prob.adjoint(model, rf->apply_symmetric(du));
          prob.assemble_material_gradient(model, setup.source,
                                          fwd.march.history, nu_h, he);
        }
        mg->apply_transpose(he, hv);
        tv.add_hessian_vec(m, v, hv);
        if (use_barrier) barrier.add_hessian_vec(m, v, hv);
      };

      if (opt.precondition && opt.frankel_sweeps > 0 && newton == 0) {
        // Seed the L-BFGS preconditioner with Frankel sweeps on H d = -g.
        std::vector<double> b(np), x0(np, 0.0);
        for (std::size_t i = 0; i < np; ++i) b[i] = -g[i];
        opt::FrankelOptions fo;
        fo.sweeps = opt.frankel_sweeps;
        fo.power_iterations = 4;
        opt::frankel_two_step(hvp, b, x0, fo, &lbfgs_prev);
      }

      opt::LinOp precond = [&](std::span<const double> v,
                               std::span<double> out) {
        lbfgs_prev.apply(v, out);
      };
      lbfgs_next.clear();
      opt::PairCollector collect = [&](std::span<const double> s,
                                       std::span<const double> y) {
        lbfgs_next.add_pair(s, y);
      };

      std::vector<double> b(np);
      for (std::size_t i = 0; i < np; ++i) b[i] = -g[i];
      std::fill(d.begin(), d.end(), 0.0);
      const opt::CgResult cgres = [&] {
        QUAKE_OBS_SCOPE("cg");
        return opt::conjugate_gradient(
            hvp, b, d, opt.cg, opt.precondition ? &precond : nullptr,
            &collect);
      }();
      report.cg_iters += cgres.iterations;
      obs::series_append("gn/cg_iters", static_cast<double>(cgres.iterations));
      obs::counter_add("gn/cg_total", cgres.iterations);
      const double dnorm = util::norm_l2(d);
      if (dnorm == 0.0) break;

      double dphi0 = util::dot(g, d);
      if (dphi0 >= 0.0) {
        // Fall back to steepest descent if CG returned a non-descent
        // direction (can happen with an indefinite preconditioner).
        for (std::size_t i = 0; i < np; ++i) d[i] = -g[i];
        dphi0 = -gnorm * gnorm;
      }

      // Projected step: the mu >= mu_min bound is enforced by projection
      // inside the line search (gradient projection), so an active bound on
      // one parameter never stalls the others.
      const double floor = opt.mu_min * 1.0001;
      auto projected = [&](double alpha) {
        std::vector<double> trial(m);
        for (std::size_t i = 0; i < np; ++i) {
          trial[i] = std::max(floor, trial[i] + alpha * d[i]);
        }
        return trial;
      };

      opt::ArmijoOptions ao;
      const auto ls = [&] {
        QUAKE_OBS_SCOPE("linesearch");
        return opt::armijo_backtracking(
            [&](double alpha) { return objective(projected(alpha)); }, j,
            dphi0, ao);
      }();
      obs::series_append("gn/ls_evals", static_cast<double>(ls.evaluations));
      ++report.newton_iters;
      std::swap(lbfgs_prev, lbfgs_next);
      if (!ls.success) break;
      m = projected(ls.alpha);
    }

    if (!mu_target.empty()) {
      mg->apply(m, mu);
      report.model_error = util::rel_l2(mu, mu_target);
    }
    result.total_newton += report.newton_iters;
    result.total_cg += report.cg_iters;
    result.stages.push_back(report);
    prev_grid = std::move(mg);
  }

  result.m = m;
  result.mu.resize(ne);
  prev_grid->apply(m, result.mu);
  return result;
}

}  // namespace quake::inverse
