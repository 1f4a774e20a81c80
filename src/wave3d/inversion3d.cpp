#include "quake/wave3d/inversion3d.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quake/obs/obs.hpp"
#include "quake/opt/lbfgs.hpp"
#include "quake/opt/linesearch.hpp"
#include "quake/util/log.hpp"
#include "quake/util/stats.hpp"

namespace quake::wave3d {
namespace {

double ricker(double t, double fp, double tc) {
  const double a = std::numbers::pi * fp * (t - tc);
  return (1.0 - 2.0 * a * a) * std::exp(-a * a);
}

}  // namespace

ScalarInversion3d::ScalarInversion3d(Setup3d setup)
    : setup_(std::move(setup)) {
  setup_.grid.validate();
  if (!(setup_.dt > 0.0) || setup_.nt < 1) {
    throw std::invalid_argument("ScalarInversion3d: bad dt/nt");
  }
}

void ScalarInversion3d::add_sources(double t, std::span<double> f) const {
  for (const PointSource3d& s : setup_.sources) {
    f[static_cast<std::size_t>(s.node)] += s.amplitude * ricker(t, s.fp, s.tc);
  }
}

inverse::ForwardOut ScalarInversion3d::forward(const ScalarModel3d& model,
                                               bool store_history) const {
  inverse::ForwardOut out;
  out.march = wave2d::time_march(
      model, {setup_.dt, setup_.nt},
      [this](int, double t, std::span<double> f) { add_sources(t, f); },
      setup_.receiver_nodes, store_history);
  inverse::fill_residuals(out, setup_.observations, setup_.dt);
  return out;
}

inverse::History ScalarInversion3d::adjoint(
    const ScalarModel3d& model, const inverse::Records& driver) const {
  return inverse::adjoint_march(model, setup_.receiver_nodes, driver,
                                setup_.dt, setup_.nt);
}

void ScalarInversion3d::assemble_gradient(const ScalarModel3d& model,
                                          const inverse::History& u,
                                          const inverse::History& nu,
                                          std::span<double> ge) const {
  const int nt = setup_.nt;
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> scaled(n), diff(n);
  for (int k = 0; k < nt; ++k) {
    inverse::accumulate_kc_step(
        model, setup_.dt, nu[static_cast<std::size_t>(nt - k - 1)],
        inverse::state_at(u, k), inverse::state_at(u, k + 1),
        inverse::state_at(u, k - 1), ge, scaled, diff);
  }
}

void ScalarInversion3d::gauss_newton(const ScalarModel3d& model,
                                     const inverse::History& u,
                                     std::span<const double> dmu,
                                     std::span<double> h_dmu) const {
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> diff(n), tmp(n);
  const wave2d::MarchResult inc = wave2d::time_march(
      model, {setup_.dt, setup_.nt},
      [&](int k, double, std::span<double> f) {
        inverse::subtract_tangent_forces(model, u, k, setup_.dt, dmu, f, diff,
                                         tmp);
      },
      setup_.receiver_nodes, /*store_history=*/false);
  assemble_gradient(model, u, adjoint(model, inc.records), h_dmu);
}

MaterialGrid3d::MaterialGrid3d(const ScalarGrid3d& wave, int gx, int gy,
                               int gz)
    : gx_(gx), gy_(gy), gz_(gz) {
  if (gx < 1 || gy < 1 || gz < 1) {
    throw std::invalid_argument("MaterialGrid3d: need >= 1 cell per side");
  }
  const double dx = wave.nx * wave.h / gx;
  const double dy = wave.ny * wave.h / gy;
  const double dz = wave.nz * wave.h / gz;
  elem_interp_.reserve(static_cast<std::size_t>(wave.n_elems()));
  for (int e = 0; e < wave.n_elems(); ++e) {
    const int i = e % wave.nx;
    const int j = (e / wave.nx) % wave.ny;
    const int k = e / (wave.nx * wave.ny);
    const double fx =
        std::clamp(((i + 0.5) * wave.h) / dx, 0.0, static_cast<double>(gx));
    const double fy =
        std::clamp(((j + 0.5) * wave.h) / dy, 0.0, static_cast<double>(gy));
    const double fz =
        std::clamp(((k + 0.5) * wave.h) / dz, 0.0, static_cast<double>(gz));
    const int ci = std::min(static_cast<int>(fx), gx - 1);
    const int cj = std::min(static_cast<int>(fy), gy - 1);
    const int ck = std::min(static_cast<int>(fz), gz - 1);
    const double tx = fx - ci, ty = fy - cj, tz = fz - ck;
    Interp it;
    int q = 0;
    for (int c = 0; c < 8; ++c) {
      const int ii = ci + (c & 1);
      const int jj = cj + ((c >> 1) & 1);
      const int kk = ck + ((c >> 2) & 1);
      it.idx[q] = (kk * (gy + 1) + jj) * (gx + 1) + ii;
      it.w[q] = ((c & 1) ? tx : 1.0 - tx) * ((c & 2) ? ty : 1.0 - ty) *
                ((c & 4) ? tz : 1.0 - tz);
      ++q;
    }
    elem_interp_.push_back(it);
  }
}

void MaterialGrid3d::apply(std::span<const double> m,
                           std::span<double> mu) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    double v = 0.0;
    for (int c = 0; c < 8; ++c) {
      v += it.w[c] * m[static_cast<std::size_t>(it.idx[c])];
    }
    mu[e] = v;
  }
}

void MaterialGrid3d::apply_transpose(std::span<const double> ge,
                                     std::span<double> gm) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    for (int c = 0; c < 8; ++c) {
      gm[static_cast<std::size_t>(it.idx[c])] += it.w[c] * ge[e];
    }
  }
}

namespace {

// Graph Laplacian on the (gx+1)x(gy+1)x(gz+1) material grid: out += L v.
void graph_laplacian(int gx, int gy, int gz, std::span<const double> v,
                     std::span<double> out) {
  const int sx = 1, sy = gx + 1, sz = (gx + 1) * (gy + 1);
  for (int k = 0; k <= gz; ++k) {
    for (int j = 0; j <= gy; ++j) {
      for (int i = 0; i <= gx; ++i) {
        const int idx = k * sz + j * sy + i * sx;
        double acc = 0.0;
        int deg = 0;
        auto nb = [&](int o) {
          acc += v[static_cast<std::size_t>(o)];
          ++deg;
        };
        if (i > 0) nb(idx - sx);
        if (i < gx) nb(idx + sx);
        if (j > 0) nb(idx - sy);
        if (j < gy) nb(idx + sy);
        if (k > 0) nb(idx - sz);
        if (k < gz) nb(idx + sz);
        out[static_cast<std::size_t>(idx)] +=
            deg * v[static_cast<std::size_t>(idx)] - acc;
      }
    }
  }
}

}  // namespace

Inversion3dReport invert_material3d(const ScalarInversion3d& prob,
                                    const Inversion3dOptions& opt,
                                    std::span<const double> mu_target) {
  const auto& setup = prob.setup();
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());
  const MaterialGrid3d mg(setup.grid, opt.gx, opt.gy, opt.gz);
  const std::size_t np = mg.n_params();

  Inversion3dReport report;
  report.n_params = np;
  double beta_h1 = 0.0;  // calibrated from beta_h1_rel at the first iteration
  // Morales-Nocedal refresh: precondition with the previous CG's pairs.
  opt::LbfgsOperator lbfgs_prev(np, 30), lbfgs_next(np, 30);
  std::vector<double> m(np, opt.initial_mu);
  std::vector<double> mu(ne), ge(ne), g(np), d(np);

  auto h1_value = [&](std::span<const double> mm) {
    if (!(beta_h1 > 0.0)) return 0.0;
    std::vector<double> lm(np, 0.0);
    graph_laplacian(opt.gx, opt.gy, opt.gz, mm, lm);
    return 0.5 * beta_h1 * util::dot(mm, lm);
  };
  auto objective = [&](std::span<const double> mm) {
    std::vector<double> mu_try(ne);
    mg.apply(mm, mu_try);
    const ScalarModel3d model(setup.grid, std::move(mu_try), setup.rho);
    return prob.forward(model, false).misfit + h1_value(mm);
  };

  double g0 = -1.0;
  for (int newton = 0; newton < opt.max_newton; ++newton) {
    QUAKE_OBS_SCOPE("gn/newton");
    obs::counter_add("gn/newton_total", 1);
    mg.apply(m, mu);
    const ScalarModel3d model(setup.grid, std::vector<double>(mu), setup.rho);
    const auto fwd = [&] {
      QUAKE_OBS_SCOPE("forward");
      return prob.forward(model, /*history=*/true);
    }();
    if (newton == 0) report.misfit_initial = fwd.misfit;
    report.misfit_final = fwd.misfit;
    obs::series_append("gn/misfit", fwd.misfit);

    {
      QUAKE_OBS_SCOPE("adjoint");
      const auto nu = prob.adjoint(model, fwd.residuals);
      std::fill(ge.begin(), ge.end(), 0.0);
      prob.assemble_gradient(model, fwd.march.history, nu, ge);
    }
    std::fill(g.begin(), g.end(), 0.0);
    mg.apply_transpose(ge, g);
    // The data term's Gauss-Newton product, accumulated into hv (mapped to
    // the element grid, applied, mapped back).
    const auto data_hv = [&](std::span<const double> v,
                             std::span<double> hv) {
      std::vector<double> dmu(ne), he(ne, 0.0);
      mg.apply(v, dmu);
      prob.gauss_newton(model, fwd.march.history, dmu, he);
      mg.apply_transpose(he, hv);
    };
    if (opt.beta_h1_rel > 0.0 && newton == 0) {
      // Calibrate the smoothness weight against the data-term curvature on
      // an alternating-sign probe direction.
      QUAKE_OBS_SCOPE("calibrate");
      std::vector<double> v(np), hv(np, 0.0), lv(np, 0.0);
      for (std::size_t i = 0; i < np; ++i) v[i] = (i % 2 == 0) ? 1.0 : -1.0;
      data_hv(v, hv);
      graph_laplacian(opt.gx, opt.gy, opt.gz, v, lv);
      const double hn = util::norm_l2(hv), ln = util::norm_l2(lv);
      beta_h1 = ln > 0.0 ? opt.beta_h1_rel * hn / ln : 0.0;
      QUAKE_LOG_DEBUG("inv3d: calibrated beta_h1 = %.3e", beta_h1);
    }
    if (beta_h1 > 0.0) {
      std::vector<double> lm(np, 0.0);
      graph_laplacian(opt.gx, opt.gy, opt.gz, m, lm);
      for (std::size_t i = 0; i < np; ++i) g[i] += beta_h1 * lm[i];
    }

    const double gnorm = util::norm_l2(g);
    obs::series_append("gn/grad_norm", gnorm);
    if (g0 < 0.0) g0 = gnorm;
    report.grad_reduction = g0 > 0.0 ? gnorm / g0 : 1.0;
    QUAKE_LOG_DEBUG("inv3d newton %d: misfit=%.4e |g|=%.3e", newton,
                    fwd.misfit, gnorm);
    if (gnorm <= opt.grad_tol * g0) break;

    opt::LinOp hvp = [&](std::span<const double> v, std::span<double> hv) {
      QUAKE_OBS_SCOPE("hessvec");
      data_hv(v, hv);
      if (beta_h1 > 0.0) {
        std::vector<double> lv(np, 0.0);
        graph_laplacian(opt.gx, opt.gy, opt.gz, v, lv);
        for (std::size_t i = 0; i < np; ++i) hv[i] += beta_h1 * lv[i];
      }
    };

    std::vector<double> b(np);
    for (std::size_t i = 0; i < np; ++i) b[i] = -g[i];
    std::fill(d.begin(), d.end(), 0.0);
    opt::LinOp precond = [&](std::span<const double> v,
                             std::span<double> out) {
      lbfgs_prev.apply(v, out);
    };
    lbfgs_next.clear();
    opt::PairCollector collect = [&](std::span<const double> s,
                                     std::span<const double> y) {
      lbfgs_next.add_pair(s, y);
    };
    const auto cg = [&] {
      QUAKE_OBS_SCOPE("cg");
      return opt::conjugate_gradient(hvp, b, d, opt.cg, &precond, &collect);
    }();
    report.cg_iters += cg.iterations;
    obs::series_append("gn/cg_iters", static_cast<double>(cg.iterations));
    obs::counter_add("gn/cg_total", cg.iterations);
    if (util::norm_l2(d) == 0.0) break;

    double dphi0 = util::dot(g, d);
    if (dphi0 >= 0.0) {
      for (std::size_t i = 0; i < np; ++i) d[i] = -g[i];
      dphi0 = -gnorm * gnorm;
    }
    auto projected = [&](double alpha) {
      std::vector<double> trial(m);
      for (std::size_t i = 0; i < np; ++i) {
        trial[i] = std::max(opt.mu_min, trial[i] + alpha * d[i]);
      }
      return trial;
    };
    const double j0 = fwd.misfit + h1_value(m);
    const auto ls = [&] {
      QUAKE_OBS_SCOPE("linesearch");
      return opt::armijo_backtracking(
          [&](double a) { return objective(projected(a)); }, j0, dphi0,
          opt::ArmijoOptions{});
    }();
    obs::series_append("gn/ls_evals", static_cast<double>(ls.evaluations));
    ++report.newton_iters;
    std::swap(lbfgs_prev, lbfgs_next);
    QUAKE_LOG_DEBUG("inv3d   cg=%d (res %.2e->%.2e%s) |d|=%.3e dphi0=%.3e alpha=%.3e",
                    cg.iterations, cg.initial_residual, cg.final_residual,
                    cg.hit_negative_curvature ? ", NEGCURV" : "",
                    util::norm_l2(d), dphi0, ls.alpha);
    if (!ls.success) break;
    m = projected(ls.alpha);
  }

  report.mu.resize(ne);
  mg.apply(m, report.mu);
  if (!mu_target.empty()) {
    report.model_error = util::rel_l2(report.mu, mu_target);
  }
  return report;
}

}  // namespace quake::wave3d
