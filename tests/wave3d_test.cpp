// Tests for the 3D scalar-wave inversion substrate (the Table 3.1 setting):
// model kernels, marching, adjoint gradients vs finite differences,
// Gauss-Newton operator properties, and a small end-to-end inversion.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "hex_apply_ref.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave3d/inversion3d.hpp"
#include "quake/wave3d/scalar_model.hpp"

namespace {

using namespace quake;
using namespace quake::wave3d;

constexpr double kRho = 2200.0;

Setup3d make_setup(int n, int nt) {
  Setup3d s;
  // h = 100 m with ~2 Hz sources: the wavelength (~400-500 m) is both
  // resolvable on the grid (4-5 points per wavelength) and comparable to
  // the heterogeneity size, so the data actually constrains the model.
  s.grid = ScalarGrid3d{n, n, n, 100.0};
  s.rho = kRho;
  // Buried Ricker sources at varied positions and depths.
  s.sources.push_back(
      {s.grid.node(n / 2, n / 2, 2 * n / 3), 1e10, 1.3, 1.0});
  s.sources.push_back({s.grid.node(n / 4, n / 2, n / 2), 6e9, 1.5, 1.2});
  s.sources.push_back(
      {s.grid.node(3 * n / 4, n / 4, n / 3), 8e9, 1.2, 1.4});
  s.sources.push_back(
      {s.grid.node(n / 4, 3 * n / 4, 5 * n / 6), 9e9, 1.4, 1.6});
  for (int j = 1; j < n; ++j) {
    for (int i = 1; i < n; ++i) {
      s.receiver_nodes.push_back(s.grid.node(i, j, 0));
    }
  }
  std::vector<double> mu(static_cast<std::size_t>(s.grid.n_elems()), 2.0e9);
  const ScalarModel3d m(s.grid, std::move(mu), kRho);
  s.dt = m.stable_dt(0.4);
  s.nt = nt;
  return s;
}

// A -20% smooth anomaly in the upper center: a moderate contrast inside
// the Gauss-Newton basin of attraction. (Larger contrasts at these
// wavelengths hit the local minima of §3.1 — the multiscale/frequency
// continuation motivation — demonstrated by bench_ablation_continuation.)
std::vector<double> target_mu(const ScalarGrid3d& g) {
  std::vector<double> mu(static_cast<std::size_t>(g.n_elems()));
  const int n = g.nx;
  for (int e = 0; e < g.n_elems(); ++e) {
    const int i = e % n, j = (e / n) % n, k = e / (n * n);
    const double dx = (i + 0.5 - 0.5 * n) / n;
    const double dy = (j + 0.5 - 0.5 * n) / n;
    const double dz = (k + 0.5 - 0.25 * n) / n;
    mu[static_cast<std::size_t>(e)] =
        1.6e9 *
        (1.0 - 0.20 * std::exp(-8.0 * (dx * dx + dy * dy + dz * dz)));
  }
  return mu;
}

TEST(Grid3d, NodeElementIndexing) {
  ScalarGrid3d g{3, 4, 5, 100.0};
  EXPECT_EQ(g.n_nodes(), 4 * 5 * 6);
  EXPECT_EQ(g.n_elems(), 60);
  int conn[8];
  g.elem_nodes(g.elem(1, 2, 3), conn);
  EXPECT_EQ(conn[0], g.node(1, 2, 3));
  EXPECT_EQ(conn[1], g.node(2, 2, 3));
  EXPECT_EQ(conn[2], g.node(1, 3, 3));
  EXPECT_EQ(conn[4], g.node(1, 2, 4));
  EXPECT_EQ(conn[7], g.node(2, 3, 4));
}

TEST(Model3d, MassConserved) {
  ScalarGrid3d g{4, 4, 4, 100.0};
  const ScalarModel3d m(
      g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), 1e9),
      kRho);
  double total = 0.0;
  for (double v : m.mass()) total += v;
  EXPECT_NEAR(total, kRho * std::pow(400.0, 3), 1e-3);
}

TEST(Model3d, FreeSurfaceUndamped) {
  ScalarGrid3d g{4, 4, 4, 100.0};
  const ScalarModel3d m(
      g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), 1e9),
      kRho);
  EXPECT_DOUBLE_EQ(m.damping()[static_cast<std::size_t>(g.node(2, 2, 0))],
                   0.0);
  EXPECT_GT(m.damping()[static_cast<std::size_t>(g.node(2, 2, 4))], 0.0);
}

TEST(Model3d, KFormIsBilinearValue) {
  ScalarGrid3d g{3, 3, 3, 150.0};
  util::Rng rng(3);
  std::vector<double> mu(static_cast<std::size_t>(g.n_elems()));
  for (double& v : mu) v = rng.uniform(1e9, 3e9);
  const ScalarModel3d m(g, std::vector<double>(mu), kRho);
  std::vector<double> u(static_cast<std::size_t>(g.n_nodes())),
      lam(u.size());
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (double& v : lam) v = rng.uniform(-1.0, 1.0);
  std::vector<double> ge(mu.size(), 0.0), ku(u.size(), 0.0);
  m.accumulate_k_form(lam, u, ge);
  m.apply_k(u, ku);
  double lhs = 0.0;
  for (std::size_t e = 0; e < mu.size(); ++e) lhs += mu[e] * ge[e];
  EXPECT_NEAR(lhs, util::dot(lam, ku), 1e-6 * std::abs(lhs) + 1e-9);
}

TEST(Model3d, ElementPassesMatchReferenceBitPatterns) {
  // apply_k, apply_k_delta and accumulate_k_form against the per-element
  // loops in tests/support, compared as bytes, on odd and even nx (pairs
  // with and without a row tail) and ny != nz. y and ge start at -0.0 in
  // places; dmu holds 0.0, -0.0 (both skipped) and negative entries, so a
  // node of all-zero corners sees -0.0 products. u: kind 0 finite, kind 1
  // with +-0, +-Inf and +-1e300 (overflow and Inf - Inf NaNs), kind 2 zero
  // but for a few nodes. A NaN dmu is outside the contract, as a NaN scale
  // is for fem::hex_scalar_apply.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, kInf, -kInf, 1e300, -1e300};
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  util::Rng rng(23);
  for (const int nx : {1, 2, 3, 7, 10}) {
    for (const auto& [ny, nz] : {std::pair{3, 2}, std::pair{2, 4}}) {
      const ScalarGrid3d g{nx, ny, nz, 37.5};
      const std::size_t ne = static_cast<std::size_t>(g.n_elems());
      const std::size_t nn = static_cast<std::size_t>(g.n_nodes());
      std::vector<double> mu(ne), dmu(ne);
      for (double& v : mu) v = rng.uniform(1e9, 3e9);
      for (std::size_t e = 0; e < ne; ++e) {
        dmu[e] = e % 5 == 0   ? 0.0
                 : e % 5 == 2 ? -0.0
                              : -rng.uniform(1e8, 1e9);
      }
      const ScalarModel3d m(g, mu, kRho);
      for (int kind = 0; kind < 3; ++kind) {
        std::vector<double> u(nn), lam(nn), y0(nn), ge0(ne);
        for (std::size_t i = 0; i < nn; ++i) {
          u[i] = rng.uniform(-1.0, 1.0);
          lam[i] = rng.uniform(-1.0, 1.0);
          if (kind == 1 && i % 4 == 1) u[i] = specials[(i / 4) % 6];
          if (kind == 2 && i % 9 != 4) u[i] = (i % 2 == 0) ? 0.0 : -0.0;
          y0[i] = (kind == 2 || i % 3 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        for (std::size_t e = 0; e < ne; ++e) {
          ge0[e] = (kind == 2 || e % 2 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        const std::string where = "nx=" + std::to_string(nx) + " ny=" +
                                  std::to_string(ny) + " kind=" +
                                  std::to_string(kind);
        std::vector<double> y_a = y0, y_b = y0;
        m.apply_k(u, y_a);
        testsupport::scalar3d_apply_k_ref(m, u, y_b);
        EXPECT_TRUE(same_bits(y_a, y_b)) << "apply_k " << where;
        y_a = y0;
        y_b = y0;
        m.apply_k_delta(dmu, u, y_a);
        testsupport::scalar3d_apply_k_delta_ref(m, dmu, u, y_b);
        EXPECT_TRUE(same_bits(y_a, y_b)) << "apply_k_delta " << where;
        std::vector<double> ge_a = ge0, ge_b = ge0;
        m.accumulate_k_form(lam, u, ge_a);
        testsupport::scalar3d_accumulate_k_form_ref(m, lam, u, ge_b);
        EXPECT_TRUE(same_bits(ge_a, ge_b)) << "accumulate_k_form " << where;
      }
    }
  }
}

TEST(Model3d, WavesAbsorbed) {
  ScalarGrid3d g{8, 8, 8, 100.0};
  const ScalarModel3d m(
      g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), 2e9),
      kRho);
  const double dt = m.stable_dt(0.4);
  auto out = time_march3d(
      m, dt, 600,
      [&](int k, double, std::span<double> f) {
        if (k < 10) f[static_cast<std::size_t>(g.node(4, 4, 4))] = 1e10;
      },
      {}, true);
  double peak = 0.0;
  for (const auto& u : out.history) peak = std::max(peak, util::norm_max(u));
  EXPECT_GT(peak, 0.0);
  // 3D waves satisfy Huygens: the coda dies out quickly.
  EXPECT_LT(util::norm_max(out.history.back()), 0.05 * peak);
}

TEST(Adjoint3d, GradientMatchesFiniteDifference) {
  Setup3d setup = make_setup(8, 90);
  // Observations from a heterogeneous target.
  const std::vector<double> mu_t = target_mu(setup.grid);
  {
    const ScalarModel3d truth(setup.grid, std::vector<double>(mu_t), kRho);
    const ScalarInversion3d gen(setup);
    setup.observations = gen.forward(truth, false).march.records;
  }
  const ScalarInversion3d prob(setup);

  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());
  std::vector<double> mu(ne, 1.6e9);
  const ScalarModel3d model(setup.grid, std::vector<double>(mu), kRho);
  const auto fwd = prob.forward(model, true);
  ASSERT_GT(fwd.misfit, 0.0);
  const auto nu = prob.adjoint(model, fwd.residuals);
  std::vector<double> ge(ne, 0.0);
  prob.assemble_gradient(model, fwd.march.history, nu, ge);

  util::Rng rng(5);
  std::vector<double> dmu(ne);
  for (double& v : dmu) v = rng.uniform(-1.0, 1.0) * 1e8;
  auto j_of = [&](double s) {
    std::vector<double> mu_s(ne);
    for (std::size_t e = 0; e < ne; ++e) mu_s[e] = mu[e] + s * dmu[e];
    const ScalarModel3d ms(setup.grid, std::move(mu_s), kRho);
    return prob.forward(ms, false).misfit;
  };
  const double eps = 1e-5;
  const double fd = (j_of(eps) - j_of(-eps)) / (2 * eps);
  EXPECT_NEAR(util::dot(ge, dmu), fd, 2e-4 * std::abs(fd));
}

TEST(GaussNewton3d, SymmetricPsd) {
  Setup3d setup = make_setup(6, 70);
  {
    const ScalarModel3d truth(setup.grid, target_mu(setup.grid), kRho);
    const ScalarInversion3d gen(setup);
    setup.observations = gen.forward(truth, false).march.records;
  }
  const ScalarInversion3d prob(setup);
  const std::size_t ne = static_cast<std::size_t>(setup.grid.n_elems());
  const ScalarModel3d model(setup.grid, std::vector<double>(ne, 1.6e9), kRho);
  const auto fwd = prob.forward(model, true);

  util::Rng rng(9);
  std::vector<double> v(ne), w(ne), hv(ne, 0.0), hw(ne, 0.0);
  for (double& x : v) x = rng.uniform(-1.0, 1.0) * 1e8;
  for (double& x : w) x = rng.uniform(-1.0, 1.0) * 1e8;
  prob.gauss_newton(model, fwd.march.history, v, hv);
  prob.gauss_newton(model, fwd.march.history, w, hw);
  const double vhw = util::dot(v, hw), whv = util::dot(w, hv);
  EXPECT_NEAR(vhw, whv, 1e-6 * (std::abs(vhw) + std::abs(whv)) + 1e-12);
  EXPECT_GE(util::dot(v, hv), -1e-10 * util::norm_l2(v) * util::norm_l2(hv));
}

TEST(MaterialGrid3d, TransposeIsAdjoint) {
  ScalarGrid3d g{6, 6, 6, 100.0};
  const MaterialGrid3d mg(g, 3, 2, 2);
  util::Rng rng(11);
  std::vector<double> m(mg.n_params()),
      ge(static_cast<std::size_t>(g.n_elems()));
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  for (double& v : ge) v = rng.uniform(-1.0, 1.0);
  std::vector<double> pm(ge.size());
  mg.apply(m, pm);
  std::vector<double> ptg(m.size(), 0.0);
  mg.apply_transpose(ge, ptg);
  EXPECT_NEAR(util::dot(pm, ge), util::dot(m, ptg), 1e-9);
}

TEST(MaterialGrid3d, ReproducesTrilinearField) {
  ScalarGrid3d g{8, 8, 8, 100.0};
  const MaterialGrid3d mg(g, 2, 2, 2);
  // m(x,y,z) = 1 + x + 2y + 3z on the coarse grid (in cell units).
  std::vector<double> m(mg.n_params());
  for (int k = 0; k <= 2; ++k) {
    for (int j = 0; j <= 2; ++j) {
      for (int i = 0; i <= 2; ++i) {
        m[static_cast<std::size_t>((k * 3 + j) * 3 + i)] =
            1.0 + i + 2.0 * j + 3.0 * k;
      }
    }
  }
  std::vector<double> mu(static_cast<std::size_t>(g.n_elems()));
  mg.apply(m, mu);
  // Element center (3.5, 3.5, 3.5)/8 of the domain -> (0.875, 0.875, 0.875)
  // cell coordinates in the coarse grid.
  const int e = g.elem(3, 3, 3);
  const double c = 0.875;
  EXPECT_NEAR(mu[static_cast<std::size_t>(e)], 1.0 + c + 2.0 * c + 3.0 * c,
              1e-12);
}

TEST(Inversion3d, RecoversSmoothAnomaly) {
  Setup3d setup = make_setup(10, 170);
  const std::vector<double> mu_t = target_mu(setup.grid);
  {
    const ScalarModel3d truth(setup.grid, std::vector<double>(mu_t), kRho);
    const ScalarInversion3d gen(setup);
    setup.observations = gen.forward(truth, false).march.records;
  }
  const ScalarInversion3d prob(setup);
  Inversion3dOptions opt;
  opt.gx = opt.gy = opt.gz = 3;
  opt.max_newton = 10;
  opt.cg = {200, 0.01};
  opt.mu_min = 1e8;
  opt.initial_mu = 1.6e9;
  opt.beta_h1_rel = 0.03;
  opt.grad_tol = 1e-3;
  const auto rep = invert_material3d(prob, opt, mu_t);
  // Essentially exact recovery within the Newton basin.
  EXPECT_LT(rep.misfit_final, 0.01 * rep.misfit_initial);
  EXPECT_LT(rep.model_error, 0.05);
  EXPECT_GT(rep.cg_iters, 0);
}

}  // namespace
