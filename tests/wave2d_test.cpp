// Tests for the 2D antiplane substrate: grid/element kernels, time marching,
// source time function derivatives, and the fault dipole.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "hex_apply_ref.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave2d/fault.hpp"
#include "quake/wave2d/march.hpp"
#include "quake/wave2d/sh_model.hpp"
#include "quake/wave2d/stf.hpp"
#include "stepper_cases.hpp"

namespace {

using namespace quake;
using namespace quake::wave2d;

ShGrid grid24() { return ShGrid{24, 16, 100.0}; }

ShModel homogeneous(const ShGrid& g, double mu = 2e9, double rho = 2000.0) {
  return ShModel(g, std::vector<double>(static_cast<std::size_t>(g.n_elems()), mu), rho);
}

TEST(QuadLaplacian, KnownEntries) {
  const auto& k = quad_laplacian_reference();
  // Classic bilinear square Laplacian: diag 2/3, edge -1/6, diagonal -1/3.
  EXPECT_NEAR(k[0], 2.0 / 3.0, 1e-13);
  EXPECT_NEAR(k[1], -1.0 / 6.0, 1e-13);
  EXPECT_NEAR(k[3], -1.0 / 3.0, 1e-13);
  // Row sums vanish.
  for (int i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int j = 0; j < 4; ++j) s += k[static_cast<std::size_t>(i * 4 + j)];
    EXPECT_NEAR(s, 0.0, 1e-13);
  }
}

TEST(QuadLaplacian, IsExactlySymmetric) {
  // ShModel's quad kernel multiplies by row c where the row loop multiplies
  // by column c; that is the same product only if the two hold the same
  // bits (value equality would pass -0.0 == +0.0).
  const auto& k = quad_laplacian_reference();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(k[static_cast<std::size_t>(i * 4 + j)]),
                std::bit_cast<std::uint64_t>(k[static_cast<std::size_t>(j * 4 + i)]))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(ShModel, ApplyKMatchesReferenceBitPatterns) {
  // apply_k and apply_k_delta against the straight-line row loop, compared
  // as bytes. u carries one edge kind at a time: signed zeros, subnormals,
  // subnormal products, and finite values with one +Inf, one -Inf, one
  // NaN, +Inf beside -Inf (Inf - Inf makes NaNs) or a NaN beside -Inf.
  // The scatter y[node] += v is a sum over the node's elements, and where
  // two different NaN payloads meet in it the survivor follows the
  // compiler's operand order, as for a NaN scale of fem::hex_scalar_apply.
  // So the special nodes sit side by side, and dmu keeps one sign: every
  // node then sums NaNs of one payload at most.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const ShGrid g{6, 5, 10.0};
  const std::size_t ne = static_cast<std::size_t>(g.n_elems());
  const std::size_t nn = static_cast<std::size_t>(g.n_nodes());
  util::Rng rng(61);
  std::vector<double> mu(ne), dmu(ne);
  for (double& v : mu) v = rng.uniform(1e9, 4e9);
  for (std::size_t e = 0; e < ne; ++e) {
    dmu[e] = (e % 3 == 0) ? 0.0 : -rng.uniform(1e8, 1e9);  // 0: skipped
  }
  const ShModel m(g, mu, 2000.0);
  const std::size_t a = static_cast<std::size_t>(g.node(2, 2));
  const std::size_t b = static_cast<std::size_t>(g.node(3, 2));
  for (int kind = 0; kind < 8; ++kind) {
    std::vector<double> u(nn);
    for (std::size_t i = 0; i < nn; ++i) {
      const double sign = (i % 3 == 0) ? -1.0 : 1.0;
      if (kind == 0) {
        u[i] = sign * 0.0;
      } else if (kind == 1) {
        u[i] = sign * kSub * static_cast<double>(i + 1);
      } else if (kind == 2) {
        u[i] = rng.uniform(-1.0, 1.0) * 1e-305;
      } else {
        u[i] = rng.uniform(-1.0, 1.0);
      }
    }
    if (kind == 3) u[a] = kInf;
    if (kind == 4) u[a] = -kInf;
    if (kind == 5) u[a] = kNaN;
    if (kind == 6) {
      u[a] = kInf;
      u[b] = -kInf;
    }
    if (kind == 7) {
      u[a] = kNaN;
      u[b] = -kInf;
    }
    std::vector<double> y0(nn);
    for (std::size_t i = 0; i < nn; ++i) {
      y0[i] = (i % 4 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
    }
    std::vector<double> y_a = y0, y_b = y0;
    m.apply_k(u, y_a);
    testsupport::sh_apply_k_ref(m, u, y_b);
    EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), nn * sizeof(double)), 0)
        << "apply_k kind=" << kind;
    y_a = y0;
    y_b = y0;
    m.apply_k_delta(dmu, u, y_a);
    testsupport::sh_apply_k_delta_ref(m, dmu, u, y_b);
    EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), nn * sizeof(double)), 0)
        << "apply_k_delta kind=" << kind;
  }
}

TEST(ShModel, MassConserved) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  double total = 0.0;
  for (double v : m.mass()) total += v;
  EXPECT_NEAR(total, 2000.0 * g.width() * g.depth(), 1e-3);
}

TEST(ShModel, FreeSurfaceHasNoDamping) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  // Interior surface nodes (k = 0) must carry no dashpot.
  for (int i = 1; i < g.nx; ++i) {
    EXPECT_DOUBLE_EQ(m.damping()[static_cast<std::size_t>(g.node(i, 0))], 0.0);
  }
  // Bottom nodes do.
  EXPECT_GT(m.damping()[static_cast<std::size_t>(g.node(g.nx / 2, g.nz))], 0.0);
}

TEST(ShModel, ApplyKMatchesDeltaForm) {
  const ShGrid g = grid24();
  const std::size_t ne = static_cast<std::size_t>(g.n_elems());
  util::Rng rng(2);
  std::vector<double> mu(ne);
  for (double& v : mu) v = rng.uniform(1e9, 4e9);
  const ShModel m(g, std::vector<double>(mu), 2000.0);
  std::vector<double> u(static_cast<std::size_t>(g.n_nodes()));
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y1(u.size(), 0.0), y2(u.size(), 0.0);
  m.apply_k(u, y1);
  m.apply_k_delta(mu, u, y2);  // K'(mu applied as direction) == K(mu)
  EXPECT_LT(util::diff_l2(y1, y2), 1e-9 * util::norm_l2(y1));
}

TEST(ShModel, KFormIsBilinearValue) {
  // accumulate_k_form summed against mu equals lambda^T K u.
  const ShGrid g = grid24();
  const std::size_t ne = static_cast<std::size_t>(g.n_elems());
  util::Rng rng(5);
  std::vector<double> mu(ne);
  for (double& v : mu) v = rng.uniform(1e9, 4e9);
  const ShModel m(g, std::vector<double>(mu), 2000.0);
  std::vector<double> u(static_cast<std::size_t>(g.n_nodes())), lam(u.size());
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (double& v : lam) v = rng.uniform(-1.0, 1.0);
  std::vector<double> ge(ne, 0.0), ku(u.size(), 0.0);
  m.accumulate_k_form(lam, u, ge);
  m.apply_k(u, ku);
  double lhs = 0.0;
  for (std::size_t e = 0; e < ne; ++e) lhs += mu[e] * ge[e];
  EXPECT_NEAR(lhs, util::dot(lam, ku), 1e-6 * std::abs(lhs) + 1e-9);
}

TEST(March, EnergyBoundedAndDecays) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  const double dt = m.stable_dt(0.5);
  const int nt = 1200;
  // Point-load burst in the interior.
  const int src_node = g.node(12, 8);
  MarchResult out = time_march(
      m, {dt, nt},
      [&](int k, double, std::span<double> f) {
        if (k < 20) f[static_cast<std::size_t>(src_node)] = 1e9;
      },
      std::vector<int>{g.node(6, 0)}, /*store_history=*/true);
  // Field bounded, and late-time amplitude far below peak (waves absorbed).
  double peak = 0.0;
  for (const auto& u : out.history) peak = std::max(peak, util::norm_max(u));
  EXPECT_GT(peak, 0.0);
  // 2D waves leave slow 1/sqrt(t) coda (no Huygens principle in 2D), so
  // the late field is small but not tiny.
  EXPECT_LT(util::norm_max(out.history.back()), 0.25 * peak);
}

TEST(March, RecordsMatchHistory) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  const double dt = m.stable_dt(0.5);
  const int rx = g.node(5, 0);
  MarchResult out = time_march(
      m, {dt, 100},
      [&](int k, double, std::span<double> f) {
        if (k == 0) f[static_cast<std::size_t>(g.node(12, 8))] = 1e9;
      },
      std::vector<int>{rx}, true);
  for (int k = 0; k < 100; ++k) {
    EXPECT_DOUBLE_EQ(out.records[0][static_cast<std::size_t>(k)],
                     out.history[static_cast<std::size_t>(k)][static_cast<std::size_t>(rx)]);
  }
}

TEST(Stepper, MatchesMarch) {
  const ShGrid g = grid24();
  testsupport::expect_stepper_matches_march(homogeneous(g), g.node(10, 5));
}

TEST(Stepper, RestartFromStoredStateIsExact) {
  const ShGrid g = grid24();
  testsupport::expect_restart_is_exact(homogeneous(g), g.node(10, 5));
}

TEST(Stf, DerivativesMatchFiniteDifferences) {
  const double t0 = 1.3;
  const double eps = 1e-6;
  for (double t : {0.2, 0.55, 0.9, 1.1}) {
    const double fd_t = (ramp_g(t + eps, t0) - ramp_g(t - eps, t0)) / (2 * eps);
    EXPECT_NEAR(ramp_g_dot(t, t0), fd_t, 1e-6);
    const double fd_t0 =
        (ramp_g(t, t0 + eps) - ramp_g(t, t0 - eps)) / (2 * eps);
    EXPECT_NEAR(ramp_g_dt0(t, t0), fd_t0, 1e-6);
  }
}

TEST(Fault, RuptureParamsDelayGrowsFromHypocenter) {
  const ShGrid g = grid24();
  const Fault2d fault{12, 4, 12};
  const auto p = make_rupture_params(g, fault, 1.0, 0.8, 8, 2000.0);
  EXPECT_DOUBLE_EQ(p.T[4], 0.0);  // hypocenter (k = 8 is index 4)
  EXPECT_GT(p.T[0], 0.0);
  EXPECT_GT(p.T[8], 0.0);
  EXPECT_NEAR(p.T[0], 4 * 100.0 / 2000.0, 1e-12);
}

TEST(Fault, ForcesAreEquilibratedCouples) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  const Fault2d fault{12, 4, 12};
  const FaultSource2d src(g, fault);
  const auto p = make_rupture_params(g, fault, 1.5, 0.8, 8, 2000.0);
  std::vector<double> f(static_cast<std::size_t>(g.n_nodes()), 0.0);
  src.add_forces(m, p, 0.6, f);
  double sum = 0.0, amax = 0.0;
  for (double v : f) {
    sum += v;
    amax = std::max(amax, std::abs(v));
  }
  EXPECT_GT(amax, 0.0);
  EXPECT_NEAR(sum, 0.0, 1e-9 * amax);
}

TEST(Fault, DeltaParamsMatchesFiniteDifference) {
  const ShGrid g = grid24();
  const ShModel m = homogeneous(g);
  const Fault2d fault{12, 4, 12};
  const FaultSource2d src(g, fault);
  auto p = make_rupture_params(g, fault, 1.5, 0.8, 8, 2000.0);
  const std::size_t np = p.u0.size();
  const std::size_t nn = static_cast<std::size_t>(g.n_nodes());
  util::Rng rng(7);
  std::vector<double> du0(np), dt0(np), dT(np);
  for (auto* v : {&du0, &dt0, &dT}) {
    for (double& x : *v) x = rng.uniform(-1.0, 1.0);
  }
  const double t = 0.63, eps = 1e-7;
  std::vector<double> f_lin(nn, 0.0);
  src.add_forces_delta_params(m, p, du0, dt0, dT, t, f_lin);

  auto eval = [&](double sgn) {
    SourceParams2d q = p;
    for (std::size_t j = 0; j < np; ++j) {
      q.u0[j] += sgn * eps * du0[j];
      q.t0[j] += sgn * eps * dt0[j];
      q.T[j] += sgn * eps * dT[j];
    }
    std::vector<double> f(nn, 0.0);
    src.add_forces(m, q, t, f);
    return f;
  };
  const auto fp = eval(+1.0), fm = eval(-1.0);
  std::vector<double> fd(nn);
  for (std::size_t i = 0; i < nn; ++i) fd[i] = (fp[i] - fm[i]) / (2 * eps);
  EXPECT_LT(util::diff_l2(f_lin, fd), 1e-4 * (1.0 + util::norm_l2(fd)));
}

TEST(Fault, DeltaMuMatchesFiniteDifference) {
  const ShGrid g = grid24();
  const std::size_t ne = static_cast<std::size_t>(g.n_elems());
  const std::size_t nn = static_cast<std::size_t>(g.n_nodes());
  util::Rng rng(9);
  std::vector<double> mu(ne);
  for (double& v : mu) v = rng.uniform(1e9, 3e9);
  std::vector<double> dmu(ne);
  for (double& v : dmu) v = rng.uniform(-1e8, 1e8);

  const Fault2d fault{12, 4, 12};
  const FaultSource2d src(g, fault);
  SourceParams2d p = make_rupture_params(g, fault, 1.5, 0.8, 8, 2000.0);
  const double t = 0.63, eps = 1e-6;

  const ShModel m0(g, std::vector<double>(mu), 2000.0);
  std::vector<double> f_lin(nn, 0.0);
  src.add_forces_delta_mu(m0, p, dmu, t, f_lin);

  auto eval = [&](double sgn) {
    std::vector<double> mu_p(ne);
    for (std::size_t e = 0; e < ne; ++e) mu_p[e] = mu[e] + sgn * eps * dmu[e];
    const ShModel mm(g, std::move(mu_p), 2000.0);
    std::vector<double> f(nn, 0.0);
    src.add_forces(mm, p, t, f);
    return f;
  };
  const auto fp = eval(+1.0), fm = eval(-1.0);
  std::vector<double> fd(nn);
  for (std::size_t i = 0; i < nn; ++i) fd[i] = (fp[i] - fm[i]) / (2 * eps);
  EXPECT_LT(util::diff_l2(f_lin, fd), 1e-5 * (1.0 + util::norm_l2(fd)));
}

TEST(Fault, RejectsOutOfGridPlacement) {
  const ShGrid g = grid24();
  EXPECT_THROW(FaultSource2d(g, Fault2d{0, 2, 5}), std::invalid_argument);
  EXPECT_THROW(FaultSource2d(g, Fault2d{12, 5, 2}), std::invalid_argument);
}

}  // namespace
