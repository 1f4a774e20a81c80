#include "quake/inverse/problem.hpp"

#include "quake/inverse/checkpoint.hpp"

#include <cmath>
#include <stdexcept>

namespace quake::inverse {

InversionProblem::InversionProblem(InversionSetup setup)
    : setup_(std::move(setup)), src_(setup_.grid, setup_.fault) {
  setup_.grid.validate();
  if (!(setup_.dt > 0.0) || setup_.nt < 1) {
    throw std::invalid_argument("InversionProblem: bad dt/nt");
  }
  if (!setup_.observations.empty() &&
      setup_.observations.size() != setup_.receiver_nodes.size()) {
    throw std::invalid_argument("InversionProblem: observations mismatch");
  }
}

ForwardOut InversionProblem::forward(const wave2d::ShModel& model,
                                    const wave2d::SourceParams2d& p,
                                    bool store_history) const {
  ForwardOut out;
  out.march = time_march(
      model, {setup_.dt, setup_.nt},
      [&](int, double t, std::span<double> f) { src_.add_forces(model, p, t, f); },
      setup_.receiver_nodes, store_history);
  fill_residuals(out, setup_.observations, setup_.dt);
  return out;
}

History InversionProblem::adjoint(const wave2d::ShModel& model,
                                  const Records& driver) const {
  return adjoint_march(model, setup_.receiver_nodes, driver, setup_.dt,
                       setup_.nt);
}

void InversionProblem::assemble_material_gradient(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, const History& nu, std::span<double> ge) const {
  const int nt = setup_.nt;
  for (int k = 0; k < nt; ++k) {
    // lambda^{k+1} = nu^{nt-k} = nu-history[nt-k-1].
    const std::vector<double>& lambda = nu[static_cast<std::size_t>(nt - k - 1)];
    accumulate_material_step(model, src_, p, k, setup_.dt, lambda,
                             state_at(u, k), state_at(u, k + 1),
                             state_at(u, k - 1), ge);
  }
}

Records InversionProblem::incremental_forward_material(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, std::span<const double> dmu) const {
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> diff(n), tmp(n);
  return time_march(
             model, {setup_.dt, setup_.nt},
             [&](int k, double t, std::span<double> f) {
               src_.add_forces_delta_mu(model, p, dmu, t, f);
               subtract_tangent_forces(model, u, k, setup_.dt, dmu, f, diff,
                                       tmp);
             },
             setup_.receiver_nodes, /*store_history=*/false)
      .records;
}

void InversionProblem::gauss_newton_material(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& u, std::span<const double> dmu,
    std::span<double> h_dmu) const {
  const Records du = incremental_forward_material(model, p, u, dmu);
  const History nu = adjoint(model, du);
  assemble_material_gradient(model, p, u, nu, h_dmu);
}

void InversionProblem::assemble_source_gradient(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    const History& nu, std::span<double> g_u0, std::span<double> g_t0,
    std::span<double> g_T) const {
  const int nt = setup_.nt;
  const double dt = setup_.dt;
  const double dt2 = dt * dt;
  const std::size_t n = static_cast<std::size_t>(setup_.grid.n_nodes());
  std::vector<double> neg_lambda(n);
  for (int k = 0; k < nt; ++k) {
    const std::vector<double>& lambda = nu[static_cast<std::size_t>(nt - k - 1)];
    for (std::size_t i = 0; i < n; ++i) neg_lambda[i] = -dt2 * lambda[i];
    src_.accumulate_param_forms(model, p, k * dt, neg_lambda, g_u0, g_t0, g_T);
  }
}

Records InversionProblem::incremental_forward_source(
    const wave2d::ShModel& model, const wave2d::SourceParams2d& p,
    std::span<const double> du0, std::span<const double> dt0,
    std::span<const double> dT) const {
  return time_march(
             model, {setup_.dt, setup_.nt},
             [&](int, double t, std::span<double> f) {
               src_.add_forces_delta_params(model, p, du0, dt0, dT, t, f);
             },
             setup_.receiver_nodes, /*store_history=*/false)
      .records;
}

void InversionProblem::gauss_newton_source(const wave2d::ShModel& model,
                                           const wave2d::SourceParams2d& p,
                                           std::span<const double> d_stacked,
                                           std::span<double> h_stacked) const {
  const std::size_t np = p.u0.size();
  const Records du = incremental_forward_source(
      model, p, d_stacked.subspan(0, np), d_stacked.subspan(np, np),
      d_stacked.subspan(2 * np, np));
  const History nu = adjoint(model, du);
  assemble_source_gradient(model, p, nu, h_stacked.subspan(0, np),
                           h_stacked.subspan(np, np),
                           h_stacked.subspan(2 * np, np));
}

}  // namespace quake::inverse
