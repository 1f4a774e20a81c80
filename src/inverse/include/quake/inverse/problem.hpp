#pragma once

// The discrete PDE-constrained inverse problem of §3.1: forward antiplane
// wave propagation, the (exactly discrete) adjoint wave equation solved
// backward in time, first-order gradient assembly for the material field
// and the source parameter fields, and the incremental (tangent) solves
// that realize matrix-free Gauss-Newton Hessian-vector products. Every
// derivative here is the exact transpose of the discrete forward recurrence
// — verified against finite differences in the tests. The per-step adjoint,
// tangent and gradient kernels below are templates over the scalar wave
// model: they serve this antiplane problem (wave2d::ShModel) and the 3D
// scalar problem of Table 3.1 (wave3d::ScalarInversion3d) alike.

#include <algorithm>
#include <span>
#include <vector>

#include "quake/wave2d/fault.hpp"
#include "quake/wave2d/march.hpp"
#include "quake/wave2d/sh_model.hpp"

namespace quake::inverse {

using History = std::vector<std::vector<double>>;   // [k][node], u^{k+1}
using Records = std::vector<std::vector<double>>;   // [receiver][k]

// A forward solve of either scalar problem: its march and, when the problem
// has observations, the residuals and misfit.
struct ForwardOut {
  wave2d::MarchResult march;
  Records residuals;  // u_r - d_r per receiver and step
  double misfit = 0.0;  // 1/2 dt sum_k sum_r residual^2
};

// ---- the discrete-adjoint calculus of the scalar wave recurrence. Besides
// what wave2d::time_march needs, a model provides the derivatives in a
// material direction dmu (apply_k_delta, apply_c_delta: y += K'[dmu] u,
// y += C'[dmu] v) and their per-element forms (accumulate_k_form,
// accumulate_c_form: ge[e] += lambda^T K'_e u, lambda^T C'_e v). ----

// u^k from a stored history (history[k] = u^{k+1}); k <= 0 is quiescent.
inline const std::vector<double>* state_at(const History& u, int k) {
  if (k <= 0) return nullptr;
  return &u[static_cast<std::size_t>(k - 1)];
}

// Fills out.residuals and out.misfit from out.march.records; nothing
// without observations.
inline void fill_residuals(ForwardOut& out, const Records& observations,
                           double dt) {
  if (observations.empty()) return;
  const Records& rec = out.march.records;
  out.residuals.resize(rec.size());
  double j = 0.0;
  for (std::size_t r = 0; r < rec.size(); ++r) {
    out.residuals[r].resize(rec[r].size());
    for (std::size_t k = 0; k < rec[r].size(); ++k) {
      const double res = rec[r][k] - observations[r][k];
      out.residuals[r][k] = res;
      j += res * res;
    }
  }
  out.misfit = 0.5 * dt * j;
}

// The adjoint's right-hand side at reversed step tau: f~^tau = -R^{nt-tau}
// / dt, where R^j carries the per-receiver driver at observation index j-1.
inline wave2d::RhsFn adjoint_forcing(std::span<const int> receiver_nodes,
                                     const Records& driver, int nt,
                                     double dt) {
  const double inv_dt = 1.0 / dt;
  return [receiver_nodes, &driver, nt, inv_dt](int tau, double,
                                               std::span<double> f) {
    const int obs = nt - tau - 1;
    for (std::size_t r = 0; r < receiver_nodes.size(); ++r) {
      f[static_cast<std::size_t>(receiver_nodes[r])] -=
          driver[r][static_cast<std::size_t>(obs)] * inv_dt;
    }
  };
}

// Adjoint solve driven by per-receiver time series (residuals for the
// gradient; J*delta records for Gauss-Newton products). Returns the
// adjoint history in *reversed* time: result[tau] = nu^{tau+1},
// i.e. lambda^{k+1} = result[nt - k - 1].
template <class Model>
History adjoint_march(const Model& model, std::span<const int> receiver_nodes,
                      const Records& driver, double dt, int nt) {
  return wave2d::time_march(model, {dt, nt},
                            adjoint_forcing(receiver_nodes, driver, nt, dt),
                            {}, /*store_history=*/true)
      .history;
}

// diff = u^{k+1} - u^{k-1}, a null (quiescent) state reading as zeros.
inline void state_difference(const std::vector<double>* u_kp1,
                             const std::vector<double>* u_km1,
                             std::span<double> diff) {
  for (std::size_t i = 0; i < diff.size(); ++i) {
    diff[i] = (u_kp1 ? (*u_kp1)[i] : 0.0) - (u_km1 ? (*u_km1)[i] : 0.0);
  }
}

// ge += dt^2 lambda^T K'_e u^k + (dt/2) lambda^T C'_e (u^{k+1} - u^{k-1}):
// the stiffness and dashpot terms of step k of dL/dmu, with lambda =
// lambda^{k+1}. Null states are quiescent; `scaled` and `diff` are scratch
// of the node count.
template <class Model>
void accumulate_kc_step(const Model& model, double dt,
                        std::span<const double> lambda,
                        const std::vector<double>* u_k,
                        const std::vector<double>* u_kp1,
                        const std::vector<double>* u_km1, std::span<double> ge,
                        std::span<double> scaled, std::span<double> diff) {
  const std::size_t n = lambda.size();
  const double dt2 = dt * dt;
  if (u_k != nullptr) {
    for (std::size_t i = 0; i < n; ++i) scaled[i] = dt2 * lambda[i];
    model.accumulate_k_form(scaled, *u_k, ge);
  }
  if (u_kp1 != nullptr || u_km1 != nullptr) {
    state_difference(u_kp1, u_km1, diff);
    for (std::size_t i = 0; i < n; ++i) scaled[i] = 0.5 * dt * lambda[i];
    model.accumulate_c_form(scaled, diff, ge);
  }
}

// f -= K'[dmu] u^k + C'[dmu] (u^{k+1} - u^{k-1}) / (2 dt): the material
// terms of step k's tangent (incremental forward) forcing about the state
// history u. `diff` and `tmp` are scratch of the node count.
template <class Model>
void subtract_tangent_forces(const Model& model, const History& u, int k,
                             double dt, std::span<const double> dmu,
                             std::span<double> f, std::span<double> diff,
                             std::span<double> tmp) {
  const std::size_t n = f.size();
  if (const auto* uk = state_at(u, k)) {
    std::fill(tmp.begin(), tmp.end(), 0.0);
    model.apply_k_delta(dmu, *uk, tmp);
    for (std::size_t i = 0; i < n; ++i) f[i] -= tmp[i];
  }
  const auto* up = state_at(u, k + 1);
  const auto* um = state_at(u, k - 1);
  if (up != nullptr || um != nullptr) {
    state_difference(up, um, diff);
    std::fill(tmp.begin(), tmp.end(), 0.0);
    model.apply_c_delta(dmu, diff, tmp);
    const double s = 1.0 / (2.0 * dt);
    for (std::size_t i = 0; i < n; ++i) f[i] -= s * tmp[i];
  }
}

struct InversionSetup {
  wave2d::ShGrid grid;
  double rho = 0.0;
  wave2d::Fault2d fault;
  wave2d::SourceParams2d source;   // true source (material inversion) or
                                   // current iterate (source inversion)
  std::vector<int> receiver_nodes;
  double dt = 0.0;
  int nt = 0;
  Records observations;            // d[r][k], matching receiver order
};

class InversionProblem {
 public:
  explicit InversionProblem(InversionSetup setup);

  [[nodiscard]] const InversionSetup& setup() const { return setup_; }
  [[nodiscard]] const wave2d::FaultSource2d& source_op() const { return src_; }

  // Forward solve for a given material (element mu) and source parameters.
  ForwardOut forward(const wave2d::ShModel& model,
                     const wave2d::SourceParams2d& p, bool store_history) const;

  // adjoint_march on this problem's receivers and time axis.
  History adjoint(const wave2d::ShModel& model,
                  const Records& driver) const;

  // -- material inversion pieces -------------------------------------------

  // ge[e] += dL/dmu_e for the data term, assembled from the forward and
  // adjoint histories (includes the stiffness, absorbing-boundary, and
  // source mu-sensitivity terms of eq. 3.4's discrete analogue).
  void assemble_material_gradient(const wave2d::ShModel& model,
                                  const wave2d::SourceParams2d& p,
                                  const History& u, const History& nu,
                                  std::span<double> ge) const;

  // Records of the incremental forward solve in material direction dmu
  // (the J*dmu needed by the Gauss-Newton product).
  Records incremental_forward_material(const wave2d::ShModel& model,
                                       const wave2d::SourceParams2d& p,
                                       const History& u,
                                       std::span<const double> dmu) const;

  // Full data-term Gauss-Newton product: H dmu (element space). Costs one
  // incremental forward plus one adjoint solve.
  void gauss_newton_material(const wave2d::ShModel& model,
                             const wave2d::SourceParams2d& p, const History& u,
                             std::span<const double> dmu,
                             std::span<double> h_dmu) const;

  // -- source inversion pieces ----------------------------------------------

  // Gradients with respect to the per-fault-node parameter fields.
  void assemble_source_gradient(const wave2d::ShModel& model,
                                const wave2d::SourceParams2d& p,
                                const History& nu, std::span<double> g_u0,
                                std::span<double> g_t0,
                                std::span<double> g_T) const;

  Records incremental_forward_source(const wave2d::ShModel& model,
                                     const wave2d::SourceParams2d& p,
                                     std::span<const double> du0,
                                     std::span<const double> dt0,
                                     std::span<const double> dT) const;

  // Data-term Gauss-Newton product in source-parameter space; the direction
  // and result stack (u0, t0, T) contiguously.
  void gauss_newton_source(const wave2d::ShModel& model,
                           const wave2d::SourceParams2d& p,
                           std::span<const double> d_stacked,
                           std::span<double> h_stacked) const;

 private:
  InversionSetup setup_;
  wave2d::FaultSource2d src_;
};

}  // namespace quake::inverse
