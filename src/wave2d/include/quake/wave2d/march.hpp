#pragma once

// Explicit central-difference time marching for the scalar wave models
// (the antiplane wave2d::ShModel and the 3D wave3d::ScalarModel3d):
//   (M + dt/2 C) u^{k+1} = dt^2 (f^k - K u^k) + 2 M u^k - (M - dt/2 C) u^{k-1}
// from quiescent initial conditions. The same recurrence (with symmetric M,
// C, K) marches the state, the adjoint (in reversed time), and the
// incremental (tangent) equations — only the right-hand side differs, so it
// is supplied as a callback. A model provides grid().n_nodes(), the lumped
// mass() and dashpot damping() diagonals, and apply_k (y += K u).

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "quake/wave2d/sh_model.hpp"

namespace quake::wave2d {

struct MarchOptions {
  double dt = 0.0;
  int nt = 0;
};

// Fills `f` (pre-zeroed) with the force at step k (time t = k * dt).
// For the adjoint march the callback receives the reversed step index.
using RhsFn = std::function<void(int k, double t, std::span<double> f)>;

struct MarchResult {
  // history[k] = u^{k+1} for k = 0..nt-1 (empty unless requested);
  // u^0 = 0 by the quiescent initial condition.
  std::vector<std::vector<double>> history;
  // records[r][k] = u^{k+1} at receiver node r.
  std::vector<std::vector<double>> records;
};

// Single-step driver underlying time_march; exposed for the checkpointed
// adjoint (Griewank), which restarts segments from stored (u, u_prev) pairs.
template <class Model>
class Stepper {
 public:
  Stepper(const Model& model, double dt) : model_(&model), dt_(dt) {
    if (!(dt > 0.0)) throw std::invalid_argument("Stepper: dt > 0 required");
    const std::size_t n = static_cast<std::size_t>(model.grid().n_nodes());
    const auto mass = model.mass();
    const auto damp = model.damping();
    inv_ap_.resize(n);
    am_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      inv_ap_[i] = 1.0 / (mass[i] + 0.5 * dt * damp[i]);
      am_[i] = mass[i] - 0.5 * dt * damp[i];
    }
    u_.assign(n, 0.0);
    u_prev_.assign(n, 0.0);
    u_next_.resize(n);
    f_.resize(n);
    ku_.resize(n);
  }

  // Restores the state (u^k, u^{k-1}); pass empty spans for quiescence.
  void set_state(std::span<const double> u, std::span<const double> u_prev) {
    restore(u_, u);
    restore(u_prev_, u_prev);
  }

  // Advances one step using rhs(k, k*dt, f); afterwards u() is u^{k+1}.
  void step(int k, const RhsFn& rhs) {
    const std::size_t n = u_.size();
    std::fill(f_.begin(), f_.end(), 0.0);
    rhs(k, k * dt_, f_);
    std::fill(ku_.begin(), ku_.end(), 0.0);
    model_->apply_k(u_, ku_);
    const auto mass = model_->mass();
    const double dt2 = dt_ * dt_;
    for (std::size_t i = 0; i < n; ++i) {
      u_next_[i] = (dt2 * (f_[i] - ku_[i]) + 2.0 * mass[i] * u_[i] -
                    am_[i] * u_prev_[i]) *
                   inv_ap_[i];
    }
    std::swap(u_prev_, u_);
    std::swap(u_, u_next_);
  }

  [[nodiscard]] const std::vector<double>& u() const { return u_; }
  [[nodiscard]] const std::vector<double>& u_prev() const { return u_prev_; }

 private:
  static void restore(std::vector<double>& dst, std::span<const double> src) {
    if (src.empty()) {
      std::fill(dst.begin(), dst.end(), 0.0);
    } else {
      dst.assign(src.begin(), src.end());
    }
  }

  const Model* model_;
  double dt_;
  std::vector<double> inv_ap_, am_;
  std::vector<double> u_, u_prev_, u_next_, f_, ku_;
};

using ShStepper = Stepper<ShModel>;

template <class Model>
MarchResult time_march(const Model& model, const MarchOptions& opt,
                       const RhsFn& rhs, std::span<const int> receiver_nodes,
                       bool store_history) {
  if (!(opt.dt > 0.0) || opt.nt < 1) {
    throw std::invalid_argument("time_march: bad dt or nt");
  }
  const int nt = opt.nt;
  Stepper<Model> stepper(model, opt.dt);

  MarchResult out;
  if (store_history) out.history.reserve(static_cast<std::size_t>(nt));
  out.records.assign(receiver_nodes.size(), {});
  for (int k = 0; k < nt; ++k) {
    stepper.step(k, rhs);
    if (store_history) out.history.push_back(stepper.u());
    for (std::size_t r = 0; r < receiver_nodes.size(); ++r) {
      out.records[r].push_back(
          stepper.u()[static_cast<std::size_t>(receiver_nodes[r])]);
    }
  }
  return out;
}

}  // namespace quake::wave2d
