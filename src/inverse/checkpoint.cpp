#include "quake/inverse/checkpoint.hpp"

#include <cmath>
#include <stdexcept>

#include "quake/wave2d/march.hpp"

namespace quake::inverse {

void accumulate_material_step(const wave2d::ShModel& model,
                              const wave2d::FaultSource2d& src,
                              const wave2d::SourceParams2d& p, int k, double dt,
                              std::span<const double> lambda,
                              const std::vector<double>* u_k,
                              const std::vector<double>* u_kp1,
                              const std::vector<double>* u_km1,
                              std::span<double> ge) {
  const std::size_t n = lambda.size();
  std::vector<double> scaled(n), diff(n);
  accumulate_kc_step(model, dt, lambda, u_k, u_kp1, u_km1, ge, scaled, diff);
  // -dt^2 * lambda^T df^k/dmu_e.
  const double dt2 = dt * dt;
  for (std::size_t i = 0; i < n; ++i) scaled[i] = -dt2 * lambda[i];
  src.accumulate_material_form(model, p, k * dt, scaled, ge);
}

CheckpointStats checkpointed_material_gradient(
    const InversionProblem& prob, const wave2d::ShModel& model,
    const wave2d::SourceParams2d& p, const Records& residuals, int stride,
    std::span<double> ge) {
  const auto& setup = prob.setup();
  const int nt = setup.nt;
  const double dt = setup.dt;
  if (stride <= 0) {
    stride = std::max(1, static_cast<int>(std::lround(std::sqrt(nt))));
  }
  const wave2d::FaultSource2d& src = prob.source_op();
  CheckpointStats stats;

  const wave2d::RhsFn fwd_rhs = [&](int, double t, std::span<double> f) {
    src.add_forces(model, p, t, f);
  };

  // Forward sweep: store (u^c, u^{c-1}) at every segment start.
  std::vector<std::pair<std::vector<double>, std::vector<double>>> cps;
  cps.reserve(static_cast<std::size_t>(nt / stride + 1));
  {
    wave2d::ShStepper fwd(model, dt);
    for (int k = 0; k < nt; ++k) {
      if (k % stride == 0) {
        cps.emplace_back(fwd.u(), fwd.u_prev());
        ++stats.checkpoints_stored;
      }
      fwd.step(k, fwd_rhs);
    }
  }

  // Adjoint sweep with segment recomputation.
  const wave2d::RhsFn adj_rhs =
      adjoint_forcing(setup.receiver_nodes, residuals, nt, dt);

  wave2d::ShStepper adj(model, dt);
  wave2d::ShStepper recompute(model, dt);
  std::vector<std::vector<double>> seg;  // seg[j] = u^{c+j}
  std::vector<double> u_cm1;             // u^{c-1}
  int c = -1;

  auto load_segment = [&](int c_new) {
    c = c_new;
    const auto& cp = cps[static_cast<std::size_t>(c / stride)];
    recompute.set_state(cp.first, cp.second);
    u_cm1 = cp.second;
    const int seg_end = std::min(c + stride, nt);
    seg.assign(static_cast<std::size_t>(seg_end - c + 1), {});
    seg[0] = cp.first;  // u^c
    for (int k = c; k < seg_end; ++k) {
      recompute.step(k, fwd_rhs);
      seg[static_cast<std::size_t>(k - c + 1)] = recompute.u();
      ++stats.states_recomputed;
    }
    stats.peak_states_held =
        std::max(stats.peak_states_held, seg.size() + cps.size() * 2 + 1);
  };

  for (int tau = 0; tau < nt; ++tau) {
    adj.step(tau, adj_rhs);  // adj.u() = nu^{tau+1} = lambda^{k+1}
    const int k = nt - 1 - tau;
    if (c < 0 || k < c) load_segment((k / stride) * stride);
    const std::vector<double>* u_k =
        k == 0 ? nullptr : &seg[static_cast<std::size_t>(k - c)];
    const std::vector<double>* u_kp1 = &seg[static_cast<std::size_t>(k + 1 - c)];
    const std::vector<double>* u_km1 = nullptr;
    if (k >= 1) {
      u_km1 = (k - 1 >= c) ? &seg[static_cast<std::size_t>(k - 1 - c)] : &u_cm1;
    }
    accumulate_material_step(model, src, p, k, dt, adj.u(), u_k, u_kp1, u_km1,
                             ge);
  }
  return stats;
}

}  // namespace quake::inverse
