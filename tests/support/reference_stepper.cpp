#include "reference_stepper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "quake/par/partition.hpp"

namespace quake::testsupport {
namespace {

using solver::ElasticOperator;
using solver::SourceModel;

// Source forces at time t, projected (B^T).
void forces(const ElasticOperator& op,
            std::span<const SourceModel* const> sources, double t,
            std::vector<double>& f) {
  std::fill(f.begin(), f.end(), 0.0);
  for (const SourceModel* s : sources) s->add_forces(t, f);
  op.accumulate_constraints(f);
}

// The second-order start of par::RunControl: u = B u0 and, per dof at its
// own step dt_n, u_prev = u - dt_n v0 + dt_n^2 / 2 a0 with
// a0 = M^{-1} (f(0) - K u), expanded. Quiescent when both fields are empty.
void start(const ElasticOperator& op,
           std::span<const SourceModel* const> sources,
           std::span<const double> u0, std::span<const double> v0,
           const std::vector<double>& dtn, std::vector<double>& u,
           std::vector<double>& u_prev) {
  if (u0.empty() && v0.empty()) return;
  const std::size_t nd = op.n_dofs();
  std::copy(u0.begin(), u0.end(), u.begin());
  op.expand_constraints(u);
  std::vector<double> ku(nd, 0.0), f(nd, 0.0);
  op.apply_stiffness(u, ku, {});
  op.accumulate_constraints(ku);
  forces(op, sources, 0.0, f);
  const auto mass = op.lumped_mass();
  for (std::size_t d = 0; d < nd; ++d) {
    const double a0 = mass[d] > 0.0 ? (f[d] - ku[d]) / mass[d] : 0.0;
    const double v = v0.empty() ? 0.0 : v0[d];
    u_prev[d] = u[d] - dtn[d] * v + 0.5 * dtn[d] * dtn[d] * a0;
  }
  op.expand_constraints(u_prev);
}

// u_hanging = sum_m w_m u_master for one constraint group.
void expand_one(const mesh::Constraint& c, std::vector<double>& u) {
  for (std::size_t comp = 0; comp < 3; ++comp) {
    double v = 0.0;
    for (int m = 0; m < c.n_masters; ++m) {
      v += c.weights[static_cast<std::size_t>(m)] *
           u[3 * static_cast<std::size_t>(
                     c.masters[static_cast<std::size_t>(m)]) +
             comp];
    }
    u[3 * static_cast<std::size_t>(c.node) + comp] = v;
  }
}

void mask(const std::array<bool, 3>& fixed, std::size_t node,
          std::vector<double>& u) {
  for (std::size_t c = 0; c < 3; ++c) {
    if (fixed[c]) u[3 * node + c] = 0.0;
  }
}

// An empty result on the time axis (dt, ceil(t_end / dt) steps); fills
// rx_nodes with the receivers' nearest nodes.
Reference new_reference(const ElasticOperator& op,
                        const solver::SolverOptions& so, double dt,
                        std::span<const std::array<double, 3>> receivers,
                        std::vector<mesh::NodeId>& rx_nodes) {
  Reference out;
  out.dt = dt;
  out.n_steps = static_cast<int>(std::ceil(so.t_end / dt));
  out.receivers.resize(receivers.size());
  for (const auto& p : receivers) {
    rx_nodes.push_back(solver::nearest_node(op.mesh(), p));
  }
  return out;
}

}  // namespace

Reference reference_global(const ElasticOperator& op,
                           const solver::SolverOptions& so,
                           std::span<const SourceModel* const> sources,
                           std::span<const std::array<double, 3>> receivers,
                           std::span<const double> u0,
                           std::span<const double> v0) {
  std::vector<mesh::NodeId> rx;
  Reference out = new_reference(
      op, so, so.dt > 0.0 ? so.dt : op.stable_dt(so.cfl_fraction), receivers,
      rx);
  const double dt = out.dt;
  const std::size_t nd = op.n_dofs();
  const auto mass = op.lumped_mass();
  const auto am = op.alpha_mass();
  const auto bk = op.beta_k_diag();
  const auto cab = op.cab_diag();
  const bool rayleigh = op.options().rayleigh;

  // Diagonal left-hand side of eq. 2.4:
  // (1 + alpha dt/2) M + (beta dt/2) K_diag + (dt/2) C^AB_diag.
  std::vector<double> inv_lhs(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const double lhs = mass[d] + 0.5 * dt * (am[d] + bk[d] + cab[d]);
    inv_lhs[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;
  }
  std::vector<double> u(nd, 0.0), u_prev(nd, 0.0), u_next(nd, 0.0);
  std::vector<double> f(nd, 0.0), ku(nd, 0.0), dku(nd, 0.0), dku_prev(nd, 0.0);
  start(op, sources, u0, v0, std::vector<double>(nd, dt), u, u_prev);

  const double dt2 = dt * dt;
  const double hdt = 0.5 * dt;
  for (int k = 0; k < out.n_steps; ++k) {
    forces(op, sources, k * dt, f);
    std::fill(ku.begin(), ku.end(), 0.0);
    std::fill(dku.begin(), dku.end(), 0.0);
    op.apply_stiffness(u, ku, rayleigh ? std::span<double>(dku)
                                       : std::span<double>());
    op.accumulate_constraints(ku);
    if (rayleigh) op.accumulate_constraints(dku);
    for (std::size_t d = 0; d < nd; ++d) {
      // u^k coefficient 2M - dt^2 (K + K^AB) - (beta dt/2) K_off, u^{k-1}
      // coefficient (alpha dt/2 - 1) M + (beta dt/2) K + (dt/2) C^AB.
      double rhs = 2.0 * mass[d] * u[d] - dt2 * ku[d] + dt2 * f[d] +
                   (hdt * am[d] - mass[d]) * u_prev[d] +
                   hdt * cab[d] * u_prev[d];
      if (rayleigh) {
        rhs -= hdt * (dku[d] - bk[d] * u[d]);
        rhs += hdt * dku_prev[d];
      }
      u_next[d] = rhs * inv_lhs[d];
    }
    op.expand_constraints(u_next);
    for (std::size_t n = 0; n < nd / 3; ++n) mask(so.fixed_components, n, u_next);
    std::swap(dku_prev, dku);
    std::swap(u_prev, u);
    std::swap(u, u_next);
    for (std::size_t r = 0; r < rx.size(); ++r) {
      const std::size_t b = 3 * static_cast<std::size_t>(rx[r]);
      out.receivers[r].push_back({u[b], u[b + 1], u[b + 2]});
    }
  }
  out.u_final = std::move(u);
  return out;
}

Reference reference_lts(const ElasticOperator& op,
                        const solver::SolverOptions& so,
                        const lts::Clustering& cl,
                        std::span<const SourceModel* const> sources,
                        std::span<const std::array<double, 3>> receivers,
                        std::span<const double> u0,
                        std::span<const double> v0) {
  std::vector<mesh::NodeId> rx;
  Reference out = new_reference(op, so, cl.base_dt, receivers, rx);
  const double dt = out.dt;
  const mesh::HexMesh& mesh = op.mesh();
  const auto nc = static_cast<std::size_t>(cl.n_classes);

  // Per-class element / face lists and per-rate node / constraint lists,
  // ascending, so one class reproduces the global sweep order.
  std::vector<std::vector<mesh::ElemId>> elems(nc);
  std::vector<std::vector<std::int32_t>> faces(nc);
  std::vector<std::vector<std::size_t>> nodes(nc), cons(nc);
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    elems[cl.elem_class_log2[e]].push_back(static_cast<mesh::ElemId>(e));
  }
  for (std::size_t fi = 0; fi < mesh.boundary_faces.size(); ++fi) {
    faces[cl.elem_class_log2[static_cast<std::size_t>(
              mesh.boundary_faces[fi].elem)]]
        .push_back(static_cast<std::int32_t>(fi));
  }
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    nodes[cl.node_rate_log2[n]].push_back(n);
  }
  for (std::size_t ci = 0; ci < mesh.constraints.size(); ++ci) {
    cons[cl.node_rate_log2[static_cast<std::size_t>(
             mesh.constraints[ci].node)]]
        .push_back(ci);
  }

  // Per-dof coefficients at the node's own step dt_n = 2^rate dt.
  const std::size_t nd = op.n_dofs();
  const auto mass = op.lumped_mass();
  const auto am = op.alpha_mass();
  const auto bk = op.beta_k_diag();
  const auto cab = op.cab_diag();
  std::vector<double> dtn(nd), inv_lhs(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    dtn[d] = std::ldexp(dt, cl.node_rate_log2[d / 3]);
    const double lhs = mass[d] + 0.5 * dtn[d] * (am[d] + bk[d] + cab[d]);
    inv_lhs[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;
  }
  std::vector<double> u(nd, 0.0), u_prev(nd, 0.0), un(nd, 0.0);
  std::vector<double> f(nd, 0.0), ku(nd, 0.0);
  start(op, sources, u0, v0, dtn, u, u_prev);

  // Node n's bracket (u_prev, u) at fine step k: u itself when its rate
  // divides k, else the linear interpolant.
  const auto at = [&](std::size_t n, int k, std::size_t c) {
    const int p = 1 << cl.node_rate_log2[n];
    const int m = k & (p - 1);
    const std::size_t d = 3 * n + c;
    if (m == 0) return u[d];
    const double th = static_cast<double>(m) / static_cast<double>(p);
    return u_prev[d] + th * (u[d] - u_prev[d]);
  };

  const auto substep = [&](int k) {
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      for (std::size_t c = 0; c < 3; ++c) un[3 * n + c] = at(n, k, c);
    }
    forces(op, sources, k * dt, f);
    std::fill(ku.begin(), ku.end(), 0.0);
    for (std::size_t c = 0; c < nc; ++c) {
      if (lts::Clustering::class_active(static_cast<int>(c), k)) {
        op.apply_stiffness_subset(elems[c], faces[c], un, ku, {});
      }
    }
    op.accumulate_constraints(ku);
    for (std::size_t lg = 0; lg < nc; ++lg) {
      if (!lts::Clustering::class_active(static_cast<int>(lg), k)) continue;
      for (const std::size_t n : nodes[lg]) {
        for (std::size_t d = 3 * n; d < 3 * n + 3; ++d) {
          const double dt2n = dtn[d] * dtn[d];
          const double hdtn = 0.5 * dtn[d];
          const double rhs = 2.0 * mass[d] * u[d] - dt2n * ku[d] +
                             dt2n * f[d] + (hdtn * am[d] - mass[d]) * u_prev[d] +
                             hdtn * cab[d] * u_prev[d];
          u_prev[d] = u[d];
          u[d] = rhs * inv_lhs[d];
        }
      }
      for (const std::size_t ci : cons[lg]) expand_one(mesh.constraints[ci], u);
      for (const std::size_t n : nodes[lg]) mask(so.fixed_components, n, u);
    }
    for (std::size_t r = 0; r < rx.size(); ++r) {
      const auto n = static_cast<std::size_t>(rx[r]);
      out.receivers[r].push_back({at(n, k + 1, 0), at(n, k + 1, 1),
                                  at(n, k + 1, 2)});
    }
  };
  // The recursive two-level schedule: a level-l window is two level-(l-1)
  // half-windows; level 0 is one fine step.
  const auto window = [&](const auto& self, int level, int k0) -> void {
    if (k0 >= out.n_steps) return;  // ragged tail of the last window
    if (level == 0) {
      substep(k0);
      return;
    }
    self(self, level - 1, k0);
    self(self, level - 1, k0 + (1 << (level - 1)));
  };
  for (int k0 = 0; k0 < out.n_steps; k0 += 1 << (cl.n_classes - 1)) {
    window(window, cl.n_classes - 1, k0);
  }
  out.u_final.resize(nd);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    for (std::size_t c = 0; c < 3; ++c) {
      out.u_final[3 * n + c] = at(n, out.n_steps, c);
    }
  }
  return out;
}

double energy(const ElasticOperator& op, std::span<const double> u,
              std::span<const double> v, double dt) {
  // The staggered strain term u_k^T K u_{k-1} is what makes this
  // invariant; 1/2 u^T K u oscillates at O(dt * omega).
  const std::size_t nd = op.n_dofs();
  const auto mass = op.lumped_mass();
  std::vector<double> u_prev(nd), ku(nd, 0.0);
  double e = 0.0;
  for (std::size_t d = 0; d < nd; ++d) {
    e += 0.5 * mass[d] * v[d] * v[d];
    u_prev[d] = u[d] - dt * v[d];
  }
  op.apply_stiffness(u_prev, ku, {});
  for (std::size_t d = 0; d < nd; ++d) e += 0.5 * u[d] * ku[d];
  return e;
}

par::ParallelResult run_one_rank(
    const mesh::HexMesh& mesh, const solver::OperatorOptions& oo,
    const solver::SolverOptions& so,
    std::span<const SourceModel* const> sources,
    std::span<const std::array<double, 3>> receivers,
    const par::RunControl& control) {
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, oo, so);
  return setup.run(so.t_end, sources, receivers, {}, control);
}

std::vector<double> component(const History& h, int comp) {
  std::vector<double> out(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    out[i] = h[i][static_cast<std::size_t>(comp)];
  }
  return out;
}

namespace {

bool same_bits(const std::vector<double>& ua, const std::vector<History>& ha,
               const std::vector<double>& ub, const std::vector<History>& hb) {
  if (ua.size() != ub.size() || ha.size() != hb.size() ||
      std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t r = 0; r < ha.size(); ++r) {
    if (ha[r].size() != hb[r].size() ||
        std::memcmp(ha[r].data(), hb[r].data(),
                    ha[r].size() * sizeof(ha[r][0])) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool same_bits(const Reference& ref, const par::ParallelResult& pr) {
  return same_bits(ref.u_final, ref.receivers, pr.u_final,
                   pr.receiver_histories);
}

bool same_bits(const par::ParallelResult& a, const par::ParallelResult& b) {
  return a.steps_completed == b.steps_completed &&
         a.cancelled == b.cancelled &&
         same_bits(a.u_final, a.receiver_histories, b.u_final,
                   b.receiver_histories);
}

}  // namespace quake::testsupport
