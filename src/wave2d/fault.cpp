#include "quake/wave2d/fault.hpp"

#include <cmath>
#include <stdexcept>

#include "quake/wave2d/stf.hpp"

namespace quake::wave2d {

SourceParams2d make_rupture_params(const ShGrid& grid, const Fault2d& fault,
                                   double u0, double t0, int hypo_k,
                                   double rupture_velocity) {
  const int n = fault.n_points();
  SourceParams2d p;
  p.u0.assign(static_cast<std::size_t>(n), u0);
  p.t0.assign(static_cast<std::size_t>(n), t0);
  p.T.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double dist = std::abs(fault.k_top + j - hypo_k) * grid.h;
    p.T[static_cast<std::size_t>(j)] = dist / rupture_velocity;
  }
  return p;
}

FaultSource2d::FaultSource2d(const ShGrid& grid, const Fault2d& fault)
    : grid_(grid), fault_(fault) {
  if (fault.i < 1 || fault.i >= grid.nx || fault.k_top < 0 ||
      fault.k_bot > grid.nz || fault.k_top > fault.k_bot) {
    throw std::invalid_argument("FaultSource2d: fault outside grid");
  }
  const int n = fault.n_points();
  points_.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const int k = fault.k_top + j;
    Point pt;
    pt.node_plus = grid.node(fault.i + 1, k);
    pt.node_minus = grid.node(fault.i - 1, k);
    pt.length = (j == 0 || j == n - 1) ? grid.h / 2.0 : grid.h;
    for (int di = -1; di <= 0; ++di) {
      for (int dk = -1; dk <= 0; ++dk) {
        const int ei = fault.i + di;
        const int ek = k + dk;
        if (ei >= 0 && ei < grid.nx && ek >= 0 && ek < grid.nz) {
          pt.adj_elems.push_back(grid.elem(ei, ek));
        }
      }
    }
    points_.push_back(std::move(pt));
  }
}

double FaultSource2d::mu_bar(const ShModel& model, std::size_t j) const {
  const Point& pt = points_[j];
  double s = 0.0;
  for (int e : pt.adj_elems) s += model.mu()[static_cast<std::size_t>(e)];
  return s / static_cast<double>(pt.adj_elems.size());
}

void FaultSource2d::add_forces(const ShModel& model, const SourceParams2d& p,
                               double t, std::span<double> f) const {
  for (std::size_t j = 0; j < points_.size(); ++j) {
    const double g = ramp_g(t - p.T[j], p.t0[j]);
    if (g == 0.0) continue;
    const double s =
        points_[j].length * mu_bar(model, j) * p.u0[j] * g / grid_.h;
    f[static_cast<std::size_t>(points_[j].node_plus)] += s;
    f[static_cast<std::size_t>(points_[j].node_minus)] -= s;
  }
}

// b is linear in mu, so its derivative does not depend on the model.
void FaultSource2d::add_forces_delta_mu(const ShModel& /*model*/,
                                        const SourceParams2d& p,
                                        std::span<const double> dmu, double t,
                                        std::span<double> f) const {
  for (std::size_t j = 0; j < points_.size(); ++j) {
    const double g = ramp_g(t - p.T[j], p.t0[j]);
    if (g == 0.0) continue;
    const Point& pt = points_[j];
    double dmu_bar = 0.0;
    for (int e : pt.adj_elems) dmu_bar += dmu[static_cast<std::size_t>(e)];
    dmu_bar /= static_cast<double>(pt.adj_elems.size());
    const double s = pt.length * dmu_bar * p.u0[j] * g / grid_.h;
    f[static_cast<std::size_t>(pt.node_plus)] += s;
    f[static_cast<std::size_t>(pt.node_minus)] -= s;
  }
}

void FaultSource2d::add_forces_delta_params(
    const ShModel& model, const SourceParams2d& p, std::span<const double> du0,
    std::span<const double> dt0, std::span<const double> dT, double t,
    std::span<double> f) const {
  for (std::size_t j = 0; j < points_.size(); ++j) {
    const Point& pt = points_[j];
    const double mu = mu_bar(model, j);
    const double s = t - p.T[j];
    double dstrength = 0.0;
    if (!du0.empty()) dstrength += du0[j] * ramp_g(s, p.t0[j]);
    if (!dt0.empty()) dstrength += p.u0[j] * ramp_g_dt0(s, p.t0[j]) * dt0[j];
    if (!dT.empty()) dstrength -= p.u0[j] * ramp_g_dot(s, p.t0[j]) * dT[j];
    if (dstrength == 0.0) continue;
    const double v = pt.length * mu * dstrength / grid_.h;
    f[static_cast<std::size_t>(pt.node_plus)] += v;
    f[static_cast<std::size_t>(pt.node_minus)] -= v;
  }
}

void FaultSource2d::accumulate_material_form(const ShModel& model,
                                             const SourceParams2d& p, double t,
                                             std::span<const double> lambda,
                                             std::span<double> ge) const {
  (void)model;
  for (std::size_t j = 0; j < points_.size(); ++j) {
    const double g = ramp_g(t - p.T[j], p.t0[j]);
    if (g == 0.0) continue;
    const Point& pt = points_[j];
    const double ldiff = lambda[static_cast<std::size_t>(pt.node_plus)] -
                         lambda[static_cast<std::size_t>(pt.node_minus)];
    const double base = pt.length * p.u0[j] * g / grid_.h * ldiff /
                        static_cast<double>(pt.adj_elems.size());
    for (int e : pt.adj_elems) ge[static_cast<std::size_t>(e)] += base;
  }
}

void FaultSource2d::accumulate_param_forms(const ShModel& model,
                                           const SourceParams2d& p, double t,
                                           std::span<const double> lambda,
                                           std::span<double> g_u0,
                                           std::span<double> g_t0,
                                           std::span<double> g_T) const {
  for (std::size_t j = 0; j < points_.size(); ++j) {
    const Point& pt = points_[j];
    const double mu = mu_bar(model, j);
    const double ldiff = lambda[static_cast<std::size_t>(pt.node_plus)] -
                         lambda[static_cast<std::size_t>(pt.node_minus)];
    const double base = pt.length * mu / grid_.h * ldiff;
    const double s = t - p.T[j];
    if (!g_u0.empty()) g_u0[j] += base * ramp_g(s, p.t0[j]);
    if (!g_t0.empty()) g_t0[j] += base * p.u0[j] * ramp_g_dt0(s, p.t0[j]);
    if (!g_T.empty()) g_T[j] -= base * p.u0[j] * ramp_g_dot(s, p.t0[j]);
  }
}

}  // namespace quake::wave2d
