#include "quake/wave2d/sh_model.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "quake/util/vec2.hpp"

namespace quake::wave2d {

const std::array<double, 16>& quad_laplacian_reference() {
  static const std::array<double, 16> k = [] {
    std::array<double, 16> m{};
    const double gp[2] = {0.5 - 0.5 / std::sqrt(3.0),
                          0.5 + 0.5 / std::sqrt(3.0)};
    for (double x : gp) {
      for (double z : gp) {
        double dx[4], dz[4];
        for (int f = 0; f < 4; ++f) {
          const double fx = (f & 1) ? x : 1.0 - x;
          const double fz = (f & 2) ? z : 1.0 - z;
          const double sx = (f & 1) ? 1.0 : -1.0;
          const double sz = (f & 2) ? 1.0 : -1.0;
          dx[f] = sx * fz;
          dz[f] = fx * sz;
        }
        for (int i = 0; i < 4; ++i) {
          for (int j = 0; j < 4; ++j) {
            m[static_cast<std::size_t>(i * 4 + j)] +=
                0.25 * (dx[i] * dx[j] + dz[i] * dz[j]);
          }
        }
      }
    }
    return m;
  }();
  return k;
}

namespace {

// y[conn[r]] += scale * (K_ref u_e)[r] for one quad in the row-pair form of
// fem::hex_scalar_apply: row c of the exactly symmetric reference stands in
// for column c, and each lane takes the row loop's operation sequence
// (entry first in each product, +0.0 start, ascending c, y += scale * s).
// Inline: out of line, GCC called one clone per element, slower than the
// row loop this replaced.
inline void quad_apply(const std::array<double, 16>& kr, const int conn[4],
                       std::span<const double> u, double scale,
                       std::span<double> y) {
  util::Vec2 s[2] = {util::Vec2{0.0, 0.0}, util::Vec2{0.0, 0.0}};
  for (int c = 0; c < 4; ++c) {
    const double uv = u[static_cast<std::size_t>(conn[c])];
    const util::Vec2 uc = {uv, uv};
    const double* kc = &kr[static_cast<std::size_t>(c) * 4];
    s[0] += util::load2(kc) * uc;
    s[1] += util::load2(kc + 2) * uc;
  }
  const util::Vec2 sc = {scale, scale};
  for (int j = 0; j < 2; ++j) {
    const util::Vec2 v = sc * s[j];
    y[static_cast<std::size_t>(conn[2 * j])] += v[0];
    y[static_cast<std::size_t>(conn[2 * j + 1])] += v[1];
  }
}

}  // namespace

ShModel::ShModel(const ShGrid& grid, std::vector<double> mu, double rho)
    : grid_(grid), mu_(std::move(mu)), rho_(rho) {
  grid_.validate();
  if (mu_.size() != static_cast<std::size_t>(grid_.n_elems())) {
    throw std::invalid_argument("ShModel: mu size mismatch");
  }
  if (!(rho_ > 0.0)) throw std::invalid_argument("ShModel: rho > 0 required");
  for (double m : mu_) {
    if (!(m > 0.0)) throw std::invalid_argument("ShModel: mu > 0 required");
  }

  // Lumped mass: rho h^2 / 4 per element node.
  mass_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  const double mnode = rho_ * grid_.h * grid_.h / 4.0;
  int conn[4];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    for (int i = 0; i < 4; ++i) {
      mass_[static_cast<std::size_t>(conn[i])] += mnode;
    }
  }

  // Absorbing boundary edges: x = 0, x = Lx, z = Lz (bottom). The surface
  // row (k = 0, z = 0) is traction-free. Each stores its dashpot's
  // derivative, dC/dmu_e = (h/2) * d(sqrt(rho mu_e))/dmu_e =
  // (h/4) sqrt(rho/mu_e) per endpoint, fixed with mu.
  auto add_edge = [&](int a, int b, int e) {
    edges_.push_back(
        {a, b, e,
         grid_.h / 4.0 * std::sqrt(rho_ / mu_[static_cast<std::size_t>(e)])});
  };
  for (int k = 0; k < grid_.nz; ++k) {
    add_edge(grid_.node(0, k), grid_.node(0, k + 1), grid_.elem(0, k));
    add_edge(grid_.node(grid_.nx, k), grid_.node(grid_.nx, k + 1),
             grid_.elem(grid_.nx - 1, k));
  }
  for (int i = 0; i < grid_.nx; ++i) {
    add_edge(grid_.node(i, grid_.nz), grid_.node(i + 1, grid_.nz),
             grid_.elem(i, grid_.nz - 1));
  }

  damping_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  for (const BoundaryEdge& ed : edges_) {
    const double c =
        std::sqrt(rho_ * mu_[static_cast<std::size_t>(ed.elem)]) * grid_.h / 2.0;
    damping_[static_cast<std::size_t>(ed.node_a)] += c;
    damping_[static_cast<std::size_t>(ed.node_b)] += c;
  }
}

void ShModel::apply_k(std::span<const double> u, std::span<double> y) const {
  const auto& kr = quad_laplacian_reference();
  int conn[4];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    quad_apply(kr, conn, u, mu_[static_cast<std::size_t>(e)], y);
  }
}

void ShModel::apply_k_delta(std::span<const double> dmu,
                            std::span<const double> u,
                            std::span<double> y) const {
  const auto& kr = quad_laplacian_reference();
  int conn[4];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    const double d = dmu[static_cast<std::size_t>(e)];
    if (d == 0.0) continue;
    grid_.elem_nodes(e, conn);
    quad_apply(kr, conn, u, d, y);
  }
}

void ShModel::apply_c_delta(std::span<const double> dmu,
                            std::span<const double> v,
                            std::span<double> y) const {
  for (const BoundaryEdge& ed : edges_) {
    const double d = dmu[static_cast<std::size_t>(ed.elem)];
    if (d == 0.0) continue;
    const double dc = ed.dc_dmu * d;
    y[static_cast<std::size_t>(ed.node_a)] +=
        dc * v[static_cast<std::size_t>(ed.node_a)];
    y[static_cast<std::size_t>(ed.node_b)] +=
        dc * v[static_cast<std::size_t>(ed.node_b)];
  }
}

void ShModel::accumulate_k_form(std::span<const double> lambda,
                                std::span<const double> u,
                                std::span<double> ge) const {
  const auto& kr = quad_laplacian_reference();
  int conn[4];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    double ue[4], le[4];
    for (int i = 0; i < 4; ++i) {
      ue[i] = u[static_cast<std::size_t>(conn[i])];
      le[i] = lambda[static_cast<std::size_t>(conn[i])];
    }
    double s = 0.0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        s += le[i] * kr[static_cast<std::size_t>(i * 4 + j)] * ue[j];
      }
    }
    ge[static_cast<std::size_t>(e)] += s;
  }
}

void ShModel::accumulate_c_form(std::span<const double> lambda,
                                std::span<const double> v,
                                std::span<double> ge) const {
  for (const BoundaryEdge& ed : edges_) {
    ge[static_cast<std::size_t>(ed.elem)] +=
        ed.dc_dmu * (lambda[static_cast<std::size_t>(ed.node_a)] *
                         v[static_cast<std::size_t>(ed.node_a)] +
                     lambda[static_cast<std::size_t>(ed.node_b)] *
                         v[static_cast<std::size_t>(ed.node_b)]);
  }
}

double ShModel::stable_dt(double cfl_fraction) const {
  double mu_max = 0.0;
  for (double m : mu_) mu_max = std::max(mu_max, m);
  const double vs_max = std::sqrt(mu_max / rho_);
  return cfl_fraction * grid_.h / vs_max;
}

}  // namespace quake::wave2d
