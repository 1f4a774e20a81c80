#include "quake/wave3d/scalar_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "quake/fem/hex_element.hpp"
#include "quake/util/vec2.hpp"

namespace quake::wave3d {

namespace {

using util::load2;
using util::Vec2;

// k_scalar with each entry broadcast to both lanes of an element pair:
// entry c * 8 + r is row c's entry r, node c's weight in row r as
// fem::hex_scalar_apply reads it (row c standing in for column c).
using PairTable = std::array<Vec2, 64>;

const PairTable& pair_table() {
  static const PairTable t = [] {
    const auto& k = fem::HexReference::get().k_scalar;
    PairTable out;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = Vec2{k[i], k[i]};
    return out;
  }();
  return t;
}

// Corner c of an element sits off[c] nodes past its corner-0 node, in the
// tensor order of ScalarGrid3d::elem_nodes. Elements i and i + 1 of an
// x-row have their corner-c values at one address and the next, so one
// load2 gathers corner c of an element pair.
struct Corners {
  std::size_t off[8];
  explicit Corners(const ScalarGrid3d& g) {
    const std::size_t sy = static_cast<std::size_t>(g.nx + 1);
    const std::size_t sz = sy * static_cast<std::size_t>(g.ny + 1);
    for (int c = 0; c < 8; ++c) {
      off[c] = static_cast<std::size_t>(c & 1) +
               static_cast<std::size_t>((c >> 1) & 1) * sy +
               static_cast<std::size_t>((c >> 2) & 1) * sz;
    }
  }
  void gather(const double* v, Vec2 out[8]) const {
    for (int c = 0; c < 8; ++c) out[c] = load2(v + off[c]);
  }
};

// t[r] = row r of scale * K_scalar u for the two elements of a pair, one
// per lane, each lane in the operation sequence of fem::hex_scalar_apply
// onto a zeroed ye: s starts at +0.0, adds entry * u_c in ascending c, and
// t = +0.0 + scale * s.
inline void pair_rows(const PairTable& kt, const Vec2 uc[8], Vec2 scale,
                      Vec2 t[8]) {
  Vec2 s[8];
  for (int r = 0; r < 8; ++r) s[r] = Vec2{0.0, 0.0};
  for (int c = 0; c < 8; ++c) {
    const Vec2* kc = &kt[static_cast<std::size_t>(c) * 8];
    for (int r = 0; r < 8; ++r) s[r] += kc[r] * uc[c];
  }
  for (int r = 0; r < 8; ++r) t[r] = Vec2{0.0, 0.0} + scale * s[r];
}

// The odd-nx tail: ye = scale * K_scalar u_e for the one element whose
// corner-0 value is at v, by fem::hex_scalar_apply onto a zeroed ye (the
// sequence pair_rows reproduces per lane).
void solo_rows(const Corners& cn, const double* v, double scale,
               double ye[8]) {
  double ue[8];
  for (int c = 0; c < 8; ++c) ue[c] = v[cn.off[c]];
  std::fill(ye, ye + 8, 0.0);
  fem::hex_scalar_apply(fem::HexReference::get(), ue, scale, ye);
}

// y += K(scale) u (K_e = scale_e * h * K_scalar) over x-rows, elements
// (i, i + 1) in the two lanes. Each node sums its elements in ascending
// order, as the per-element reference (testsupport::scalar3d_apply_k_ref)
// does: along each of a row's four node lines node m takes element
// m - 1's x = 1 contribution, then element m's x = 0 one; the right
// lane's x = 1 contribution is carried in a register to the next pair, so
// every node pair is loaded and stored once. A lane whose scale is zero
// contributes -0.0, which leaves every y unchanged (x + -0.0 = x), i.e.
// the element is skipped. An odd nx sends each row's last element through
// fem::hex_scalar_apply. apply_k passes mu (> 0).
void scatter_pass(const ScalarGrid3d& g, const double* scale,
                  const double* u, double* y) {
  const PairTable& kt = pair_table();
  const Corners cn(g);
  const Vec2 hv = {g.h, g.h};
  const Vec2 neg0 = {-0.0, -0.0};
  for (int k = 0; k < g.nz; ++k) {
    for (int j = 0; j < g.ny; ++j) {
      std::size_t e = static_cast<std::size_t>(g.elem(0, j, k));
      std::size_t n = static_cast<std::size_t>(g.node(0, j, k));
      Vec2 carry[4] = {neg0, neg0, neg0, neg0};
      for (int i = 0; i + 1 < g.nx; i += 2, e += 2, n += 2) {
        Vec2 uc[8], t[8];
        cn.gather(u + n, uc);
        const Vec2 d = load2(scale + e);
        pair_rows(kt, uc, d * hv, t);
        const auto skip = d == Vec2{0.0, 0.0};
        for (int r = 0; r < 8; ++r) t[r] = skip ? neg0 : t[r];
        for (int l = 0; l < 4; ++l) {
          double* yl = y + n + cn.off[2 * l];
          const Vec2 x1 = {carry[l][1], t[2 * l + 1][0]};
          util::store2(yl, 1, (load2(yl) + x1) + t[2 * l]);
          carry[l] = t[2 * l + 1];
        }
      }
      if (g.nx % 2 == 1) {
        double ye[8];
        if (scale[e] == 0.0) {
          std::fill(ye, ye + 8, -0.0);
        } else {
          solo_rows(cn, u + n, scale[e] * g.h, ye);
        }
        for (int l = 0; l < 4; ++l) {
          double* yl = y + n + cn.off[2 * l];
          yl[0] = (yl[0] + carry[l][1]) + ye[2 * l];
          yl[1] += ye[2 * l + 1];
        }
      } else {
        for (int l = 0; l < 4; ++l) y[n + cn.off[2 * l]] += carry[l][1];
      }
    }
  }
}

}  // namespace

void ScalarGrid3d::elem_nodes(int e, int out[8]) const {
  const int i = e % nx;
  const int j = (e / nx) % ny;
  const int k = e / (nx * ny);
  for (int c = 0; c < 8; ++c) {
    out[c] = node(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
  }
}

void ScalarGrid3d::validate() const {
  if (nx < 1 || ny < 1 || nz < 1 || !(h > 0.0)) {
    throw std::invalid_argument("ScalarGrid3d: bad dimensions");
  }
}

ScalarModel3d::ScalarModel3d(const ScalarGrid3d& grid, std::vector<double> mu,
                             double rho)
    : grid_(grid), mu_(std::move(mu)), rho_(rho) {
  grid_.validate();
  if (mu_.size() != static_cast<std::size_t>(grid_.n_elems())) {
    throw std::invalid_argument("ScalarModel3d: mu size mismatch");
  }
  for (double m : mu_) {
    if (!(m > 0.0)) throw std::invalid_argument("ScalarModel3d: mu > 0");
  }

  mass_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  const double mnode = rho_ * grid_.h * grid_.h * grid_.h / 8.0;
  int conn[8];
  for (int e = 0; e < grid_.n_elems(); ++e) {
    grid_.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) {
      mass_[static_cast<std::size_t>(conn[c])] += mnode;
    }
  }

  // Absorbing faces: all cube sides except the free surface z = 0.
  auto add_quad = [&](int n0, int n1, int n2, int n3, int e) {
    quads_.push_back({{n0, n1, n2, n3}, e});
  };
  for (int k = 0; k < grid_.nz; ++k) {
    for (int j = 0; j < grid_.ny; ++j) {
      add_quad(grid_.node(0, j, k), grid_.node(0, j + 1, k),
               grid_.node(0, j, k + 1), grid_.node(0, j + 1, k + 1),
               grid_.elem(0, j, k));
      add_quad(grid_.node(grid_.nx, j, k), grid_.node(grid_.nx, j + 1, k),
               grid_.node(grid_.nx, j, k + 1),
               grid_.node(grid_.nx, j + 1, k + 1),
               grid_.elem(grid_.nx - 1, j, k));
    }
  }
  for (int k = 0; k < grid_.nz; ++k) {
    for (int i = 0; i < grid_.nx; ++i) {
      add_quad(grid_.node(i, 0, k), grid_.node(i + 1, 0, k),
               grid_.node(i, 0, k + 1), grid_.node(i + 1, 0, k + 1),
               grid_.elem(i, 0, k));
      add_quad(grid_.node(i, grid_.ny, k), grid_.node(i + 1, grid_.ny, k),
               grid_.node(i, grid_.ny, k + 1),
               grid_.node(i + 1, grid_.ny, k + 1),
               grid_.elem(i, grid_.ny - 1, k));
    }
  }
  for (int j = 0; j < grid_.ny; ++j) {
    for (int i = 0; i < grid_.nx; ++i) {
      add_quad(grid_.node(i, j, grid_.nz), grid_.node(i + 1, j, grid_.nz),
               grid_.node(i, j + 1, grid_.nz),
               grid_.node(i + 1, j + 1, grid_.nz),
               grid_.elem(i, j, grid_.nz - 1));
    }
  }

  damping_.assign(static_cast<std::size_t>(grid_.n_nodes()), 0.0);
  for (const BoundaryQuad& q : quads_) {
    const double c = std::sqrt(rho_ * mu_[static_cast<std::size_t>(q.elem)]) *
                     grid_.h * grid_.h / 4.0;
    for (int n : q.nodes) damping_[static_cast<std::size_t>(n)] += c;
  }
}

void ScalarModel3d::apply_k(std::span<const double> u,
                            std::span<double> y) const {
  scatter_pass(grid_, mu_.data(), u.data(), y.data());
}

void ScalarModel3d::apply_k_delta(std::span<const double> dmu,
                                  std::span<const double> u,
                                  std::span<double> y) const {
  scatter_pass(grid_, dmu.data(), u.data(), y.data());
}

// The x-row walk of scatter_pass without a scatter: each lane folds
// le[c] * ye[c] in ascending c from +0.0 into its own ge entry.
void ScalarModel3d::accumulate_k_form(std::span<const double> lambda,
                                      std::span<const double> u,
                                      std::span<double> ge) const {
  const PairTable& kt = pair_table();
  const Corners cn(grid_);
  const Vec2 hv = {grid_.h, grid_.h};
  const double* up = u.data();
  const double* lp = lambda.data();
  double* gp = ge.data();
  for (int k = 0; k < grid_.nz; ++k) {
    for (int j = 0; j < grid_.ny; ++j) {
      std::size_t e = static_cast<std::size_t>(grid_.elem(0, j, k));
      std::size_t n = static_cast<std::size_t>(grid_.node(0, j, k));
      for (int i = 0; i + 1 < grid_.nx; i += 2, e += 2, n += 2) {
        Vec2 uc[8], lc[8], t[8];
        cn.gather(up + n, uc);
        cn.gather(lp + n, lc);
        pair_rows(kt, uc, hv, t);
        Vec2 s = {0.0, 0.0};
        for (int c = 0; c < 8; ++c) s += lc[c] * t[c];
        util::store2(gp + e, 1, load2(gp + e) + s);
      }
      if (grid_.nx % 2 == 1) {
        double ye[8];
        solo_rows(cn, up + n, grid_.h, ye);
        double s = 0.0;
        for (int c = 0; c < 8; ++c) s += lp[n + cn.off[c]] * ye[c];
        gp[e] += s;
      }
    }
  }
}

void ScalarModel3d::apply_c_delta(std::span<const double> dmu,
                                  std::span<const double> v,
                                  std::span<double> y) const {
  for (const BoundaryQuad& q : quads_) {
    const double d = dmu[static_cast<std::size_t>(q.elem)];
    if (d == 0.0) continue;
    const double mu_e = mu_[static_cast<std::size_t>(q.elem)];
    const double dc =
        0.5 * std::sqrt(rho_ / mu_e) * grid_.h * grid_.h / 4.0 * d;
    for (int n : q.nodes) {
      y[static_cast<std::size_t>(n)] += dc * v[static_cast<std::size_t>(n)];
    }
  }
}

void ScalarModel3d::accumulate_c_form(std::span<const double> lambda,
                                      std::span<const double> v,
                                      std::span<double> ge) const {
  for (const BoundaryQuad& q : quads_) {
    const double mu_e = mu_[static_cast<std::size_t>(q.elem)];
    const double dc = 0.5 * std::sqrt(rho_ / mu_e) * grid_.h * grid_.h / 4.0;
    double s = 0.0;
    for (int n : q.nodes) {
      s += lambda[static_cast<std::size_t>(n)] * v[static_cast<std::size_t>(n)];
    }
    ge[static_cast<std::size_t>(q.elem)] += dc * s;
  }
}

double ScalarModel3d::stable_dt(double cfl_fraction) const {
  double mu_max = 0.0;
  for (double m : mu_) mu_max = std::max(mu_max, m);
  return cfl_fraction * grid_.h / std::sqrt(mu_max / rho_);
}

}  // namespace quake::wave3d
