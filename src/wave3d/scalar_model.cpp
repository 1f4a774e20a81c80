#include "quake/wave3d/scalar_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "quake/fem/hex_element.hpp"
#include "quake/util/vec2.hpp"
#include "scalar_passes.hpp"

namespace quake::wave3d {

namespace {

using util::Vec2;
using util::Vec4;

// The lane layout of the x-row walk: a V of W lanes holds E = W / R
// consecutive elements of a row, R rows of each. Lane q is element q % E,
// row p * R + q / E of accumulator p. R = 1 puts W elements in the lanes
// (the main walk); R = 2 puts two elements, two rows each, in a 4-wide V
// (the pair tail of a 4-wide walk, which would otherwise run half wide).
template <class V, int R>
struct Lanes {
  static constexpr int kW = static_cast<int>(sizeof(V) / sizeof(double));
  static constexpr int kE = kW / R;  // elements per V
  static constexpr int kAcc = 8 / R;  // V accumulators per group of E
  // One row of the group's E elements.
  using Row = std::conditional_t<kE == 2, Vec2, Vec4>;
};

// k_scalar laid out for Lanes<V, R>: entry c * kAcc + p holds, in lane q,
// row (p * R + q / E)'s entry c, node c's weight in that row as
// fem::hex_scalar_apply reads it (row c standing in for column c). A
// table, not broadcasts in the loop: those measured slower.
template <class V, int R>
using KTable = std::array<V, 8 * Lanes<V, R>::kAcc>;

template <class V, int R>
const KTable<V, R>& k_table() {
  using L = Lanes<V, R>;
  static const KTable<V, R> t = [] {
    const auto& k = fem::HexReference::get().k_scalar;
    KTable<V, R> out;
    for (int c = 0; c < 8; ++c) {
      for (int p = 0; p < L::kAcc; ++p) {
        for (int q = 0; q < L::kW; ++q) {
          out[static_cast<std::size_t>(c * L::kAcc + p)][q] =
              k[static_cast<std::size_t>(c * 8 + p * R + q / L::kE)];
        }
      }
    }
    return out;
  }();
  return t;
}

// Corner c of an element sits off[c] nodes past its corner-0 node, in the
// tensor order of ScalarGrid3d::elem_nodes. Elements i .. i + E - 1 of an
// x-row have their corner-c values at E consecutive addresses, so one
// vector load gathers corner c of E elements.
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
};

// The helpers below are always inlined and take vectors only by pointer or
// reference: each compiles in its caller's target context, so the AVX2
// instantiation gets 256-bit code and no 32-byte vector is passed by value
// (-Wpsabi).

// out = the E values at p, in Lanes<V, R>'s layout (repeated R times).
// The corner loops that call it are unrolled: as loops, GCC copied each
// 32-byte corner through the stack in two halves and reloaded it whole.
template <class V, int R>
[[gnu::always_inline]] inline void spread(const double* p, V& out) {
  if constexpr (R == 1) {
    std::memcpy(&out, p, sizeof out);
  } else {
    Vec2 e;
    std::memcpy(&e, p, sizeof e);
    out = __builtin_shufflevector(e, e, 0, 1, 0, 1);
  }
}

// out = row r of a group's accumulators t.
template <class V, int R, class Row = typename Lanes<V, R>::Row>
[[gnu::always_inline]] inline void row_of(const V* t, int r, Row& out) {
  if constexpr (R == 1) {
    out = t[r];
  } else if (r % 2 == 0) {
    out = __builtin_shufflevector(t[r / 2], t[r / 2], 0, 1);
  } else {
    out = __builtin_shufflevector(t[r / 2], t[r / 2], 2, 3);
  }
}

// The rows of scale * K_scalar u for a group of E elements, in
// Lanes<V, R>'s layout, each lane in the operation sequence of
// fem::hex_scalar_apply onto a zeroed ye: s starts at +0.0, adds entry *
// u_c in ascending c, and t = +0.0 + scale * s. uc[c] and scale are
// spread().
template <class V, int R>
[[gnu::always_inline]] inline void elem_rows(const KTable<V, R>& kt,
                                             const V uc[8], const V& scale,
                                             V t[]) {
  constexpr int kAcc = Lanes<V, R>::kAcc;
  V s[kAcc];
  for (int p = 0; p < kAcc; ++p) s[p] = V{};
  for (int c = 0; c < 8; ++c) {
    const V* kc = &kt[static_cast<std::size_t>(c * kAcc)];
    for (int p = 0; p < kAcc; ++p) s[p] += kc[p] * uc[c];
  }
  for (int p = 0; p < kAcc; ++p) t[p] = V{} + scale * s[p];
}

// ye = scale * K_scalar u_e for the one element whose corner-0 value is at
// v, by fem::hex_scalar_apply onto a zeroed ye (the sequence elem_rows
// reproduces per lane).
void solo_rows(const Corners& cn, const double* v, double scale,
               double ye[8]) {
  double ue[8];
  for (int c = 0; c < 8; ++c) ue[c] = v[cn.off[c]];
  std::fill(ye, ye + 8, 0.0);
  fem::hex_scalar_apply(fem::HexReference::get(), ue, scale, ye);
}

// y += K(scale) u over the first count - count % E elements of an x-row
// (scale, u and y point at its first element and node), E per V, and
// returns how many it walked. Along each of the row's four node lines node
// m takes element m - 1's x = 1 contribution, then element m's x = 0 one:
// y = (y + [carry, x1_0 .. x1_{E-2}]) + x0. carry[l] is the x = 1
// contribution of the element before the first, in and out: lane E - 1 of
// each group's x = 1 row goes on to the next group, so every node is
// loaded and stored once. An element whose scale is zero contributes
// -0.0, which leaves every y unchanged (x + -0.0 = x), i.e. it is skipped.
template <class V, int R>
[[gnu::always_inline]] inline std::size_t scatter_run(
    const Corners& cn, double h, std::size_t count, const double* scale,
    const double* u, double* y, double carry[4]) {
  using L = Lanes<V, R>;
  using Row = typename L::Row;
  constexpr std::size_t kE = L::kE;
  const KTable<V, R>& kt = k_table<V, R>();
  V hv{}, neg0{};
  for (int q = 0; q < L::kW; ++q) {
    hv[q] = h;
    neg0[q] = -0.0;
  }
  Row cv[4] = {};
  for (int l = 0; l < 4; ++l) cv[l][kE - 1] = carry[l];
  std::size_t i = 0;
  for (; i + kE <= count; i += kE) {
    V uc[8], d, t[L::kAcc];
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) spread<V, R>(u + i + cn.off[c], uc[c]);
    spread<V, R>(scale + i, d);
    const V sc = d * hv;
    elem_rows<V, R>(kt, uc, sc, t);
    const auto skip = d == V{};
    for (int p = 0; p < L::kAcc; ++p) t[p] = skip ? neg0 : t[p];
    for (int l = 0; l < 4; ++l) {
      double* yl = y + i + cn.off[2 * l];
      Row x0, x1r, x1, yv;
      row_of<V, R>(t, 2 * l, x0);
      row_of<V, R>(t, 2 * l + 1, x1r);
      if constexpr (kE == 2) {
        x1 = __builtin_shufflevector(cv[l], x1r, 1, 2);
      } else {
        x1 = __builtin_shufflevector(cv[l], x1r, 3, 4, 5, 6);
      }
      std::memcpy(&yv, yl, sizeof yv);
      yv = (yv + x1) + x0;
      std::memcpy(yl, &yv, sizeof yv);
      cv[l] = x1r;
    }
  }
  for (int l = 0; l < 4; ++l) carry[l] = cv[l][kE - 1];
  return i;
}

// y += K(scale) u (K_e = scale_e * h * K_scalar) x-row by x-row. Each node
// sums its elements in ascending order, as the per-element reference
// (testsupport::scalar3d_apply_k_ref) does. A row walks W elements per V,
// then its remainder: at W = 4 a pair, two rows per element so that it
// fills the V too, then a last element through fem::hex_scalar_apply.
// apply_k passes mu (> 0).
template <class V>
void scatter_pass(const ScalarGrid3d& g, const double* scale, const double* u,
                  double* y) {
  const Corners cn(g);
  const std::size_t nx = static_cast<std::size_t>(g.nx);
  for (int k = 0; k < g.nz; ++k) {
    for (int j = 0; j < g.ny; ++j) {
      const std::size_t e = static_cast<std::size_t>(g.elem(0, j, k));
      const std::size_t n = static_cast<std::size_t>(g.node(0, j, k));
      double carry[4] = {-0.0, -0.0, -0.0, -0.0};
      std::size_t i = scatter_run<V, 1>(cn, g.h, nx, scale + e, u + n, y + n,
                                        carry);
      if constexpr (std::is_same_v<V, Vec4>) {
        i += scatter_run<V, 2>(cn, g.h, nx - i, scale + e + i, u + n + i,
                               y + n + i, carry);
      }
      if (i < nx) {
        double ye[8];
        if (scale[e + i] == 0.0) {
          std::fill(ye, ye + 8, -0.0);
        } else {
          solo_rows(cn, u + n + i, scale[e + i] * g.h, ye);
        }
        for (int l = 0; l < 4; ++l) {
          double* yl = y + n + i + cn.off[2 * l];
          *yl = (*yl + carry[l]) + ye[2 * l];
          carry[l] = ye[2 * l + 1];
        }
      }
      for (int l = 0; l < 4; ++l) y[n + nx + cn.off[2 * l]] += carry[l];
    }
  }
}

// The walk of scatter_run without a scatter: each element folds
// le[c] * t[c] in ascending c from +0.0 into its own ge entry.
template <class V, int R>
[[gnu::always_inline]] inline std::size_t k_form_run(
    const Corners& cn, double h, std::size_t count, const double* lambda,
    const double* u, double* ge) {
  using L = Lanes<V, R>;
  using Row = typename L::Row;
  constexpr std::size_t kE = L::kE;
  const KTable<V, R>& kt = k_table<V, R>();
  V hv{};
  for (int q = 0; q < L::kW; ++q) hv[q] = h;
  std::size_t i = 0;
  for (; i + kE <= count; i += kE) {
    V uc[8], t[L::kAcc];
#pragma GCC unroll 8
    for (int c = 0; c < 8; ++c) spread<V, R>(u + i + cn.off[c], uc[c]);
    elem_rows<V, R>(kt, uc, hv, t);
    Row s{}, gv;
    for (int c = 0; c < 8; ++c) {
      Row lc, tc;
      std::memcpy(&lc, lambda + i + cn.off[c], sizeof lc);
      row_of<V, R>(t, c, tc);
      s += lc * tc;
    }
    std::memcpy(&gv, ge + i, sizeof gv);
    gv += s;
    std::memcpy(ge + i, &gv, sizeof gv);
  }
  return i;
}

template <class V>
void k_form_pass(const ScalarGrid3d& g, const double* lambda, const double* u,
                 double* ge) {
  const Corners cn(g);
  const std::size_t nx = static_cast<std::size_t>(g.nx);
  for (int k = 0; k < g.nz; ++k) {
    for (int j = 0; j < g.ny; ++j) {
      const std::size_t e = static_cast<std::size_t>(g.elem(0, j, k));
      const std::size_t n = static_cast<std::size_t>(g.node(0, j, k));
      std::size_t i =
          k_form_run<V, 1>(cn, g.h, nx, lambda + n, u + n, ge + e);
      if constexpr (std::is_same_v<V, Vec4>) {
        i += k_form_run<V, 2>(cn, g.h, nx - i, lambda + n + i, u + n + i,
                              ge + e + i);
      }
      if (i < nx) {
        double ye[8];
        solo_rows(cn, u + n + i, g.h, ye);
        double s = 0.0;
        for (int c = 0; c < 8; ++c) s += lambda[n + i + cn.off[c]] * ye[c];
        ge[e + i] += s;
      }
    }
  }
}

constexpr detail::ScalarPasses kPortable{"portable", &scatter_pass<Vec2>,
                                         &k_form_pass<Vec2>};

#if defined(__x86_64__)
// The AVX2 instantiation: four elements per util::Vec4, in functions that
// flatten the walk into AVX2 code (its pair tail included). As for
// the elastic kernel, the target adds AVX2 and not FMA, so each lane keeps
// the reference's separate mul and add.
[[gnu::target("avx2"), gnu::flatten]] void scatter_pass_avx2(
    const ScalarGrid3d& g, const double* scale, const double* u, double* y) {
  scatter_pass<Vec4>(g, scale, u, y);
}

[[gnu::target("avx2"), gnu::flatten]] void k_form_pass_avx2(
    const ScalarGrid3d& g, const double* lambda, const double* u,
    double* ge) {
  k_form_pass<Vec4>(g, lambda, u, ge);
}

constexpr detail::ScalarPasses kAvx2{"avx2", &scatter_pass_avx2,
                                     &k_form_pass_avx2};
#endif

}  // namespace

namespace detail {

const ScalarPasses& scalar_passes_portable() { return kPortable; }

const ScalarPasses* scalar_passes_avx2() {
#if defined(__x86_64__)
  if (util::cpu_has_avx2()) return &kAvx2;
#endif
  return nullptr;
}

const ScalarPasses& scalar_passes() {
  const ScalarPasses* avx2 = scalar_passes_avx2();
  return avx2 != nullptr ? *avx2 : kPortable;
}

}  // namespace detail

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

  // Absorbing faces: all cube sides except the free surface z = 0. Each
  // node of a face takes sqrt(rho mu_e) h^2/4 of dashpot, whose derivative
  // in mu_e is fixed with mu.
  auto add_quad = [&](int n0, int n1, int n2, int n3, int e) {
    const double mu_e = mu_[static_cast<std::size_t>(e)];
    quads_.push_back({{n0, n1, n2, n3},
                      e,
                      0.5 * std::sqrt(rho_ / mu_e) * grid_.h * grid_.h / 4.0});
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
  detail::scalar_passes().scatter(grid_, mu_.data(), u.data(), y.data());
}

void ScalarModel3d::apply_k_delta(std::span<const double> dmu,
                                  std::span<const double> u,
                                  std::span<double> y) const {
  detail::scalar_passes().scatter(grid_, dmu.data(), u.data(), y.data());
}

void ScalarModel3d::accumulate_k_form(std::span<const double> lambda,
                                      std::span<const double> u,
                                      std::span<double> ge) const {
  detail::scalar_passes().k_form(grid_, lambda.data(), u.data(), ge.data());
}

void ScalarModel3d::apply_c_delta(std::span<const double> dmu,
                                  std::span<const double> v,
                                  std::span<double> y) const {
  for (const BoundaryQuad& q : quads_) {
    const double d = dmu[static_cast<std::size_t>(q.elem)];
    if (d == 0.0) continue;
    const double dc = q.dc_dmu * d;
    for (int n : q.nodes) {
      y[static_cast<std::size_t>(n)] += dc * v[static_cast<std::size_t>(n)];
    }
  }
}

void ScalarModel3d::accumulate_c_form(std::span<const double> lambda,
                                      std::span<const double> v,
                                      std::span<double> ge) const {
  for (const BoundaryQuad& q : quads_) {
    double s = 0.0;
    for (int n : q.nodes) {
      s += lambda[static_cast<std::size_t>(n)] * v[static_cast<std::size_t>(n)];
    }
    ge[static_cast<std::size_t>(q.elem)] += q.dc_dmu * s;
  }
}

double ScalarModel3d::stable_dt(double cfl_fraction) const {
  double mu_max = 0.0;
  for (double m : mu_) mu_max = std::max(mu_max, m);
  return cfl_fraction * grid_.h / std::sqrt(mu_max / rho_);
}

}  // namespace quake::wave3d
