#pragma once

// Bilinear material-grid parameterization and multiscale prolongation
// (§3.1-3.2). The inversion unknown m lives on a coarse (gx+1) x (gz+1)
// node grid over the section; element shear moduli are bilinear
// interpolations of m at element centers (mu = P m). The multiscale
// continuation prolongs m from each grid to the next finer one.

#include <span>
#include <vector>

#include "quake/wave2d/grid.hpp"

namespace quake::inverse {

class MaterialGrid {
 public:
  // gx, gz: cells per side of the inversion grid covering the same physical
  // section as `wave_grid`.
  MaterialGrid(const wave2d::ShGrid& wave_grid, int gx, int gz);

  [[nodiscard]] int gx() const { return gx_; }
  [[nodiscard]] int gz() const { return gz_; }
  [[nodiscard]] std::size_t n_params() const {
    return static_cast<std::size_t>((gx_ + 1) * (gz_ + 1));
  }
  [[nodiscard]] int node(int i, int k) const { return k * (gx_ + 1) + i; }

  // mu_e = sum_j P[e][j] m[j] (4 entries per element).
  void apply(std::span<const double> m, std::span<double> mu_elem) const;
  // g_m += P^T g_e.
  void apply_transpose(std::span<const double> g_elem,
                       std::span<double> g_m) const;

  // Bilinear prolongation of a field from this grid to a finer `target`.
  std::vector<double> prolongate(std::span<const double> m,
                                 const MaterialGrid& target) const;

  [[nodiscard]] double cell_dx() const { return dx_; }
  [[nodiscard]] double cell_dz() const { return dz_; }

 private:
  struct Interp {
    int idx[4];
    double w[4];
  };
  // Bilinear interpolation weights of point (x, z) on this grid.
  [[nodiscard]] Interp interp_at(double x, double z) const;

  wave2d::ShGrid wave_;
  int gx_, gz_;
  double dx_, dz_;
  std::vector<Interp> elem_interp_;  // one per wave-grid element
};

}  // namespace quake::inverse
