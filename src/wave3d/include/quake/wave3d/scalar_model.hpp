#pragma once

// 3D scalar wave substrate for the Table 3.1 experiment, which the paper
// runs on "the scalar 3D wave equation" with up to 2.1M material
// parameters: rho u'' - div(mu grad u) = f on a uniform trilinear-hex grid,
// free surface on top, first-order absorbing boundaries elsewhere. Shares
// the 8x8 scalar reference stiffness with the elastodynamic hex element,
// and marches on wave2d::Stepper (quake/wave2d/march.hpp) like the
// antiplane model.

#include <array>
#include <span>
#include <vector>

namespace quake::wave3d {

struct ScalarGrid3d {
  int nx = 0, ny = 0, nz = 0;  // elements per direction; z is depth
  double h = 0.0;              // element edge [m]

  [[nodiscard]] int n_nodes() const {
    return (nx + 1) * (ny + 1) * (nz + 1);
  }
  [[nodiscard]] int n_elems() const { return nx * ny * nz; }
  [[nodiscard]] int node(int i, int j, int k) const {
    return (k * (ny + 1) + j) * (nx + 1) + i;
  }
  [[nodiscard]] int elem(int i, int j, int k) const {
    return (k * ny + j) * nx + i;
  }
  // Tensor-ordered element connectivity (matches fem::HexReference).
  void elem_nodes(int e, int out[8]) const;
  void validate() const;
};

class ScalarModel3d {
 public:
  ScalarModel3d(const ScalarGrid3d& grid, std::vector<double> mu, double rho);

  [[nodiscard]] const ScalarGrid3d& grid() const { return grid_; }
  [[nodiscard]] std::span<const double> mu() const { return mu_; }
  [[nodiscard]] double rho() const { return rho_; }

  // y += K(mu) u   (K_e = mu_e * h * K_scalar), and y += K(dmu) u, where
  // an element whose dmu is +-0 adds nothing. Both sum each node's
  // elements in ascending element order.
  void apply_k(std::span<const double> u, std::span<double> y) const;
  void apply_k_delta(std::span<const double> dmu, std::span<const double> u,
                     std::span<double> y) const;
  // ge[e] += lambda^T (h K_scalar) u on element e (the mu_e coefficient).
  void accumulate_k_form(std::span<const double> lambda,
                         std::span<const double> u,
                         std::span<double> ge) const;

  [[nodiscard]] std::span<const double> mass() const { return mass_; }
  [[nodiscard]] std::span<const double> damping() const { return damping_; }
  void apply_c_delta(std::span<const double> dmu, std::span<const double> v,
                     std::span<double> y) const;
  void accumulate_c_form(std::span<const double> lambda,
                         std::span<const double> v,
                         std::span<double> ge) const;

  [[nodiscard]] double stable_dt(double cfl_fraction) const;

 private:
  struct BoundaryQuad {
    std::array<int, 4> nodes;
    int elem;
    double dc_dmu;  // dC/dmu_e per node: 0.5 sqrt(rho/mu_e) h^2/4
  };
  ScalarGrid3d grid_;
  std::vector<double> mu_;
  double rho_;
  std::vector<double> mass_, damping_;
  std::vector<BoundaryQuad> quads_;
};

}  // namespace quake::wave3d
