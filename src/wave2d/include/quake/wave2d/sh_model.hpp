#pragma once

// Discrete antiplane shear wave model (§3.1):
//   rho u'' - div(mu grad u) = b   in Omega,
//   mu du/dn = 0                   on the free surface,
//   mu du/dn = -sqrt(rho mu) u'    on the absorbing sides/bottom,
// discretized with bilinear quads (lumped mass, lumped boundary dashpots).
// Also provides the directional derivatives with respect to the element
// shear moduli that the adjoint gradient and the Gauss-Newton
// Hessian-vector products need.

#include <array>
#include <span>
#include <vector>

#include "quake/wave2d/grid.hpp"

namespace quake::wave2d {

// Reference bilinear Laplacian on the unit square (edge-length independent
// in 2D); row-major 4x4 in tensor node order.
const std::array<double, 16>& quad_laplacian_reference();

class ShModel {
 public:
  // `mu` has one entry per element; `rho` is the (known) uniform density.
  ShModel(const ShGrid& grid, std::vector<double> mu, double rho);

  [[nodiscard]] const ShGrid& grid() const { return grid_; }
  [[nodiscard]] std::span<const double> mu() const { return mu_; }
  [[nodiscard]] double rho() const { return rho_; }

  // y += K(mu) u.
  void apply_k(std::span<const double> u, std::span<double> y) const;
  // y += K(dmu) u — the stiffness derivative in direction dmu.
  void apply_k_delta(std::span<const double> dmu, std::span<const double> u,
                     std::span<double> y) const;

  [[nodiscard]] std::span<const double> mass() const { return mass_; }
  // Diagonal boundary dashpot C(mu).
  [[nodiscard]] std::span<const double> damping() const { return damping_; }
  // y += dC/dmu[dmu] * v — derivative of the dashpot diagonal.
  void apply_c_delta(std::span<const double> dmu, std::span<const double> v,
                     std::span<double> y) const;

  // ge[e] += lambda^T K_e u / mu_e-free form: the element bilinear value
  // lambda^T K_ref u (the factor multiplying mu_e in K).
  void accumulate_k_form(std::span<const double> lambda,
                         std::span<const double> u,
                         std::span<double> ge) const;
  // ge[e] += lambda^T (dC/dmu_e) v — dashpot sensitivity per element.
  void accumulate_c_form(std::span<const double> lambda,
                         std::span<const double> v,
                         std::span<double> ge) const;

  // CFL bound: h / max(vs).
  [[nodiscard]] double stable_dt(double cfl_fraction) const;

 private:
  struct BoundaryEdge {
    int node_a, node_b;  // endpoints
    int elem;            // owning element (its mu sets the impedance)
    double dc_dmu;       // dC/dmu_e per endpoint: (h/4) sqrt(rho/mu_e)
  };

  ShGrid grid_;
  std::vector<double> mu_;
  double rho_;
  std::vector<double> mass_;
  std::vector<double> damping_;
  std::vector<BoundaryEdge> edges_;
};

}  // namespace quake::wave2d
