#include "quake/solver/sh1d.hpp"

#include <cmath>
#include <stdexcept>

namespace quake::solver {

std::vector<double> sh_layer_surface_response(
    const ShLayerParams& p, const std::function<double(double)>& incident,
    int nt, double dt) {
  if (!(p.thickness > 0.0) || !(p.vs1 > 0.0) || !(p.vs2 > 0.0)) {
    throw std::invalid_argument("sh_layer_surface_response: bad parameters");
  }
  const double z1 = p.rho1 * p.vs1;
  const double z2 = p.rho2 * p.vs2;
  const double trans = 2.0 * z2 / (z1 + z2);     // into the layer
  const double refl = (z1 - z2) / (z1 + z2);     // interface, from above
  const double tau = p.thickness / p.vs1;        // one-way layer travel time

  // Number of reverberations needed for |refl|^n below round-off within the
  // simulated window.
  int n_terms = 1;
  if (std::abs(refl) > 0.0) {
    n_terms = static_cast<int>(std::ceil(
                  std::log(1e-14) / std::log(std::abs(refl)))) +
              1;
  }
  n_terms = std::min(n_terms, static_cast<int>(nt * dt / (2.0 * tau)) + 2);

  std::vector<double> u(static_cast<std::size_t>(nt), 0.0);
  for (int k = 0; k < nt; ++k) {
    const double t = k * dt;
    double s = 0.0;
    double rn = 1.0;
    for (int n = 0; n < n_terms; ++n) {
      s += rn * incident(t - (2 * n + 1) * tau);
      rn *= refl;
    }
    u[static_cast<std::size_t>(k)] = 2.0 * trans * s;
  }
  return u;
}

}  // namespace quake::solver
