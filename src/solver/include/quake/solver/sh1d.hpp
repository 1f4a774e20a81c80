#pragma once

// Closed-form surface response of a soft layer over a halfspace under a
// vertically incident SH displacement pulse — the verification reference
// for Fig 2.2. The exact solution is a ray series: the incident wave
// transmits into the layer (T = 2 Z2 / (Z1 + Z2)), doubles at the free
// surface, and reverberates with interface reflection coefficient
// R = (Z1 - Z2) / (Z1 + Z2), Z = rho * vs.

#include <functional>
#include <vector>

namespace quake::solver {

struct ShLayerParams {
  double thickness;  // layer thickness H [m]
  double rho1, vs1;  // layer
  double rho2, vs2;  // halfspace
};

// `incident(t)` is the displacement history the incident (upgoing) wave
// would produce at the interface depth in the absence of the layer.
// Returns the surface displacement sampled at t = k * dt, k in [0, nt).
std::vector<double> sh_layer_surface_response(
    const ShLayerParams& p, const std::function<double(double)>& incident,
    int nt, double dt);

}  // namespace quake::solver
