#pragma once

// The instantiations of the x-row walk behind ScalarModel3d's element
// passes (scalar_model.cpp), private to quake_wave3d. apply_k,
// apply_k_delta and accumulate_k_form run whichever instantiation the
// process picked; this header lets wave3d_test put every instantiation
// under the per-element oracles directly and lets bench_micro time them
// side by side.

#include "quake/wave3d/scalar_model.hpp"

namespace quake::wave3d::detail {

// One instantiation of the walk, for both of its pass shapes.
struct ScalarPasses {
  const char* name;
  // y += K(scale) u (K_e = scale_e * h * K_scalar); an element whose scale
  // is +-0 adds nothing. apply_k passes mu, apply_k_delta dmu.
  void (*scatter)(const ScalarGrid3d& g, const double* scale, const double* u,
                  double* y);
  // ge[e] += lambda_e . h K_scalar u_e (accumulate_k_form).
  void (*k_form)(const ScalarGrid3d& g, const double* lambda, const double* u,
                 double* ge);
};

// Two elements per util::Vec2 (SSE2 on x86-64, NEON on AArch64). Every
// build.
const ScalarPasses& scalar_passes_portable();

// Four elements per util::Vec4, compiled for AVX2 alone (no FMA). nullptr
// on a non-x86-64 build and on a CPU without AVX2.
const ScalarPasses* scalar_passes_avx2();

// The instantiation this process runs: AVX2 when util::cpu_has_avx2(),
// else the portable one.
const ScalarPasses& scalar_passes();

}  // namespace quake::wave3d::detail
