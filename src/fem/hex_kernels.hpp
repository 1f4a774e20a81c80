#pragma once

// The instantiations of the one elastic kernel body (hex_apply_rows in
// hex_element.cpp), private to quake_fem. The public entry points of
// quake/fem/hex_element.hpp run whichever instantiation the process picked;
// this header lets fem_test put every instantiation under the bitwise
// oracle directly and lets bench_micro time them side by side.

#include "quake/fem/hex_element.hpp"

namespace quake::fem::detail {

// One instantiation of the kernel body behind the public entry points'
// three call shapes. `apply_batch` does not check n_lanes: the public
// hex_apply_batch checks it before dispatching.
struct HexKernels {
  const char* name;
  void (*apply)(const HexReference& ref, const double* u_e,
                double scale_lambda, double scale_mu, double* y_e,
                double beta_e, double* y_damp);
  void (*apply_elems)(const HexReference& ref, const double* u_e, int n_elems,
                      const double* scale_lambda, const double* scale_mu,
                      double* y_e, const double* beta_e, double* y_damp);
  void (*apply_batch)(const HexReference& ref, const double* u_e, int n_lanes,
                      double scale_lambda, double scale_mu, double* y_e,
                      double beta_e, double* y_damp);
};

// Two rows per util::Vec2 (SSE2 on x86-64, NEON on AArch64). Every build.
const HexKernels& hex_kernels_portable();

// Four rows per 32-byte vector, compiled for AVX2 alone (no FMA). nullptr
// on a non-x86-64 build and on a CPU without AVX2.
const HexKernels* hex_kernels_avx2();

// The instantiation this process runs: AVX2 when the CPU has it, else the
// portable one. Chosen on first use, once per process.
const HexKernels& hex_kernels();

}  // namespace quake::fem::detail
