#pragma once

// The element kernels' explicit vector types, through the GCC/Clang vector
// extension. Each lane performs exactly the IEEE operation written, which
// is what lets a packed kernel match its straight-line reference bit for
// bit. Every kernel runs on Vec2 on every build. The elastic kernel body
// (fem/hex_element.cpp) and ScalarModel3d's element passes
// (wave3d/scalar_model.cpp) are also compiled at Vec4 inside functions
// that target AVX2 alone, and run there when cpu_has_avx2() says so.

#include <cstddef>
#include <cstring>

namespace quake::util {

// Two doubles in one SSE2 (x86-64) or NEON (AArch64) register.
typedef double Vec2 __attribute__((vector_size(16)));

// Four doubles in one AVX2 register. Used only inside functions compiled
// for AVX2: outside them it is lowered to pairs of 16-byte operations, and
// passing one by value changes the ABI (-Wpsabi).
typedef double Vec4 __attribute__((vector_size(32)));

// Whether this process runs the AVX2 instantiations of the kernels: true
// on an x86-64 CPU with AVX2, probed once per process. The one ISA
// decision every kernel dispatcher reads.
inline bool cpu_has_avx2() {
#if defined(__x86_64__)
  static const bool has = [] {
    // Safe before libgcc's own constructor has run, e.g. from a static
    // initializer elsewhere that applies a kernel.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

// Two contiguous doubles. Through memcpy: the reference arrays are only
// 8-byte aligned.
inline Vec2 load2(const double* p) {
  Vec2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Rows r and r + 1 of a vector whose rows sit `stride` doubles apart; at
// stride 1 these compile to one unaligned packed load or store.
inline Vec2 load2(const double* p, std::size_t stride) {
  return Vec2{p[0], p[stride]};
}

inline void store2(double* p, std::size_t stride, Vec2 v) {
  p[0] = v[0];
  p[stride] = v[1];
}

}  // namespace quake::util
