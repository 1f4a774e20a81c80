#pragma once

// The element kernels' portable explicit vector type: two doubles in one
// SSE2 (x86-64) or NEON (AArch64) register, through the GCC/Clang vector
// extension. Each lane performs exactly the IEEE operation written, which
// is what lets a packed kernel match its straight-line reference bit for
// bit. Every kernel runs on it on every build; the elastic kernel body is
// also compiled at four doubles per 32-byte vector for AVX2 CPUs, a type
// local to fem/hex_element.cpp.

#include <cstddef>
#include <cstring>

namespace quake::util {

typedef double Vec2 __attribute__((vector_size(16)));

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
