#include "quake/fem/hex_element.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "hex_kernels.hpp"
#include "quake/util/vec2.hpp"

namespace quake::fem {
namespace {

using util::load2;
using util::store2;
using util::Vec2;

// Trilinear shape function derivatives on the unit cube at (x, y, z).
// Node i at corner ((i&1), (i>>1)&1, (i>>2)&1).
struct ShapeGrad {
  std::array<std::array<double, 3>, 8> d;  // d[node][axis]
};

ShapeGrad shape_gradients(double x, double y, double z) {
  ShapeGrad g;
  for (int i = 0; i < 8; ++i) {
    const double sx = (i & 1) ? 1.0 : -1.0;
    const double sy = (i & 2) ? 1.0 : -1.0;
    const double sz = (i & 4) ? 1.0 : -1.0;
    const double fx = (i & 1) ? x : 1.0 - x;
    const double fy = (i & 2) ? y : 1.0 - y;
    const double fz = (i & 4) ? z : 1.0 - z;
    g.d[static_cast<std::size_t>(i)] = {sx * fy * fz, fx * sy * fz,
                                        fx * fy * sz};
  }
  return g;
}

HexReference compute_reference() {
  HexReference ref;
  ref.k_lambda.fill(0.0);
  ref.k_mu.fill(0.0);
  ref.k_lambda_t.fill(0.0);
  ref.k_mu_t.fill(0.0);
  ref.k_scalar.fill(0.0);

  // 2x2 Gauss points on [0,1].
  const double gp[2] = {0.5 - 0.5 / std::sqrt(3.0), 0.5 + 0.5 / std::sqrt(3.0)};
  const double w = 0.125;  // (1/2)^3 per point

  for (double x : gp) {
    for (double y : gp) {
      for (double z : gp) {
        const ShapeGrad g = shape_gradients(x, y, z);
        for (int i = 0; i < 8; ++i) {
          const auto& gi = g.d[static_cast<std::size_t>(i)];
          for (int j = 0; j < 8; ++j) {
            const auto& gj = g.d[static_cast<std::size_t>(j)];
            const double dot3 =
                gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2];
            ref.k_scalar[static_cast<std::size_t>(i * 8 + j)] += w * dot3;
            for (int a = 0; a < 3; ++a) {
              for (int b = 0; b < 3; ++b) {
                const std::size_t row = static_cast<std::size_t>(3 * i + a);
                const std::size_t col = static_cast<std::size_t>(3 * j + b);
                // lambda (div u)(div v): dNi/da * dNj/db.
                ref.k_lambda[row * kHexDofs + col] += w * gi[a] * gj[b];
                // mu term: grad u : grad v  +  grad u : (grad v)^T
                //   = delta_ab (grad Ni . grad Nj) + dNi/db * dNj/da.
                double v = gi[b] * gj[a];
                if (a == b) v += dot3;
                ref.k_mu[row * kHexDofs + col] += w * v;
              }
            }
          }
        }
      }
    }
  }
  for (int r = 0; r < kHexDofs; ++r) {
    for (int c = 0; c < kHexDofs; ++c) {
      const std::size_t rc = static_cast<std::size_t>(r) * kHexDofs +
                             static_cast<std::size_t>(c);
      const std::size_t cr = static_cast<std::size_t>(c) * kHexDofs +
                             static_cast<std::size_t>(r);
      ref.k_lambda_t[cr] = ref.k_lambda[rc];
      ref.k_mu_t[cr] = ref.k_mu[rc];
    }
  }
  return ref;
}

// The one elastic kernel body, generic over its vector type V and behind
// all three public entry points: hex_apply and each element of
// hex_apply_elems (stride 1) and each lane of hex_apply_batch (stride
// n_lanes). Dof c is read at u[c * stride] and row r written at
// y[r * stride]. At stride 1 the stride folds away and the row moves are
// packed.
//
// Row-blocked form of the fused dual matvec. A block of kRowBlock output
// rows accumulates side by side, kW rows per V register: 8 rows at two
// wide (row blocks of 4, 8 and 12 measured alike), all 24 at four wide
// (12 independent add chains; 8 rows measured 10-15% slower). Input dof c
// contributes to all of them with one broadcast of u[c] against contiguous
// runs of the transposed matrices (k_*_t[c * 24 + r0 ...]). Those entries
// are bitwise copies of k_*[r * 24 + c], the matrix entry stays the first
// operand of each product (NaN payloads follow the first operand),
// accumulators start at +0.0 and sum in ascending c, and the epilogue is
// the reference's v = s_lambda * sl + s_mu * sm; y += v; y_damp += beta * v
// — the exact operation sequence of the straight-line reference per row
// (testsupport::hex_apply_ref in tests/support), one row per lane — so the
// kernel is bitwise identical to it at every width.
//
// The explicit vector type is what makes the packed code certain. Written
// as scalar arrays, this loop nest relies on GCC's SLP vectorizer, which
// gives up on it at -O3 and emits scalar mulsd/addsd with spilled
// accumulators; vector-extension arithmetic is packed by construction.
// Batch lanes are not packed into the vector instead: that needs a second
// kernel body with a matrix-entry broadcast per lane pair, and measured no
// faster than this per-lane form (EXPERIMENTS.md).
//
// Always inlined, and V appears only in locals: the body compiles in its
// caller's target context, so the AVX2 instantiation below gets 256-bit
// code, and no 32-byte vector is ever passed by value (-Wpsabi).
template <class V>
[[gnu::always_inline]] inline void hex_apply_rows(
    const HexReference& ref, const double* u, std::size_t stride,
    double scale_lambda, double scale_mu, double* y, double beta_e,
    double* y_damp) {
  constexpr int kW = sizeof(V) / sizeof(double);
  constexpr int kRowBlock = kW == 2 ? 8 : kHexDofs;
  constexpr int kVecs = kRowBlock / kW;
  static_assert(kHexDofs % kRowBlock == 0 && kRowBlock % kW == 0);
  for (int r0 = 0; r0 < kHexDofs; r0 += kRowBlock) {
    V sl[kVecs], sm[kVecs];
    for (int j = 0; j < kVecs; ++j) sl[j] = sm[j] = V{};
    for (int c = 0; c < kHexDofs; ++c) {
      const double uc = u[static_cast<std::size_t>(c) * stride];
      const std::size_t off =
          static_cast<std::size_t>(c) * kHexDofs + static_cast<std::size_t>(r0);
      for (int j = 0; j < kVecs; ++j) {
        // Through memcpy: the reference arrays are only 8-byte aligned.
        V kl{}, km{};
        std::memcpy(&kl, &ref.k_lambda_t[off + kW * j], sizeof kl);
        std::memcpy(&km, &ref.k_mu_t[off + kW * j], sizeof km);
        sl[j] += kl * uc;
        sm[j] += km * uc;
      }
    }
    for (int j = 0; j < kVecs; ++j) {
      const V v = scale_lambda * sl[j] + scale_mu * sm[j];
      const std::size_t r = static_cast<std::size_t>(r0 + kW * j) * stride;
      V acc{};
      for (int i = 0; i < kW; ++i) acc[i] = y[r + i * stride];
      acc += v;
      for (int i = 0; i < kW; ++i) y[r + i * stride] = acc[i];
      if (y_damp != nullptr) {
        for (int i = 0; i < kW; ++i) acc[i] = y_damp[r + i * stride];
        acc += beta_e * v;
        for (int i = 0; i < kW; ++i) y_damp[r + i * stride] = acc[i];
      }
    }
  }
}

// The three call shapes of the public entry points, for one vector type.
template <class V>
void apply_one(const HexReference& ref, const double* u_e,
               double scale_lambda, double scale_mu, double* y_e,
               double beta_e, double* y_damp) {
  hex_apply_rows<V>(ref, u_e, 1, scale_lambda, scale_mu, y_e, beta_e, y_damp);
}

template <class V>
void apply_elems(const HexReference& ref, const double* u_e, int n_elems,
                 const double* scale_lambda, const double* scale_mu,
                 double* y_e, const double* beta_e, double* y_damp) {
  for (int e = 0; e < n_elems; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * kHexDofs;
    hex_apply_rows<V>(ref, u_e + off, 1, scale_lambda[e], scale_mu[e],
                      y_e + off, beta_e != nullptr ? beta_e[e] : 0.0,
                      y_damp != nullptr ? y_damp + off : nullptr);
  }
}

// Lane s is the solo kernel on the dofs at u_e[s + c * n_lanes].
template <class V>
void apply_batch(const HexReference& ref, const double* u_e, int n_lanes,
                 double scale_lambda, double scale_mu, double* y_e,
                 double beta_e, double* y_damp) {
  const std::size_t stride = static_cast<std::size_t>(n_lanes);
  for (std::size_t s = 0; s < stride; ++s) {
    hex_apply_rows<V>(ref, u_e + s, stride, scale_lambda, scale_mu, y_e + s,
                      beta_e, y_damp != nullptr ? y_damp + s : nullptr);
  }
}

// The portable instantiation: two rows per util::Vec2.
constexpr detail::HexKernels kPortable{"portable", &apply_one<Vec2>,
                                       &apply_elems<Vec2>, &apply_batch<Vec2>};

#if defined(__x86_64__)
// The AVX2 instantiation: four rows per util::Vec4, in functions that
// flatten their shape (and so the body) into AVX2 code. The target adds
// AVX2 and nothing else — in particular not FMA, so GCC's default
// -ffp-contract=fast has no fused multiply-add to contract into and each
// lane keeps the reference's separate mul and add.
using util::Vec4;

[[gnu::target("avx2"), gnu::flatten]] void apply_one_avx2(
    const HexReference& ref, const double* u_e, double scale_lambda,
    double scale_mu, double* y_e, double beta_e, double* y_damp) {
  apply_one<Vec4>(ref, u_e, scale_lambda, scale_mu, y_e, beta_e, y_damp);
}

[[gnu::target("avx2"), gnu::flatten]] void apply_elems_avx2(
    const HexReference& ref, const double* u_e, int n_elems,
    const double* scale_lambda, const double* scale_mu, double* y_e,
    const double* beta_e, double* y_damp) {
  apply_elems<Vec4>(ref, u_e, n_elems, scale_lambda, scale_mu, y_e, beta_e,
                    y_damp);
}

[[gnu::target("avx2"), gnu::flatten]] void apply_batch_avx2(
    const HexReference& ref, const double* u_e, int n_lanes,
    double scale_lambda, double scale_mu, double* y_e, double beta_e,
    double* y_damp) {
  apply_batch<Vec4>(ref, u_e, n_lanes, scale_lambda, scale_mu, y_e, beta_e,
                    y_damp);
}

constexpr detail::HexKernels kAvx2{"avx2", &apply_one_avx2, &apply_elems_avx2,
                                   &apply_batch_avx2};
#endif

void throw_bad_lane_count(int n_lanes) {
  throw std::invalid_argument(
      "hex_apply_batch: n_lanes must be in [1, " +
      std::to_string(kMaxBatchLanes) + "], got " + std::to_string(n_lanes));
}

}  // namespace

const HexReference& HexReference::get() {
  static const HexReference ref = compute_reference();
  return ref;
}

namespace detail {

const HexKernels& hex_kernels_portable() { return kPortable; }

const HexKernels* hex_kernels_avx2() {
#if defined(__x86_64__)
  if (util::cpu_has_avx2()) return &kAvx2;
#endif
  return nullptr;
}

const HexKernels& hex_kernels() {
  // A function-local static: chosen on first use, thread-safe, and free of
  // static-initialization order.
  static const HexKernels& chosen = []() -> const HexKernels& {
    const HexKernels* avx2 = hex_kernels_avx2();
    return avx2 != nullptr ? *avx2 : kPortable;
  }();
  return chosen;
}

}  // namespace detail

void hex_apply(const HexReference& ref, const double* u_e, double scale_lambda,
               double scale_mu, double* y_e, double beta_e, double* y_damp) {
  detail::hex_kernels().apply(ref, u_e, scale_lambda, scale_mu, y_e, beta_e,
                              y_damp);
}

void hex_apply_elems(const HexReference& ref, const double* u_e, int n_elems,
                     const double* scale_lambda, const double* scale_mu,
                     double* y_e, const double* beta_e, double* y_damp) {
  detail::hex_kernels().apply_elems(ref, u_e, n_elems, scale_lambda, scale_mu,
                                    y_e, beta_e, y_damp);
}

void hex_apply_batch(const HexReference& ref, const double* u_e, int n_lanes,
                     double scale_lambda, double scale_mu, double* y_e,
                     double beta_e, double* y_damp) {
  // Kept as a real bounds check (not an assert) for release callers: the
  // batch call sites size their element buffers by kMaxBatchLanes.
  if (n_lanes < 1 || n_lanes > kMaxBatchLanes) throw_bad_lane_count(n_lanes);
  detail::hex_kernels().apply_batch(ref, u_e, n_lanes, scale_lambda, scale_mu,
                                    y_e, beta_e, y_damp);
}

void hex_diagonal(const HexReference& ref, double scale_lambda,
                  double scale_mu, std::array<double, kHexDofs>& diag) {
  for (int r = 0; r < kHexDofs; ++r) {
    const std::size_t rr = static_cast<std::size_t>(r) * kHexDofs +
                           static_cast<std::size_t>(r);
    diag[static_cast<std::size_t>(r)] =
        scale_lambda * ref.k_lambda[rr] + scale_mu * ref.k_mu[rr];
  }
}

// Row c of k_scalar stands in for column c (exact symmetry); otherwise each
// lane takes the row loop's operation sequence (see the header).
void hex_scalar_apply(const HexReference& ref, const double* u_e, double scale,
                      double* y_e) {
  constexpr int kVecs = kHexNodes / 2;
  Vec2 s[kVecs];
  for (int j = 0; j < kVecs; ++j) s[j] = Vec2{0.0, 0.0};
  for (int c = 0; c < kHexNodes; ++c) {
    const Vec2 uc = {u_e[c], u_e[c]};
    const double* kc = &ref.k_scalar[static_cast<std::size_t>(c) * kHexNodes];
    for (int j = 0; j < kVecs; ++j) s[j] += load2(kc + 2 * j) * uc;
  }
  const Vec2 sc = {scale, scale};
  for (int j = 0; j < kVecs; ++j) {
    store2(y_e + 2 * j, 1, load2(y_e + 2 * j, 1) + sc * s[j]);
  }
}

}  // namespace quake::fem
