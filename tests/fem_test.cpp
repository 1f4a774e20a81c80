// Tests for the hexahedral element kernels, absorbing-boundary face
// matrices, and the Rayleigh damping fit.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "quake/fem/abc.hpp"
#include "quake/fem/hex_element.hpp"
#include "quake/fem/rayleigh.hpp"
#include "quake/util/rng.hpp"
#include "hex_apply_ref.hpp"
#include "hex_kernels.hpp"

namespace {

using namespace quake::fem;
using quake::fem::detail::HexKernels;
using quake::testsupport::hex_apply_batch_ref;
using quake::testsupport::hex_apply_ref;
using quake::testsupport::hex_scalar_apply_ref;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The kernels each elastic bitwise case checks: the public entry points
// (the instantiation this process picked), then each instantiation of the
// kernel body reached directly. The AVX2 one is there only when the CPU
// has AVX2.
std::vector<HexKernels> kernels_under_test() {
  std::vector<HexKernels> k = {
      {"public", &hex_apply, &hex_apply_elems, &hex_apply_batch},
      quake::fem::detail::hex_kernels_portable()};
  if (const HexKernels* avx2 = quake::fem::detail::hex_kernels_avx2()) {
    k.push_back(*avx2);
  }
  return k;
}

// The last step of each case that runs kernels_under_test(): an x86-64 CPU
// without AVX2 left the AVX2 instantiation unchecked, and the case says so
// by skipping. Other architectures have no AVX2 instantiation to check.
void skip_unless_avx2_checked() {
#if defined(__x86_64__)
  if (quake::fem::detail::hex_kernels_avx2() == nullptr) {
    GTEST_SKIP() << "this CPU lacks AVX2: the avx2 instantiation of the "
                    "elastic kernel was not checked";
  }
#endif
}

// The eight edge-case input kinds of the kernels' bit-pattern tests, as an
// N-vector: signed zeros, subnormals, subnormal products, one +Inf, one
// -Inf, one NaN, +Inf with -Inf (Inf - Inf and Inf * 0 make NaNs), and an
// input NaN meeting NaNs the arithmetic makes. The special slots are taken
// mod N.
constexpr int kEdgeKinds = 8;

template <std::size_t N>
std::array<double, N> edge_input(int kind, quake::util::Rng& r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  std::array<double, N> u{};
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double sign = (i % 3 == 0) ? -1.0 : 1.0;
    if (kind == 0) {
      u[i] = sign * 0.0;  // signed zeros
    } else if (kind == 1) {
      u[i] = sign * kSub * static_cast<double>(i + 1);  // subnormals
    } else if (kind == 2) {
      u[i] = r.uniform(-1.0, 1.0) * 1e-305;  // subnormal products
    } else {
      u[i] = r.uniform(-1.0, 1.0);
    }
  }
  if (kind == 3) u[5 % N] = kInf;
  if (kind == 4) u[7 % N] = -kInf;
  if (kind == 5) u[11 % N] = kNaN;
  if (kind == 6) {  // +Inf and -Inf: Inf - Inf and Inf * 0 make NaNs
    u[2 % N] = kInf;
    u[19 % N] = -kInf;
  }
  if (kind == 7) {  // an input NaN meets NaNs the arithmetic makes
    u[4 % N] = kNaN;
    u[13 % N] = -kInf;
  }
  return u;
}

std::array<double, 3> corner(int i) {
  return {static_cast<double>(i & 1), static_cast<double>((i >> 1) & 1),
          static_cast<double>((i >> 2) & 1)};
}

TEST(HexReference, MatricesAreSymmetric) {
  const HexReference& ref = HexReference::get();
  for (int r = 0; r < kHexDofs; ++r) {
    for (int c = 0; c < kHexDofs; ++c) {
      const std::size_t rc = static_cast<std::size_t>(r * kHexDofs + c);
      const std::size_t cr = static_cast<std::size_t>(c * kHexDofs + r);
      EXPECT_NEAR(ref.k_lambda[rc], ref.k_lambda[cr], 1e-14);
      EXPECT_NEAR(ref.k_mu[rc], ref.k_mu[cr], 1e-14);
    }
  }
}

TEST(HexReference, TranslationsInNullSpace) {
  const HexReference& ref = HexReference::get();
  for (int axis = 0; axis < 3; ++axis) {
    std::array<double, kHexDofs> u{}, y{};
    for (int i = 0; i < 8; ++i) u[static_cast<std::size_t>(3 * i + axis)] = 1.0;
    hex_apply(ref, u.data(), 1.0, 1.0, y.data(), 0.0, nullptr);
    for (double v : y) EXPECT_NEAR(v, 0.0, 1e-13);
  }
}

TEST(HexReference, RigidRotationsInNullSpace) {
  const HexReference& ref = HexReference::get();
  // u = omega x (x - x0): linear field, zero strain.
  const std::array<double, 3> omega = {0.3, -0.7, 1.1};
  std::array<double, kHexDofs> u{}, y{};
  for (int i = 0; i < 8; ++i) {
    const auto x = corner(i);
    u[static_cast<std::size_t>(3 * i + 0)] = omega[1] * x[2] - omega[2] * x[1];
    u[static_cast<std::size_t>(3 * i + 1)] = omega[2] * x[0] - omega[0] * x[2];
    u[static_cast<std::size_t>(3 * i + 2)] = omega[0] * x[1] - omega[1] * x[0];
  }
  hex_apply(ref, u.data(), 1.3, 2.7, y.data(), 0.0, nullptr);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(HexReference, PositiveSemiDefinite) {
  const HexReference& ref = HexReference::get();
  quake::util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<double, kHexDofs> u{}, y{};
    for (double& v : u) v = rng.uniform(-1.0, 1.0);
    hex_apply(ref, u.data(), 1.0, 1.0, y.data(), 0.0, nullptr);
    double quad = 0.0;
    for (int d = 0; d < kHexDofs; ++d) {
      quad += u[static_cast<std::size_t>(d)] * y[static_cast<std::size_t>(d)];
    }
    EXPECT_GE(quad, -1e-12);
  }
}

TEST(HexReference, ScalarLaplacianKnownDiagonal) {
  // Trilinear Poisson element on the unit cube: diagonal entries are 1/3.
  const HexReference& ref = HexReference::get();
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(ref.k_scalar[static_cast<std::size_t>(i * 8 + i)], 1.0 / 3.0,
                1e-12);
  }
  // Row sums vanish (constants in the null space).
  for (int i = 0; i < 8; ++i) {
    double s = 0.0;
    for (int j = 0; j < 8; ++j) {
      s += ref.k_scalar[static_cast<std::size_t>(i * 8 + j)];
    }
    EXPECT_NEAR(s, 0.0, 1e-13);
  }
}

TEST(HexReference, UniaxialPatchEnergy) {
  // u_x = x (unit uniaxial strain): energy density = (lambda/2 + mu), so
  // u^T K u = 2 * (lambda/2 + mu) * volume = lambda + 2 mu on the unit cube.
  const HexReference& ref = HexReference::get();
  const double lambda = 1.7, mu = 0.9;
  std::array<double, kHexDofs> u{}, y{};
  for (int i = 0; i < 8; ++i) {
    u[static_cast<std::size_t>(3 * i)] = corner(i)[0];
  }
  hex_apply(ref, u.data(), lambda, mu, y.data(), 0.0, nullptr);
  double quad = 0.0;
  for (int d = 0; d < kHexDofs; ++d) {
    quad += u[static_cast<std::size_t>(d)] * y[static_cast<std::size_t>(d)];
  }
  EXPECT_NEAR(quad, lambda + 2.0 * mu, 1e-12);
}

TEST(HexApply, MatchesDiagonalExtraction) {
  const HexReference& ref = HexReference::get();
  std::array<double, kHexDofs> diag;
  hex_diagonal(ref, 2.0, 3.0, diag);
  for (int d = 0; d < kHexDofs; ++d) {
    std::array<double, kHexDofs> u{}, y{};
    u[static_cast<std::size_t>(d)] = 1.0;
    hex_apply(ref, u.data(), 2.0, 3.0, y.data(), 0.0, nullptr);
    EXPECT_NEAR(y[static_cast<std::size_t>(d)], diag[static_cast<std::size_t>(d)],
                1e-14);
  }
}

TEST(HexApply, DampingAccumulatorIsScaledCopy) {
  const HexReference& ref = HexReference::get();
  quake::util::Rng rng(8);
  std::array<double, kHexDofs> u{}, y{}, d{};
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  const double beta = 0.037;
  hex_apply(ref, u.data(), 1.1, 0.6, y.data(), beta, d.data());
  for (int i = 0; i < kHexDofs; ++i) {
    EXPECT_NEAR(d[static_cast<std::size_t>(i)],
                beta * y[static_cast<std::size_t>(i)], 1e-13);
  }
}

TEST(HexReference, TransposedMatricesAreExactCopies) {
  // The blocked hex_apply reads k_lambda_t / k_mu_t; they must be bitwise
  // transposes of the row-major originals or the kernel multiplies
  // different values than the reference.
  const HexReference& ref = HexReference::get();
  for (int r = 0; r < kHexDofs; ++r) {
    for (int c = 0; c < kHexDofs; ++c) {
      const std::size_t rc = static_cast<std::size_t>(r * kHexDofs + c);
      const std::size_t cr = static_cast<std::size_t>(c * kHexDofs + r);
      EXPECT_EQ(ref.k_lambda[rc], ref.k_lambda_t[cr]);
      EXPECT_EQ(ref.k_mu[rc], ref.k_mu_t[cr]);
    }
  }
}

TEST(HexApplyVectorized, BitwiseMatchesReference) {
  // The blocked kernel must be bitwise identical to the straight-line
  // reference — every downstream contract (warm-vs-cold, batch-vs-solo,
  // recovery-vs-undisturbed) assumes the element apply is deterministic to
  // the last bit. Randomized inputs, damping on and off, nonzero initial
  // accumulators (the kernel adds into y); every kernel under test.
  const HexReference& ref = HexReference::get();
  const std::vector<HexKernels> kernels = kernels_under_test();
  quake::util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<double, kHexDofs> u{}, y0{}, d0{};
    for (double& v : u) v = rng.uniform(-1.0, 1.0);
    for (int i = 0; i < kHexDofs; ++i) {
      y0[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      d0[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
    }
    const double sl = rng.uniform(0.1, 4.0);
    const double sm = rng.uniform(0.1, 4.0);
    const bool damp = (trial % 2) == 0;
    const double beta = damp ? rng.uniform(0.0, 0.1) : 0.0;
    std::array<double, kHexDofs> y_b = y0, d_b = d0;
    hex_apply_ref(ref, u.data(), sl, sm, y_b.data(), beta,
                  damp ? d_b.data() : nullptr);
    for (const HexKernels& k : kernels) {
      std::array<double, kHexDofs> y_a = y0, d_a = d0;
      k.apply(ref, u.data(), sl, sm, y_a.data(), beta,
              damp ? d_a.data() : nullptr);
      for (std::size_t i = 0; i < y_a.size(); ++i) {
        EXPECT_EQ(y_a[i], y_b[i]) << k.name << " trial=" << trial;
        EXPECT_EQ(d_a[i], d_b[i]) << k.name << " trial=" << trial;
      }
    }
  }
  skip_unless_avx2_checked();
}

TEST(HexApplyVectorized, BatchBitwiseMatchesReferenceAllLanes) {
  // Every lane width 1..kMaxBatchLanes, damping on/off, every kernel under
  // test: the batch kernel must match hex_apply_batch_ref bit for bit, and
  // each lane must match a solo hex_apply_ref on its deinterleaved data.
  // Compared as bit patterns: EXPECT_EQ on the doubles would pass
  // -0.0 == +0.0.
  const HexReference& ref = HexReference::get();
  const std::vector<HexKernels> kernels = kernels_under_test();
  quake::util::Rng rng(23);
  for (int lanes = 1; lanes <= kMaxBatchLanes; ++lanes) {
    const std::size_t n = static_cast<std::size_t>(kHexDofs * lanes);
    for (int rep = 0; rep < 4; ++rep) {
      const bool damp = (rep % 2) == 0;
      std::vector<double> u(n), y0(n), d0(n);
      for (double& v : u) v = rng.uniform(-1.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        y0[i] = rng.uniform(-1.0, 1.0);
        d0[i] = rng.uniform(-1.0, 1.0);
      }
      const double sl = rng.uniform(0.1, 4.0);
      const double sm = rng.uniform(0.1, 4.0);
      const double beta = damp ? rng.uniform(0.0, 0.1) : 0.0;
      std::vector<double> y_b = y0, d_b = d0;
      hex_apply_batch_ref(ref, u.data(), lanes, sl, sm, y_b.data(), beta,
                          damp ? d_b.data() : nullptr);
      for (const HexKernels& k : kernels) {
        std::vector<double> y_a = y0, d_a = d0;
        k.apply_batch(ref, u.data(), lanes, sl, sm, y_a.data(), beta,
                      damp ? d_a.data() : nullptr);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(y_a[i]), bits(y_b[i]))
              << k.name << " lanes=" << lanes << " i=" << i;
          EXPECT_EQ(bits(d_a[i]), bits(d_b[i]))
              << k.name << " lanes=" << lanes << " i=" << i;
        }
      }
      // Per-lane identity against the solo reference kernel on the same
      // initial accumulators, deinterleaved: y_b stands for every kernel,
      // each compared with it bit for bit above.
      for (int s = 0; s < lanes; ++s) {
        std::array<double, kHexDofs> us{}, ys{}, ds{};
        for (int dof = 0; dof < kHexDofs; ++dof) {
          const std::size_t bi = static_cast<std::size_t>(dof * lanes + s);
          us[static_cast<std::size_t>(dof)] = u[bi];
          ys[static_cast<std::size_t>(dof)] = y0[bi];
          ds[static_cast<std::size_t>(dof)] = d0[bi];
        }
        hex_apply_ref(ref, us.data(), sl, sm, ys.data(), beta,
                      damp ? ds.data() : nullptr);
        for (int dof = 0; dof < kHexDofs; ++dof) {
          const std::size_t bi = static_cast<std::size_t>(dof * lanes + s);
          EXPECT_EQ(bits(y_b[bi]), bits(ys[static_cast<std::size_t>(dof)]))
              << "lanes=" << lanes << " lane=" << s << " dof=" << dof;
          EXPECT_EQ(bits(d_b[bi]), bits(ds[static_cast<std::size_t>(dof)]))
              << "lanes=" << lanes << " lane=" << s << " dof=" << dof;
        }
      }
    }
  }
  skip_unless_avx2_checked();
}

TEST(HexApplyBatch, RejectsBadLaneCount) {
  // Regression: this used to be only an assert, so release callers with an
  // oversized width silently overflowed the kernel's stack accumulators.
  const HexReference& ref = HexReference::get();
  std::vector<double> u(static_cast<std::size_t>(kHexDofs) *
                            (kMaxBatchLanes + 1),
                        0.0);
  std::vector<double> y = u;
  EXPECT_THROW(hex_apply_batch(ref, u.data(), 0, 1.0, 1.0, y.data(), 0.0,
                               nullptr),
               std::invalid_argument);
  EXPECT_THROW(hex_apply_batch(ref, u.data(), -3, 1.0, 1.0, y.data(), 0.0,
                               nullptr),
               std::invalid_argument);
  EXPECT_THROW(hex_apply_batch(ref, u.data(), kMaxBatchLanes + 1, 1.0, 1.0,
                               y.data(), 0.0, nullptr),
               std::invalid_argument);
  EXPECT_THROW(hex_apply_batch_ref(ref, u.data(), kMaxBatchLanes + 1, 1.0,
                                   1.0, y.data(), 0.0, nullptr),
               std::invalid_argument);
}

TEST(HexApplyElems, MatchesElementAtATimeBitwise) {
  // The element-batch entry point must be a pure restructure: each packed
  // element sees exactly the solo hex_apply sequence.
  const HexReference& ref = HexReference::get();
  quake::util::Rng rng(31);
  constexpr int kN = 11;  // odd, so a non-multiple of any pack width
  std::vector<double> u(static_cast<std::size_t>(kN) * kHexDofs);
  std::vector<double> y_a(u.size(), 0.0), y_b(u.size(), 0.0);
  std::vector<double> d_a(u.size(), 0.0), d_b(u.size(), 0.0);
  std::array<double, kN> sl, sm, beta;
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (int e = 0; e < kN; ++e) {
    sl[static_cast<std::size_t>(e)] = rng.uniform(0.1, 4.0);
    sm[static_cast<std::size_t>(e)] = rng.uniform(0.1, 4.0);
    beta[static_cast<std::size_t>(e)] = rng.uniform(0.0, 0.1);
  }
  hex_apply_elems(ref, u.data(), kN, sl.data(), sm.data(), y_a.data(),
                  beta.data(), d_a.data());
  for (int e = 0; e < kN; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * kHexDofs;
    hex_apply(ref, u.data() + off, sl[static_cast<std::size_t>(e)],
              sm[static_cast<std::size_t>(e)], y_b.data() + off,
              beta[static_cast<std::size_t>(e)], d_b.data() + off);
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(y_a[i], y_b[i]);
    EXPECT_EQ(d_a[i], d_b[i]);
  }
}

TEST(HexApplyVectorized, EdgeCaseInputsMatchReferenceBitPatterns) {
  // Bit-for-bit, not value equality: EXPECT_EQ would pass -0.0 == +0.0 and
  // fail NaN == NaN, so compare the bytes. Each lane of the packed kernel
  // must take the reference's IEEE operations in the reference's order, so
  // signed zeros, subnormals, infinities and NaNs come out identical. Each
  // case also runs the batch kernel at several widths with lane s carrying
  // the vector of kind (kind + s) % 8, so NaN and Inf lanes sit next to
  // finite ones. Every kernel under test.
  const HexReference& ref = HexReference::get();
  const std::vector<HexKernels> kernels = kernels_under_test();
  const std::array<std::pair<double, double>, 6> scales = {{
      {1.0, 1.0}, {-2.5, 0.75}, {3.0, -1.25}, {-0.5, -4.0},
      {1e-300, 1e-300}, {-1e-12, 1e-12}}};
  quake::util::Rng rng(41);
  quake::util::Rng rng_batch(47);
  for (int kind = 0; kind < kEdgeKinds; ++kind) {
    for (const auto& [sl, sm] : scales) {
      for (const bool damp : {false, true}) {
        const auto u = edge_input<kHexDofs>(kind, rng);
        std::array<double, kHexDofs> y_a{}, d_a{};
        for (std::size_t i = 0; i < y_a.size(); ++i) {
          y_a[i] = (i % 4 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
          d_a[i] = (i % 5 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        std::array<double, kHexDofs> y_b = y_a, d_b = d_a;
        const double beta = damp ? -0.03 : 0.0;
        hex_apply_ref(ref, u.data(), sl, sm, y_b.data(), beta,
                      damp ? d_b.data() : nullptr);
        for (const HexKernels& k : kernels) {
          std::array<double, kHexDofs> y_k = y_a, d_k = d_a;
          k.apply(ref, u.data(), sl, sm, y_k.data(), beta,
                  damp ? d_k.data() : nullptr);
          EXPECT_EQ(std::memcmp(y_k.data(), y_b.data(), sizeof y_k), 0)
              << k.name << " kind=" << kind << " sl=" << sl << " sm=" << sm
              << " damp=" << damp;
          EXPECT_EQ(std::memcmp(d_k.data(), d_b.data(), sizeof d_k), 0)
              << k.name << " kind=" << kind << " sl=" << sl << " sm=" << sm
              << " damp=" << damp;
        }

        for (const int lanes : {1, 2, 3, 7, 8, 16}) {
          const std::size_t n_lanes = static_cast<std::size_t>(lanes);
          const std::size_t n = static_cast<std::size_t>(kHexDofs) * n_lanes;
          std::vector<double> ub(n), yb_a(n), db_a(n);
          for (std::size_t s = 0; s < n_lanes; ++s) {
            const auto us = edge_input<kHexDofs>(
                (kind + static_cast<int>(s)) % kEdgeKinds, rng_batch);
            for (std::size_t dof = 0; dof < us.size(); ++dof) {
              ub[dof * n_lanes + s] = us[dof];
            }
          }
          for (std::size_t i = 0; i < n; ++i) {
            yb_a[i] = (i % 4 == 0) ? -0.0 : rng_batch.uniform(-1.0, 1.0);
            db_a[i] = (i % 5 == 0) ? -0.0 : rng_batch.uniform(-1.0, 1.0);
          }
          std::vector<double> yb_b = yb_a, db_b = db_a;
          hex_apply_batch_ref(ref, ub.data(), lanes, sl, sm, yb_b.data(),
                              beta, damp ? db_b.data() : nullptr);
          for (const HexKernels& k : kernels) {
            std::vector<double> yb_k = yb_a, db_k = db_a;
            k.apply_batch(ref, ub.data(), lanes, sl, sm, yb_k.data(), beta,
                          damp ? db_k.data() : nullptr);
            EXPECT_EQ(
                std::memcmp(yb_k.data(), yb_b.data(), n * sizeof(double)), 0)
                << k.name << " lanes=" << lanes << " kind=" << kind
                << " sl=" << sl << " sm=" << sm << " damp=" << damp;
            EXPECT_EQ(
                std::memcmp(db_k.data(), db_b.data(), n * sizeof(double)), 0)
                << k.name << " lanes=" << lanes << " kind=" << kind
                << " sl=" << sl << " sm=" << sm << " damp=" << damp;
          }
        }
      }
    }
  }
  // Zeros signed so that every product of row 0 of k_lambda is -0.0: only
  // the +0.0 accumulator start turns that row's lambda sum into +0.0, and
  // y[0] = -0.0 + v shows it for some signs of the scales (the eight kinds
  // above never make a row's products all -0.0).
  std::array<double, kHexDofs> u_neg{};
  for (std::size_t c = 0; c < u_neg.size(); ++c) {
    u_neg[c] = ref.k_lambda[c] < 0.0 ? 0.0 : -0.0;
  }
  for (const auto& [sl, sm] : scales) {
    for (const bool damp : {false, true}) {
      const double beta = damp ? -0.03 : 0.0;
      std::array<double, kHexDofs> y_b{}, d_b{};
      y_b.fill(-0.0);
      d_b.fill(-0.0);
      hex_apply_ref(ref, u_neg.data(), sl, sm, y_b.data(), beta,
                    damp ? d_b.data() : nullptr);
      for (const HexKernels& k : kernels) {
        std::array<double, kHexDofs> y_k{}, d_k{};
        y_k.fill(-0.0);
        d_k.fill(-0.0);
        k.apply(ref, u_neg.data(), sl, sm, y_k.data(), beta,
                damp ? d_k.data() : nullptr);
        EXPECT_EQ(std::memcmp(y_k.data(), y_b.data(), sizeof y_k), 0)
            << k.name << " row-0 negative zeros, sl=" << sl << " sm=" << sm
            << " damp=" << damp;
        EXPECT_EQ(std::memcmp(d_k.data(), d_b.data(), sizeof d_k), 0)
            << k.name << " row-0 negative zeros, sl=" << sl << " sm=" << sm
            << " damp=" << damp;
      }
    }
  }
  skip_unless_avx2_checked();
}

TEST(HexApplyElems, EveryPackSizeMatchesReferenceBitwise) {
  // The operator hands hex_apply_elems packs of 1..8 elements (the last
  // pack of a sweep is short). Every pack size must reproduce the straight-
  // line reference per element, damping on and off, for every kernel under
  // test.
  const HexReference& ref = HexReference::get();
  const std::vector<HexKernels> kernels = kernels_under_test();
  quake::util::Rng rng(43);
  for (int n = 1; n <= 8; ++n) {
    for (const bool damp : {false, true}) {
      const std::size_t len = static_cast<std::size_t>(n) * kHexDofs;
      std::vector<double> u(len), y_a(len), d_a(len);
      std::vector<double> sl(static_cast<std::size_t>(n)), sm(sl.size()),
          beta(sl.size());
      for (double& v : u) v = rng.uniform(-1.0, 1.0);
      for (std::size_t i = 0; i < len; ++i) {
        y_a[i] = rng.uniform(-1.0, 1.0);
        d_a[i] = rng.uniform(-1.0, 1.0);
      }
      for (std::size_t e = 0; e < sl.size(); ++e) {
        sl[e] = rng.uniform(0.1, 4.0);
        sm[e] = rng.uniform(0.1, 4.0);
        beta[e] = rng.uniform(0.0, 0.1);
      }
      std::vector<double> y_b = y_a, d_b = d_a;
      for (std::size_t e = 0; e < sl.size(); ++e) {
        const std::size_t off = e * kHexDofs;
        hex_apply_ref(ref, u.data() + off, sl[e], sm[e], y_b.data() + off,
                      damp ? beta[e] : 0.0,
                      damp ? d_b.data() + off : nullptr);
      }
      for (const HexKernels& k : kernels) {
        std::vector<double> y_k = y_a, d_k = d_a;
        k.apply_elems(ref, u.data(), n, sl.data(), sm.data(), y_k.data(),
                      damp ? beta.data() : nullptr,
                      damp ? d_k.data() : nullptr);
        EXPECT_EQ(std::memcmp(y_k.data(), y_b.data(), len * sizeof(double)),
                  0)
            << k.name << " pack=" << n << " damp=" << damp;
        EXPECT_EQ(std::memcmp(d_k.data(), d_b.data(), len * sizeof(double)),
                  0)
            << k.name << " pack=" << n << " damp=" << damp;
      }
    }
  }
  skip_unless_avx2_checked();
}

TEST(HexReference, ScalarMatrixIsExactlySymmetric) {
  // hex_scalar_apply multiplies by row c of k_scalar where the reference
  // multiplies by column c; that is the same product only if the two hold
  // the same bits (value equality would pass -0.0 == +0.0).
  const HexReference& ref = HexReference::get();
  for (int r = 0; r < kHexNodes; ++r) {
    for (int c = 0; c < kHexNodes; ++c) {
      EXPECT_EQ(bits(ref.k_scalar[static_cast<std::size_t>(r * kHexNodes + c)]),
                bits(ref.k_scalar[static_cast<std::size_t>(c * kHexNodes + r)]))
          << "r=" << r << " c=" << c;
    }
  }
}

TEST(HexScalarApply, BitwiseMatchesReference) {
  // The row-pair kernel against the straight-line row loop: random inputs
  // and scales, nonzero initial accumulators (the kernel adds into y).
  const HexReference& ref = HexReference::get();
  quake::util::Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<double, kHexNodes> u{}, y_a{};
    for (double& v : u) v = rng.uniform(-1.0, 1.0);
    for (double& v : y_a) v = rng.uniform(-1.0, 1.0);
    std::array<double, kHexNodes> y_b = y_a;
    const double scale = rng.uniform(-4.0, 4.0);
    hex_scalar_apply(ref, u.data(), scale, y_a.data());
    hex_scalar_apply_ref(ref, u.data(), scale, y_b.data());
    EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), sizeof y_a), 0)
        << "trial=" << trial;
  }
}

TEST(HexScalarApply, EdgeCaseInputsMatchReferenceBitPatterns) {
  // The eight input kinds of the elastic kernel's bit-pattern test, under
  // finite, infinite and signed-zero scales, compared as bytes. A NaN scale
  // is not part of the contract: scale * s can then meet a NaN the input
  // made in s (Inf - Inf, Inf * 0), and which of two NaN payloads survives
  // follows the operand order the compiler picks for the commutative
  // multiply. Two compilations of the reference loop itself already
  // disagree on that, so no kernel form could pin it.
  const HexReference& ref = HexReference::get();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::array<double, 8> scales = {1.0,  -2.5, 1e-300, -1e-12,
                                        kInf, -kInf, 0.0,   -0.0};
  quake::util::Rng rng(53);
  for (int kind = 0; kind < kEdgeKinds; ++kind) {
    for (const double scale : scales) {
      const auto u = edge_input<kHexNodes>(kind, rng);
      std::array<double, kHexNodes> y_a{};
      for (std::size_t i = 0; i < y_a.size(); ++i) {
        y_a[i] = (i % 4 == 0) ? -0.0 : rng.uniform(-1.0, 1.0);
      }
      std::array<double, kHexNodes> y_b = y_a;
      hex_scalar_apply(ref, u.data(), scale, y_a.data());
      hex_scalar_apply_ref(ref, u.data(), scale, y_b.data());
      EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), sizeof y_a), 0)
          << "kind=" << kind << " scale=" << scale;
    }
  }
  // Zeros signed so that every product of row 0 is -0.0: only the +0.0
  // accumulator start turns that row's sum, and so y[0] = -0.0 + scale * s,
  // into +0.0.
  std::array<double, kHexNodes> u{};
  for (int c = 0; c < kHexNodes; ++c) {
    u[static_cast<std::size_t>(c)] =
        ref.k_scalar[static_cast<std::size_t>(c)] < 0.0 ? 0.0 : -0.0;
  }
  for (const double scale : scales) {
    std::array<double, kHexNodes> y_a{}, y_b{};
    y_a.fill(-0.0);
    y_b.fill(-0.0);
    hex_scalar_apply(ref, u.data(), scale, y_a.data());
    hex_scalar_apply_ref(ref, u.data(), scale, y_b.data());
    EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), sizeof y_a), 0)
        << "row-0 negative zeros, scale=" << scale;
  }
}

TEST(FaceReference, RowSumsVanish) {
  const FaceReference& ref = FaceReference::get();
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 4; ++i) {
      double s = 0.0;
      for (int j = 0; j < 4; ++j) {
        s += ref.d[static_cast<std::size_t>(t)][static_cast<std::size_t>(i * 4 + j)];
      }
      EXPECT_NEAR(s, 0.0, 1e-14);
    }
  }
}

TEST(FaceReference, ColumnSumsAreHalf) {
  // sum_i integral(N_i dN_j/dxi) = integral(dN_j/dxi) = +/- 1/2.
  const FaceReference& ref = FaceReference::get();
  for (int t = 0; t < 2; ++t) {
    for (int j = 0; j < 4; ++j) {
      double s = 0.0;
      for (int i = 0; i < 4; ++i) {
        s += ref.d[static_cast<std::size_t>(t)][static_cast<std::size_t>(i * 4 + j)];
      }
      EXPECT_NEAR(std::abs(s), 0.5, 1e-13);
    }
  }
}

TEST(Abc, DashpotImpedances) {
  const auto m = quake::vel::Material::from_velocities(2000.0, 1000.0, 2000.0);
  const double h = 10.0;
  const auto c = face_dashpot_coeffs(m, h, quake::mesh::BoundarySide::kXMax);
  // Normal (x) component carries rho*vp, tangentials rho*vs; area h^2/4.
  EXPECT_NEAR(c[0], 2000.0 * 2000.0 * 25.0, 1e-6);
  EXPECT_NEAR(c[1], 2000.0 * 1000.0 * 25.0, 1e-6);
  EXPECT_NEAR(c[2], 2000.0 * 1000.0 * 25.0, 1e-6);
}

TEST(Abc, StaceyVanishesForUniformField) {
  // Constant displacement has zero tangential derivatives: no K^AB force.
  const auto m = quake::vel::Material::from_velocities(2000.0, 1000.0, 2000.0);
  double u[12], y[12] = {0.0};
  for (int i = 0; i < 12; ++i) u[i] = (i % 3 == 0) ? 0.7 : -0.2;
  face_stacey_apply(m, 5.0, quake::mesh::BoundarySide::kZMax, u, y);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-13);
}

TEST(Abc, StaceySignFlipsWithFaceOrientation) {
  const auto m = quake::vel::Material::from_velocities(2000.0, 1000.0, 2000.0);
  quake::util::Rng rng(4);
  double u[12], y_min[12] = {0.0}, y_max[12] = {0.0};
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  face_stacey_apply(m, 5.0, quake::mesh::BoundarySide::kXMin, u, y_min);
  face_stacey_apply(m, 5.0, quake::mesh::BoundarySide::kXMax, u, y_max);
  for (int i = 0; i < 12; ++i) EXPECT_NEAR(y_min[i], -y_max[i], 1e-12);
}

TEST(Rayleigh, FitApproximatesTargetInBand) {
  const double xi = 0.02;
  const RayleighCoeffs c = fit_rayleigh(xi, 0.1, 1.0);
  EXPECT_GE(c.alpha, 0.0);
  EXPECT_GE(c.beta, 0.0);
  for (double f = 0.15; f <= 0.8; f += 0.1) {
    EXPECT_NEAR(damping_ratio_at(c, f), xi, 0.5 * xi);
  }
}

TEST(Rayleigh, OverdampsOutsideBand) {
  // "very low and very high frequencies are overdamped" (paper, section 2.2).
  const RayleighCoeffs c = fit_rayleigh(0.02, 0.1, 1.0);
  EXPECT_GT(damping_ratio_at(c, 0.001), 0.02);
  EXPECT_GT(damping_ratio_at(c, 100.0), 0.02);
}

TEST(Rayleigh, TargetRatioSoilRule) {
  // Softer soils dissipate more; values clamped to [0.001, 0.05].
  EXPECT_GT(target_damping_ratio(150.0), target_damping_ratio(1500.0));
  EXPECT_LE(target_damping_ratio(1.0), 0.05);
  EXPECT_GE(target_damping_ratio(1e9), 0.001);
}

TEST(Rayleigh, BadBandThrows) {
  EXPECT_THROW(fit_rayleigh(0.02, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(fit_rayleigh(-0.1, 0.1, 1.0), std::invalid_argument);
}

}  // namespace
