#pragma once

// Trilinear hexahedral element kernels for linear elastodynamics (§2.1-2.2).
//
// The paper's central data-structure idea: every (cube) hexahedral element
// has the SAME stiffness matrix modulo element size and material properties,
//     K_e = h * (lambda_e * K_lambda + mu_e * K_mu),
// where K_lambda and K_mu are dimensionless 24x24 reference matrices
// computed once. No global (or even per-element) matrix is stored; the
// matrix-vector product is recast as local dense element operations.
//
// DOF ordering: interleaved, dof = 3*node + component; local nodes in tensor
// order (node i at offsets ((i&1), (i>>1)&1, (i>>2)&1)).

#include <array>
#include <cstdint>

namespace quake::fem {

inline constexpr int kHexNodes = 8;
inline constexpr int kHexDofs = 24;

// Upper bound on the scenario-batch width the batched kernels accept. The
// batch call sites (par::ParallelSetup's step loop, solver::ElasticOperator)
// gather each element into stack buffers of kHexDofs * kMaxBatchLanes
// doubles; callers clamp batch sizes to it.
inline constexpr int kMaxBatchLanes = 16;

using HexMatrix = std::array<double, kHexDofs * kHexDofs>;       // row-major
using ScalarHexMatrix = std::array<double, kHexNodes * kHexNodes>;

// Reference matrices on the unit cube, 2x2x2 Gauss quadrature (exact for
// trilinear). Element matrices scale linearly with edge length h.
struct HexReference {
  HexMatrix k_lambda;  // from the lambda (div u)(div v) term
  HexMatrix k_mu;      // from the mu strain-strain term
  // Exact transposed copies of k_lambda / k_mu. The blocked hex_apply walks
  // a *column* of the matrix per input dof (so a row-block of output
  // accumulators sees contiguous loads); storing the transpose keeps those
  // loads unit-stride. Entries are bitwise copies of the row-major
  // originals, so the blocked kernel multiplies the identical values.
  HexMatrix k_lambda_t;
  HexMatrix k_mu_t;
  ScalarHexMatrix k_scalar;  // scalar Laplacian (grad u . grad v), for the
                             // SH / scalar-wave solvers

  // Singleton; computed once on first use.
  static const HexReference& get();
};

// y_e += scale_lambda * K_lambda * u_e + scale_mu * K_mu * u_e for one
// element, on interleaved 24-vectors. scale_* = h * lambda_e etc. When
// `y_damp` is non-null it additionally accumulates
// beta_e * (K_e u_e) into it (the element's Rayleigh stiffness damping),
// reusing the same products.
//
// Packed SIMD on every build: a block of output rows accumulates several
// rows per explicit vector register (GCC/Clang vector extension), each
// input dof broadcast against a contiguous run of the transposed reference
// matrices. The explicit vector type is what makes the packed code
// certain; left to the auto-vectorizer, the same loop nest compiled to
// scalar code. The one kernel body is compiled at two widths: two rows per
// register (SSE2 on x86-64, NEON on AArch64) on every build, and on x86-64
// four rows per 32-byte register in code compiled for AVX2 without FMA.
// The process picks the AVX2 instantiation once, at first use, when the
// CPU has AVX2; this entry point, hex_apply_elems and hex_apply_batch all
// run the picked one. Each lane still takes the exact IEEE operation
// sequence of the straight-line reference for its row (the test oracle
// testsupport::hex_apply_ref in tests/support), so results are bitwise
// identical to it at either width, NaN and signed-zero bit patterns
// included (asserted in fem_test for each instantiation). A sum of two
// different NaNs is outside that contract: which one survives follows the
// operand order the compiler picks for a commutative add. The batch
// variant below runs the same body per lane.
void hex_apply(const HexReference& ref, const double* u_e, double scale_lambda,
               double scale_mu, double* y_e, double beta_e, double* y_damp);

// Element-batch entry point: `n_elems` elements packed back to back
// (element e's 24-vector at u_e + e*24, likewise y_e / y_damp) with
// per-element scale factors. Each element undergoes exactly the hex_apply
// operation sequence — the batch exists so gather/scatter call sites can
// hand the kernel a contiguous run of elements (composing with the
// scenario-major lane layout, which batches *within* an element) and so the
// per-call dispatch cost is amortized over the block. `y_damp` may be
// nullptr when no caller lane wants the damping accumulator.
void hex_apply_elems(const HexReference& ref, const double* u_e, int n_elems,
                     const double* scale_lambda, const double* scale_mu,
                     double* y_e, const double* beta_e, double* y_damp);

// Batched (scenario-major) variant: u_e / y_e (/ y_damp) carry `n_lanes`
// independent right-hand sides interleaved per dof — lane s of dof d lives
// at index d * n_lanes + s. Each lane runs hex_apply's kernel body on its
// own dofs, read and written at stride n_lanes, so lane s takes exactly
// the floating-point operation sequence hex_apply performs on it alone and
// batched results are bitwise identical per lane by construction.
//
// Throws std::invalid_argument unless 1 <= n_lanes <= kMaxBatchLanes, the
// width the batch call sites size their element buffers for; a release
// caller with an unchecked oversized width would overflow them. Its test
// oracle is testsupport::hex_apply_batch_ref (tests/support).
void hex_apply_batch(const HexReference& ref, const double* u_e, int n_lanes,
                     double scale_lambda, double scale_mu, double* y_e,
                     double beta_e, double* y_damp);

// Diagonal of K_e = h (lambda K_lambda + mu K_mu), 24 entries.
void hex_diagonal(const HexReference& ref, double scale_lambda,
                  double scale_mu, std::array<double, kHexDofs>& diag);

// Lumped (row-sum) mass per node of a cube element: rho * h^3 / 8.
[[nodiscard]] constexpr double hex_lumped_mass(double rho, double h) {
  return rho * h * h * h / 8.0;
}

// Scalar variant: y_e += scale * K_scalar u_e on 8-vectors (scale =
// mu_e * h in the scalar-wave solvers). Packed 2-wide like hex_apply: rows
// (0,1) .. (6,7) accumulate in four util::Vec2 registers, input node c
// broadcast against row c of k_scalar, which is column c because the matrix
// is exactly symmetric, bit for bit. Each lane takes the straight-line
// reference's IEEE operation sequence for its row (the test oracle
// testsupport::hex_scalar_apply_ref), so results are bitwise identical to
// it for any input and any finite, infinite or zero scale, NaN and signed
// zero bit patterns included (fem_test). A NaN scale is outside that
// contract: it can meet a NaN the input made, and which NaN payload
// survives follows the operand order the compiler picks for a commutative
// operation; two compilations of the reference loop already disagree.
void hex_scalar_apply(const HexReference& ref, const double* u_e, double scale,
                      double* y_e);

// Flop counts for the accounting in the scaling bench (multiply-add = 2).
[[nodiscard]] constexpr std::uint64_t hex_apply_flops(bool with_damp) {
  // Two 24x24 matvecs fused into one loop: per entry 2 mults + 2 adds for
  // the k-products, plus scale/accumulate; damping adds one FMA per row.
  const std::uint64_t base = 24ull * 24ull * 4ull + 24ull * 4ull;
  return with_damp ? base + 24ull * 2ull : base;
}

}  // namespace quake::fem
