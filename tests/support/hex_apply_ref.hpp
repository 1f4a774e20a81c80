#pragma once

// Test oracles for the elastic element kernel (fem::hex_apply and
// fem::hex_apply_batch): the straight-line reference the kernel must match
// bit for bit, and the bench_micro reference rows. Not used by the library.

#include "quake/fem/hex_element.hpp"

namespace quake::testsupport {

// Straight-line row-major dot products: y_e += scale_lambda * K_lambda * u_e
// + scale_mu * K_mu * u_e, and y_damp += beta_e * (K_e u_e) when y_damp is
// non-null. The floating-point ground truth of fem::hex_apply, which takes
// this exact operation sequence per row.
void hex_apply_ref(const fem::HexReference& ref, const double* u_e,
                   double scale_lambda, double scale_mu, double* y_e,
                   double beta_e, double* y_damp);

// Reference of fem::hex_apply_batch: deinterleaves each lane, applies
// hex_apply_ref, reinterleaves. Ground truth by definition — lane s
// literally undergoes the solo operation sequence. Throws
// std::invalid_argument unless 1 <= n_lanes <= fem::kMaxBatchLanes, like
// the kernel it checks.
void hex_apply_batch_ref(const fem::HexReference& ref, const double* u_e,
                         int n_lanes, double scale_lambda, double scale_mu,
                         double* y_e, double beta_e, double* y_damp);

}  // namespace quake::testsupport
