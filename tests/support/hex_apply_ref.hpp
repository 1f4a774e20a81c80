#pragma once

// Test oracles for the element kernels (fem::hex_apply,
// fem::hex_apply_batch, fem::hex_scalar_apply, the quad kernel of
// wave2d::ShModel and the element-pair passes of wave3d::ScalarModel3d):
// the straight-line references the kernels must match bit for bit, and the
// bench_micro reference rows. Not used by the library.

#include <span>

#include "quake/fem/hex_element.hpp"
#include "quake/wave2d/sh_model.hpp"
#include "quake/wave3d/scalar_model.hpp"

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

// Straight-line row-major dot products: y_e += scale * K_scalar * u_e. The
// floating-point ground truth of fem::hex_scalar_apply, which takes this
// exact operation sequence per row.
void hex_scalar_apply_ref(const fem::HexReference& ref, const double* u_e,
                          double scale, double* y_e);

// Straight-line references of wave2d::ShModel::apply_k (y += K(mu) u) and
// apply_k_delta (y += K(dmu) u), built from the model's public grid(), mu()
// and wave2d::quad_laplacian_reference(): per element, gather u, then one
// row-major dot product per row and y[node] += scale * s.
void sh_apply_k_ref(const wave2d::ShModel& model, std::span<const double> u,
                    std::span<double> y);
void sh_apply_k_delta_ref(const wave2d::ShModel& model,
                          std::span<const double> dmu,
                          std::span<const double> u, std::span<double> y);

// Per-element references of wave3d::ScalarModel3d::apply_k (y += K(mu) u),
// apply_k_delta (y += K(dmu) u, skipping elements whose dmu is zero) and
// accumulate_k_form (ge[e] += lambda_e . h K_scalar u_e), built from the
// model's public grid() and mu(): per element in ascending order, gather
// the 8 corners, fem::hex_scalar_apply onto a zeroed ye, then scatter
// y[conn[c]] += ye[c] in ascending c (or fold sum_c le[c] * ye[c]).
void scalar3d_apply_k_ref(const wave3d::ScalarModel3d& model,
                          std::span<const double> u, std::span<double> y);
void scalar3d_apply_k_delta_ref(const wave3d::ScalarModel3d& model,
                                std::span<const double> dmu,
                                std::span<const double> u,
                                std::span<double> y);
void scalar3d_accumulate_k_form_ref(const wave3d::ScalarModel3d& model,
                                    std::span<const double> lambda,
                                    std::span<const double> u,
                                    std::span<double> ge);

}  // namespace quake::testsupport
