#include "hex_apply_ref.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace quake::testsupport {
namespace {

// The quad rows of sh_apply_k_ref / sh_apply_k_delta_ref for element e.
void sh_element_ref(const wave2d::ShModel& model, int e, double scale,
                    std::span<const double> u, std::span<double> y) {
  const auto& kr = wave2d::quad_laplacian_reference();
  int conn[4];
  model.grid().elem_nodes(e, conn);
  double ue[4];
  for (int i = 0; i < 4; ++i) ue[i] = u[static_cast<std::size_t>(conn[i])];
  for (int i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int j = 0; j < 4; ++j) {
      s += kr[static_cast<std::size_t>(i * 4 + j)] * ue[j];
    }
    y[static_cast<std::size_t>(conn[i])] += scale * s;
  }
}

}  // namespace

using fem::kHexDofs;
using fem::kHexNodes;

void hex_apply_ref(const fem::HexReference& ref, const double* u_e,
                   double scale_lambda, double scale_mu, double* y_e,
                   double beta_e, double* y_damp) {
  for (int r = 0; r < kHexDofs; ++r) {
    const double* kl = &ref.k_lambda[static_cast<std::size_t>(r) * kHexDofs];
    const double* km = &ref.k_mu[static_cast<std::size_t>(r) * kHexDofs];
    double sl = 0.0, sm = 0.0;
    for (int c = 0; c < kHexDofs; ++c) {
      sl += kl[c] * u_e[c];
      sm += km[c] * u_e[c];
    }
    const double v = scale_lambda * sl + scale_mu * sm;
    y_e[r] += v;
    if (y_damp != nullptr) y_damp[r] += beta_e * v;
  }
}

void hex_apply_batch_ref(const fem::HexReference& ref, const double* u_e,
                         int n_lanes, double scale_lambda, double scale_mu,
                         double* y_e, double beta_e, double* y_damp) {
  if (n_lanes < 1 || n_lanes > fem::kMaxBatchLanes) {
    throw std::invalid_argument(
        "hex_apply_batch_ref: n_lanes must be in [1, " +
        std::to_string(fem::kMaxBatchLanes) + "], got " +
        std::to_string(n_lanes));
  }
  double us[kHexDofs], ys[kHexDofs], ds[kHexDofs];
  for (int s = 0; s < n_lanes; ++s) {
    for (int d = 0; d < kHexDofs; ++d) {
      const std::size_t idx = static_cast<std::size_t>(d) * n_lanes +
                              static_cast<std::size_t>(s);
      us[d] = u_e[idx];
      ys[d] = y_e[idx];
      if (y_damp != nullptr) ds[d] = y_damp[idx];
    }
    hex_apply_ref(ref, us, scale_lambda, scale_mu, ys, beta_e,
                  y_damp != nullptr ? ds : nullptr);
    for (int d = 0; d < kHexDofs; ++d) {
      const std::size_t idx = static_cast<std::size_t>(d) * n_lanes +
                              static_cast<std::size_t>(s);
      y_e[idx] = ys[d];
      if (y_damp != nullptr) y_damp[idx] = ds[d];
    }
  }
}

void hex_scalar_apply_ref(const fem::HexReference& ref, const double* u_e,
                          double scale, double* y_e) {
  for (int r = 0; r < kHexNodes; ++r) {
    const double* k = &ref.k_scalar[static_cast<std::size_t>(r) * kHexNodes];
    double s = 0.0;
    for (int c = 0; c < kHexNodes; ++c) s += k[c] * u_e[c];
    y_e[r] += scale * s;
  }
}

void sh_apply_k_ref(const wave2d::ShModel& model, std::span<const double> u,
                    std::span<double> y) {
  for (int e = 0; e < model.grid().n_elems(); ++e) {
    sh_element_ref(model, e, model.mu()[static_cast<std::size_t>(e)], u, y);
  }
}

void sh_apply_k_delta_ref(const wave2d::ShModel& model,
                          std::span<const double> dmu,
                          std::span<const double> u, std::span<double> y) {
  for (int e = 0; e < model.grid().n_elems(); ++e) {
    const double d = dmu[static_cast<std::size_t>(e)];
    if (d == 0.0) continue;
    sh_element_ref(model, e, d, u, y);
  }
}

void scalar3d_apply_k_ref(const wave3d::ScalarModel3d& model,
                          std::span<const double> u, std::span<double> y) {
  const wave3d::ScalarGrid3d& grid = model.grid();
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8];
  for (int e = 0; e < grid.n_elems(); ++e) {
    grid.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) ue[c] = u[static_cast<std::size_t>(conn[c])];
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue,
                          model.mu()[static_cast<std::size_t>(e)] * grid.h, ye);
    for (int c = 0; c < 8; ++c) y[static_cast<std::size_t>(conn[c])] += ye[c];
  }
}

void scalar3d_apply_k_delta_ref(const wave3d::ScalarModel3d& model,
                                std::span<const double> dmu,
                                std::span<const double> u,
                                std::span<double> y) {
  const wave3d::ScalarGrid3d& grid = model.grid();
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8];
  for (int e = 0; e < grid.n_elems(); ++e) {
    const double d = dmu[static_cast<std::size_t>(e)];
    if (d == 0.0) continue;
    grid.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) ue[c] = u[static_cast<std::size_t>(conn[c])];
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue, d * grid.h, ye);
    for (int c = 0; c < 8; ++c) y[static_cast<std::size_t>(conn[c])] += ye[c];
  }
}

void scalar3d_accumulate_k_form_ref(const wave3d::ScalarModel3d& model,
                                    std::span<const double> lambda,
                                    std::span<const double> u,
                                    std::span<double> ge) {
  const wave3d::ScalarGrid3d& grid = model.grid();
  const auto& kr = fem::HexReference::get();
  int conn[8];
  double ue[8], ye[8], le[8];
  for (int e = 0; e < grid.n_elems(); ++e) {
    grid.elem_nodes(e, conn);
    for (int c = 0; c < 8; ++c) {
      ue[c] = u[static_cast<std::size_t>(conn[c])];
      le[c] = lambda[static_cast<std::size_t>(conn[c])];
    }
    std::fill(ye, ye + 8, 0.0);
    fem::hex_scalar_apply(kr, ue, grid.h, ye);
    double s = 0.0;
    for (int c = 0; c < 8; ++c) s += le[c] * ye[c];
    ge[static_cast<std::size_t>(e)] += s;
  }
}

}  // namespace quake::testsupport
