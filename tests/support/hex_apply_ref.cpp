#include "hex_apply_ref.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>

namespace quake::testsupport {

using fem::kHexDofs;

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

}  // namespace quake::testsupport
