#include "quake/inverse/material_param.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace quake::inverse {

MaterialGrid::MaterialGrid(const wave2d::ShGrid& wave_grid, int gx, int gz)
    : wave_(wave_grid), gx_(gx), gz_(gz) {
  if (gx < 1 || gz < 1) {
    throw std::invalid_argument("MaterialGrid: need at least one cell");
  }
  dx_ = wave_.width() / gx_;
  dz_ = wave_.depth() / gz_;
  elem_interp_.reserve(static_cast<std::size_t>(wave_.n_elems()));
  for (int e = 0; e < wave_.n_elems(); ++e) {
    const int i = e % wave_.nx;
    const int k = e / wave_.nx;
    const double x = (i + 0.5) * wave_.h;
    const double z = (k + 0.5) * wave_.h;
    elem_interp_.push_back(interp_at(x, z));
  }
}

MaterialGrid::Interp MaterialGrid::interp_at(double x, double z) const {
  const double fx = std::clamp(x / dx_, 0.0, static_cast<double>(gx_));
  const double fz = std::clamp(z / dz_, 0.0, static_cast<double>(gz_));
  int ci = std::min(static_cast<int>(fx), gx_ - 1);
  int ck = std::min(static_cast<int>(fz), gz_ - 1);
  const double tx = fx - ci;
  const double tz = fz - ck;
  Interp it;
  it.idx[0] = node(ci, ck);
  it.idx[1] = node(ci + 1, ck);
  it.idx[2] = node(ci, ck + 1);
  it.idx[3] = node(ci + 1, ck + 1);
  it.w[0] = (1.0 - tx) * (1.0 - tz);
  it.w[1] = tx * (1.0 - tz);
  it.w[2] = (1.0 - tx) * tz;
  it.w[3] = tx * tz;
  return it;
}

void MaterialGrid::apply(std::span<const double> m,
                         std::span<double> mu_elem) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    mu_elem[e] = it.w[0] * m[static_cast<std::size_t>(it.idx[0])] +
                 it.w[1] * m[static_cast<std::size_t>(it.idx[1])] +
                 it.w[2] * m[static_cast<std::size_t>(it.idx[2])] +
                 it.w[3] * m[static_cast<std::size_t>(it.idx[3])];
  }
}

void MaterialGrid::apply_transpose(std::span<const double> g_elem,
                                   std::span<double> g_m) const {
  for (std::size_t e = 0; e < elem_interp_.size(); ++e) {
    const Interp& it = elem_interp_[e];
    for (int j = 0; j < 4; ++j) {
      g_m[static_cast<std::size_t>(it.idx[j])] += it.w[j] * g_elem[e];
    }
  }
}

std::vector<double> MaterialGrid::prolongate(std::span<const double> m,
                                             const MaterialGrid& target) const {
  std::vector<double> out(target.n_params());
  for (int k = 0; k <= target.gz_; ++k) {
    for (int i = 0; i <= target.gx_; ++i) {
      const double x = i * target.dx_;
      const double z = k * target.dz_;
      const Interp it = interp_at(x, z);
      out[static_cast<std::size_t>(target.node(i, k))] =
          it.w[0] * m[static_cast<std::size_t>(it.idx[0])] +
          it.w[1] * m[static_cast<std::size_t>(it.idx[1])] +
          it.w[2] * m[static_cast<std::size_t>(it.idx[2])] +
          it.w[3] * m[static_cast<std::size_t>(it.idx[3])];
    }
  }
  return out;
}

}  // namespace quake::inverse
