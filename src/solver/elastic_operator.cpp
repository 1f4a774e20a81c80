#include "quake/solver/elastic_operator.hpp"

#include <algorithm>

#include "quake/fem/hex_element.hpp"
#include "quake/obs/obs.hpp"

namespace quake::solver {

ElasticOperator::ElasticOperator(const mesh::HexMesh& mesh,
                                 const OperatorOptions& opt)
    : mesh_(&mesh), opt_(opt) {
  const std::size_t nd = n_dofs();
  mass_.assign(nd, 0.0);
  alpha_mass_.assign(nd, 0.0);
  cab_diag_.assign(nd, 0.0);
  beta_k_diag_.assign(nd, 0.0);
  elem_damping_.assign(mesh.n_elements(), fem::RayleighCoeffs{});

  const fem::HexReference& ref = fem::HexReference::get();

  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const double h = mesh.elem_size[e];
    const vel::Material& m = mesh.elem_mat[e];
    if (opt_.rayleigh) {
      elem_damping_[e] = fem::fit_rayleigh(
          fem::target_damping_ratio(m.vs()), opt_.damping_f_min,
          opt_.damping_f_max);
    }
    const double node_mass = fem::hex_lumped_mass(m.rho, h);
    std::array<double, fem::kHexDofs> kd;
    fem::hex_diagonal(ref, h * m.lambda, h * m.mu, kd);
    for (int i = 0; i < 8; ++i) {
      const std::size_t base =
          3 * static_cast<std::size_t>(mesh.elem_nodes[e][static_cast<std::size_t>(i)]);
      for (int c = 0; c < 3; ++c) {
        const std::size_t dof = base + static_cast<std::size_t>(c);
        mass_[dof] += node_mass;
        alpha_mass_[dof] += elem_damping_[e].alpha * node_mass;
        beta_k_diag_[dof] +=
            elem_damping_[e].beta * kd[static_cast<std::size_t>(3 * i + c)];
      }
    }
  }

  // Lumped boundary dashpots on the configured absorbing sides.
  for (const mesh::BoundaryFace& bf : mesh.boundary_faces) {
    if (opt_.abc == fem::AbcType::kNone) break;
    if (!opt_.absorbing_sides[static_cast<std::size_t>(bf.side)]) continue;
    const std::size_t e = static_cast<std::size_t>(bf.elem);
    const auto coeffs =
        fem::face_dashpot_coeffs(mesh.elem_mat[e], mesh.elem_size[e], bf.side);
    const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(bf.side)];
    for (int i = 0; i < 4; ++i) {
      const std::size_t base = 3 * static_cast<std::size_t>(
          mesh.elem_nodes[e][static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
      for (int c = 0; c < 3; ++c) {
        cab_diag_[base + static_cast<std::size_t>(c)] +=
            coeffs[static_cast<std::size_t>(c)];
      }
    }
  }

  // Project the diagonal vectors: fold hanging entries into their masters
  // (row-sum lumping, mass-conserving), then zero the hanging entries so
  // the update never divides by a dependent dof's coefficient.
  auto project = [&mesh](std::vector<double>& v) {
    for (const mesh::Constraint& c : mesh.constraints) {
      for (int comp = 0; comp < 3; ++comp) {
        const std::size_t hd =
            3 * static_cast<std::size_t>(c.node) + static_cast<std::size_t>(comp);
        for (int m = 0; m < c.n_masters; ++m) {
          v[3 * static_cast<std::size_t>(c.masters[static_cast<std::size_t>(m)]) +
            static_cast<std::size_t>(comp)] +=
              c.weights[static_cast<std::size_t>(m)] * v[hd];
        }
        v[hd] = 0.0;
      }
    }
  };
  project(mass_);
  project(alpha_mass_);
  project(cab_diag_);
  project(beta_k_diag_);
}

void ElasticOperator::apply_stiffness(std::span<const double> u,
                                      std::span<double> y,
                                      std::span<double> y_damp) const {
  apply_stiffness_impl(nullptr, mesh_->n_elements(), nullptr,
                       mesh_->boundary_faces.size(), u, y, y_damp);
}

void ElasticOperator::apply_stiffness_subset(
    std::span<const mesh::ElemId> elems, std::span<const std::int32_t> faces,
    std::span<const double> u, std::span<double> y,
    std::span<double> y_damp) const {
  apply_stiffness_impl(elems.data(), elems.size(), faces.data(), faces.size(),
                       u, y, y_damp);
}

void ElasticOperator::apply_stiffness_impl(
    const mesh::ElemId* elems, std::size_t n_elems, const std::int32_t* faces,
    std::size_t n_faces, std::span<const double> u, std::span<double> y,
    std::span<double> y_damp) const {
  const mesh::HexMesh& mesh = *mesh_;
  const fem::HexReference& ref = fem::HexReference::get();
  const bool damp = opt_.rayleigh && !y_damp.empty();

  // One scope per apply (not per element) keeps the instrumented-but-
  // disabled overhead to a single atomic load per matvec.
  QUAKE_OBS_SCOPE("op/stiffness");
  obs::counter_add("op/elements_processed", static_cast<std::int64_t>(n_elems));
  if (damp) {
    obs::counter_add("op/damped_applies", 1);
  }

  // Elements stream through the kernel in packs: gather a contiguous run of
  // element vectors, one hex_apply_elems call across the pack, scatter back.
  // Per-element arithmetic order is unchanged (elements are independent),
  // so results match the element-at-a-time loop bitwise, and a subset
  // listing every element ascending reproduces the full sweep bitwise.
  constexpr std::size_t kElemPack = 8;
  double ue[fem::kHexDofs * kElemPack];
  double ye[fem::kHexDofs * kElemPack];
  double de[fem::kHexDofs * kElemPack];
  double scale_l[kElemPack], scale_m[kElemPack], beta[kElemPack];
  const auto elem_at = [elems](std::size_t l) {
    return elems != nullptr ? static_cast<std::size_t>(elems[l]) : l;
  };
  for (std::size_t l0 = 0; l0 < n_elems; l0 += kElemPack) {
    const std::size_t np = std::min(kElemPack, n_elems - l0);
    for (std::size_t b = 0; b < np; ++b) {
      const std::size_t e = elem_at(l0 + b);
      const auto& conn = mesh.elem_nodes[e];
      double* up = ue + b * fem::kHexDofs;
      for (int i = 0; i < 8; ++i) {
        const std::size_t base =
            3 * static_cast<std::size_t>(conn[static_cast<std::size_t>(i)]);
        up[3 * i] = u[base];
        up[3 * i + 1] = u[base + 1];
        up[3 * i + 2] = u[base + 2];
      }
      const double h = mesh.elem_size[e];
      const vel::Material& m = mesh.elem_mat[e];
      scale_l[b] = h * m.lambda;
      scale_m[b] = h * m.mu;
      beta[b] = damp ? elem_damping_[e].beta : 0.0;
    }
    std::fill(ye, ye + np * fem::kHexDofs, 0.0);
    if (damp) std::fill(de, de + np * fem::kHexDofs, 0.0);
    fem::hex_apply_elems(ref, ue, static_cast<int>(np), scale_l, scale_m, ye,
                         beta, damp ? de : nullptr);
    for (std::size_t b = 0; b < np; ++b) {
      const auto& conn = mesh.elem_nodes[elem_at(l0 + b)];
      const double* yp = ye + b * fem::kHexDofs;
      const double* dp = de + b * fem::kHexDofs;
      for (int i = 0; i < 8; ++i) {
        const std::size_t base =
            3 * static_cast<std::size_t>(conn[static_cast<std::size_t>(i)]);
        y[base] += yp[3 * i];
        y[base + 1] += yp[3 * i + 1];
        y[base + 2] += yp[3 * i + 2];
        if (damp) {
          y_damp[base] += dp[3 * i];
          y_damp[base + 1] += dp[3 * i + 1];
          y_damp[base + 2] += dp[3 * i + 2];
        }
      }
    }
  }

  if (opt_.abc == fem::AbcType::kStacey) {
    QUAKE_OBS_SCOPE("abc");  // nests: op/stiffness/abc
    obs::counter_add("op/abc_faces_processed",
                     static_cast<std::int64_t>(n_faces));
    double uf[12], yf[12];
    for (std::size_t l = 0; l < n_faces; ++l) {
      const mesh::BoundaryFace& bf = mesh.boundary_faces[
          faces != nullptr ? static_cast<std::size_t>(faces[l]) : l];
      if (!opt_.absorbing_sides[static_cast<std::size_t>(bf.side)]) continue;
      const std::size_t e = static_cast<std::size_t>(bf.elem);
      const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(bf.side)];
      for (int i = 0; i < 4; ++i) {
        const std::size_t base = 3 * static_cast<std::size_t>(
            mesh.elem_nodes[e][static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
        uf[3 * i] = u[base];
        uf[3 * i + 1] = u[base + 1];
        uf[3 * i + 2] = u[base + 2];
      }
      std::fill(yf, yf + 12, 0.0);
      fem::face_stacey_apply(mesh.elem_mat[e], mesh.elem_size[e], bf.side, uf,
                             yf);
      for (int i = 0; i < 4; ++i) {
        const std::size_t base = 3 * static_cast<std::size_t>(
            mesh.elem_nodes[e][static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
        y[base] += yf[3 * i];
        y[base + 1] += yf[3 * i + 1];
        y[base + 2] += yf[3 * i + 2];
      }
    }
  }
}

void ElasticOperator::expand_constraints(std::span<double> u) const {
  for (const mesh::Constraint& c : mesh_->constraints) {
    for (int comp = 0; comp < 3; ++comp) {
      double v = 0.0;
      for (int m = 0; m < c.n_masters; ++m) {
        v += c.weights[static_cast<std::size_t>(m)] *
             u[3 * static_cast<std::size_t>(c.masters[static_cast<std::size_t>(m)]) +
               static_cast<std::size_t>(comp)];
      }
      u[3 * static_cast<std::size_t>(c.node) + static_cast<std::size_t>(comp)] = v;
    }
  }
}

void ElasticOperator::accumulate_constraints(std::span<double> y) const {
  for (const mesh::Constraint& c : mesh_->constraints) {
    for (int comp = 0; comp < 3; ++comp) {
      const std::size_t hd =
          3 * static_cast<std::size_t>(c.node) + static_cast<std::size_t>(comp);
      for (int m = 0; m < c.n_masters; ++m) {
        y[3 * static_cast<std::size_t>(c.masters[static_cast<std::size_t>(m)]) +
          static_cast<std::size_t>(comp)] +=
            c.weights[static_cast<std::size_t>(m)] * y[hd];
      }
      y[hd] = 0.0;
    }
  }
}

double ElasticOperator::stable_dt(double cfl_fraction) const {
  double dt = std::numeric_limits<double>::max();
  for (std::size_t e = 0; e < mesh_->n_elements(); ++e) {
    dt = std::min(dt, mesh_->elem_size[e] / mesh_->elem_mat[e].vp());
  }
  return cfl_fraction * dt;
}

std::uint64_t ElasticOperator::flops_per_apply() const {
  std::uint64_t f = mesh_->n_elements() * fem::hex_apply_flops(opt_.rayleigh);
  if (opt_.abc == fem::AbcType::kStacey) {
    f += mesh_->boundary_faces.size() * fem::face_stacey_flops();
  }
  f += mesh_->constraints.size() * 3ull * 8ull * 2ull;
  return f;
}

}  // namespace quake::solver
