#pragma once

// The matrix-free elastodynamic operator over a multiresolution hex mesh:
// stiffness (K + K^AB) and Rayleigh stiffness-damping applications as
// element-local dense products, assembled diagonal vectors (lumped mass,
// Rayleigh alpha-mass and beta-stiffness damping, lumped boundary
// dashpots), and the hanging-node constraint projection u = B ubar (§2.2,
// eq. 2.5).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "quake/fem/abc.hpp"
#include "quake/fem/rayleigh.hpp"
#include "quake/mesh/hex_mesh.hpp"

namespace quake::solver {

struct OperatorOptions {
  fem::AbcType abc = fem::AbcType::kStacey;
  // Which cube sides absorb, indexed by mesh::BoundarySide. The free
  // surface (kZMin) is traction-free by default; tests and column problems
  // may restrict absorption to selected sides.
  std::array<bool, 6> absorbing_sides = {true, true, true, true, false, true};
  bool rayleigh = false;        // enable material attenuation
  double damping_f_min = 0.05;  // band for the elementwise (alpha, beta) fit
  double damping_f_max = 1.0;
};

// Time axis of a forward solve (see par::ParallelSetup, which runs eq. 2.4
// on it at any rank count).
struct SolverOptions {
  double dt = 0.0;            // time step [s]; 0 = choose from the CFL bound
  double cfl_fraction = 0.4;  // safety factor on min(h / vp)
  double t_end = 1.0;         // simulated duration [s]
  // Displacement components forced to zero at every node after each
  // update — the component mask that makes 1D column verification
  // problems exact (the SH column tests, the Fig 2.2 bench).
  std::array<bool, 3> fixed_components = {false, false, false};
};

class ElasticOperator {
 public:
  ElasticOperator(const mesh::HexMesh& mesh, const OperatorOptions& opt);

  [[nodiscard]] std::size_t n_dofs() const { return 3 * mesh_->n_nodes(); }
  [[nodiscard]] const mesh::HexMesh& mesh() const { return *mesh_; }
  [[nodiscard]] const OperatorOptions& options() const { return opt_; }

  // y += (K + K^AB) u;  y_damp += sum_e beta_e K_e u (when Rayleigh is on
  // and y_damp is non-empty). `u` must already satisfy the hanging
  // constraints (call expand_constraints); results are NOT projected (call
  // accumulate_constraints afterwards). Vectors are full-length (3*n_nodes).
  void apply_stiffness(std::span<const double> u, std::span<double> y,
                       std::span<double> y_damp) const;

  // Stiffness restricted to a subset of elements and boundary faces (face
  // values index into mesh().boundary_faces), e.g. the compute classes of a
  // local-time-stepping schedule active at one fine step (the serial LTS
  // reference stepper the tests compare the step loop against). Elements
  // stream through the same pack-of-8 kernel as apply_stiffness, so calling
  // it with every element index ascending and every face index is bitwise
  // identical to apply_stiffness.
  void apply_stiffness_subset(std::span<const mesh::ElemId> elems,
                              std::span<const std::int32_t> faces,
                              std::span<const double> u, std::span<double> y,
                              std::span<double> y_damp) const;

  // Projected diagonal vectors, full-length; hanging entries are zero.
  [[nodiscard]] std::span<const double> lumped_mass() const { return mass_; }
  [[nodiscard]] std::span<const double> alpha_mass() const { return alpha_mass_; }
  [[nodiscard]] std::span<const double> cab_diag() const { return cab_diag_; }
  [[nodiscard]] std::span<const double> beta_k_diag() const {
    return beta_k_diag_;
  }

  // u_hanging = sum_m w_m u_master (the action of B on independent values).
  void expand_constraints(std::span<double> u) const;
  // y_master += w_m * y_hanging, then y_hanging = 0 (the action of B^T).
  void accumulate_constraints(std::span<double> y) const;

  // CFL-limited stable time step: min over elements of h / vp, times the
  // given safety fraction.
  [[nodiscard]] double stable_dt(double cfl_fraction) const;

  // Flops of one apply_stiffness sweep (for Mflop/s accounting).
  [[nodiscard]] std::uint64_t flops_per_apply() const;

  [[nodiscard]] std::span<const fem::RayleighCoeffs> element_damping() const {
    return elem_damping_;
  }

 private:
  // The one element/face sweep behind apply_stiffness (elems and faces
  // null: every element and face, ascending) and apply_stiffness_subset.
  void apply_stiffness_impl(const mesh::ElemId* elems, std::size_t n_elems,
                            const std::int32_t* faces, std::size_t n_faces,
                            std::span<const double> u, std::span<double> y,
                            std::span<double> y_damp) const;

  const mesh::HexMesh* mesh_;
  OperatorOptions opt_;
  std::vector<fem::RayleighCoeffs> elem_damping_;
  std::vector<double> mass_, alpha_mass_, cab_diag_, beta_k_diag_;
};

}  // namespace quake::solver
