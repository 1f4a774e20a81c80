#pragma once

// Test oracles for the one forward solver (par::ParallelSetup's step loop):
// straight-line serial steppers written directly from eq. 2.4 over
// solver::ElasticOperator, independent of the loop's partitioning,
// schedules, lanes and fault tolerance. At one rank the loop has no
// exchange and must match them bit for bit; at several ranks it matches
// them to rounding.

#include <array>
#include <span>
#include <vector>

#include "quake/lts/clustering.hpp"
#include "quake/mesh/hex_mesh.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/source.hpp"

namespace quake::testsupport {

using History = std::vector<std::array<double, 3>>;

// What a forward solve produces: the displacement at t = n_steps * dt and
// one displacement history per receiver (u^{k+1} at t = (k+1) dt).
struct Reference {
  std::vector<double> u_final;
  std::vector<History> receivers;
  int n_steps = 0;
  double dt = 0.0;
};

// Global-dt central differences (eq. 2.4) with Rayleigh damping, lumped
// dashpots, the hanging-node projection (eq. 2.5) and the component mask
// so.fixed_components. u0 / v0 are full-length initial fields (empty =
// quiescent), started as documented on par::RunControl.
Reference reference_global(
    const solver::ElasticOperator& op, const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receivers,
    std::span<const double> u0 = {}, std::span<const double> v0 = {});

// Clustered local time stepping on `cl` (base step cl.base_dt) as the
// recursive window schedule of docs/LTS.md: a level-l window is two
// level-(l-1) half-windows, and each node advances at its own rate through
// its (u_prev, u) bracket. No Rayleigh damping.
Reference reference_lts(
    const solver::ElasticOperator& op, const solver::SolverOptions& so,
    const lts::Clustering& cl,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receivers,
    std::span<const double> u0 = {}, std::span<const double> v0 = {});

// The discrete energy undamped central differences conserve,
// 1/2 v^T M v + 1/2 u^T K (u - dt v), from a snapshot's u and v.
double energy(const solver::ElasticOperator& op, std::span<const double> u,
              std::span<const double> v, double dt);

// The step loop at one rank: run() on a fresh one-rank setup.
par::ParallelResult run_one_rank(
    const mesh::HexMesh& mesh, const solver::OperatorOptions& oo,
    const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receivers,
    const par::RunControl& control = {});

// One component of a receiver history as a flat series.
std::vector<double> component(const History& h, int comp);

// memcmp equality of the final field and of every receiver history.
bool same_bits(const Reference& ref, const par::ParallelResult& pr);
bool same_bits(const par::ParallelResult& a, const par::ParallelResult& b);

}  // namespace quake::testsupport
