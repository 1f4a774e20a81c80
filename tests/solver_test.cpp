// Tests for the elastodynamic operator and the forward solver (the step
// loop of par::ParallelSetup, run at one rank): engine equivalence, energy
// behavior, absorbing boundaries, sources, checkpoint/restart, and
// 1D-column verification against the SH closed form.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/locator.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/solver/source.hpp"
#include "quake/solver/sparse_engine.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"
#include "recovery.hpp"
#include "reference_stepper.hpp"

namespace {

using namespace quake;
using namespace quake::solver;
using testsupport::component;
using testsupport::run_one_rank;

vel::HomogeneousModel rock() {
  return vel::HomogeneousModel(
      vel::Material::from_velocities(1732.0, 1000.0, 2000.0));
}

mesh::HexMesh uniform_mesh(int level, double size) {
  mesh::MeshOptions o;
  o.domain_size = size;
  o.f_max = 1e-9;
  o.min_level = level;
  o.max_level = level;
  const auto model = rock();
  return mesh::generate_mesh(model, o);
}

mesh::HexMesh hanging_mesh(double size) {
  mesh::MeshOptions o;
  o.domain_size = size;
  o.f_max = 1e-9;
  o.min_level = 1;
  o.max_level = 2;
  auto policy = [](const octree::Octant& oct) {
    if (oct.level < 1) return true;
    return oct.level < 2 && oct.x == 0 && oct.y == 0;
  };
  auto tree = octree::balance(octree::build_octree(policy, 2),
                              octree::BalanceScope::kAll);
  const auto model = rock();
  return mesh::transform(tree, model, o);
}

TEST(Engines, ElementMatchesSparseOnUniformMesh) {
  const auto mesh = uniform_mesh(2, 100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  const SparseStiffness sparse(mesh);
  util::Rng rng(1);
  std::vector<double> u(op.n_dofs()), y1(op.n_dofs(), 0.0), y2(op.n_dofs(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  op.apply_stiffness(u, y1, {});
  sparse.apply(u, y2);
  EXPECT_LT(util::diff_l2(y1, y2), 1e-9 * (1.0 + util::norm_l2(y2)));
}

TEST(Engines, ElementMatchesSparseOnHangingMesh) {
  const auto mesh = hanging_mesh(100.0);
  ASSERT_GT(mesh.n_hanging(), 0u);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  const SparseStiffness sparse(mesh);
  util::Rng rng(2);
  std::vector<double> u(op.n_dofs()), y1(op.n_dofs(), 0.0), y2(op.n_dofs(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  op.expand_constraints(u);  // same constrained input to both engines
  op.apply_stiffness(u, y1, {});
  sparse.apply(u, y2);
  EXPECT_LT(util::diff_l2(y1, y2), 1e-9 * (1.0 + util::norm_l2(y2)));
}

TEST(Operator, FullSubsetMatchesApplyStiffnessBitwise) {
  // apply_stiffness and apply_stiffness_subset share one sweep; listing
  // every element and face ascending must reproduce the full apply bit for
  // bit, stiffness and Rayleigh damping accumulators both.
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.rayleigh = true;
  oo.damping_f_min = 1.0;
  oo.damping_f_max = 20.0;
  const ElasticOperator op(mesh, oo);
  util::Rng rng(5);
  std::vector<double> u(op.n_dofs());
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  op.expand_constraints(u);
  std::vector<mesh::ElemId> elems(mesh.n_elements());
  for (std::size_t e = 0; e < elems.size(); ++e) {
    elems[e] = static_cast<mesh::ElemId>(e);
  }
  std::vector<std::int32_t> faces(mesh.boundary_faces.size());
  for (std::size_t f = 0; f < faces.size(); ++f) {
    faces[f] = static_cast<std::int32_t>(f);
  }
  ASSERT_NE(elems.size() % 8, 0u);  // a short last pack
  std::vector<double> y_a(op.n_dofs(), 0.0), d_a(op.n_dofs(), 0.0);
  std::vector<double> y_b = y_a, d_b = d_a;
  op.apply_stiffness(u, y_a, d_a);
  op.apply_stiffness_subset(elems, faces, u, y_b, d_b);
  EXPECT_EQ(std::memcmp(y_a.data(), y_b.data(), y_a.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(d_a.data(), d_b.data(), d_a.size() * sizeof(double)),
            0);
  EXPECT_GT(util::norm_l2(d_a), 0.0);
}

TEST(Operator, ConstraintExpansionAccumulationAdjoint) {
  // <B u, y> == <u, B^T y> for the constraint projection operators.
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  util::Rng rng(3);
  std::vector<double> u(op.n_dofs(), 0.0), y(op.n_dofs());
  // u: independent dofs random, hanging zero; expand fills hanging.
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    if (mesh.node_hanging[n] != 0) continue;
    for (int c = 0; c < 3; ++c) u[3 * n + static_cast<std::size_t>(c)] = rng.uniform(-1, 1);
  }
  for (double& v : y) v = rng.uniform(-1.0, 1.0);

  std::vector<double> bu = u;
  op.expand_constraints(bu);
  const double lhs = util::dot(bu, y);
  std::vector<double> bty = y;
  op.accumulate_constraints(bty);
  const double rhs = util::dot(u, bty);
  EXPECT_NEAR(lhs, rhs, 1e-9 * (std::abs(lhs) + 1.0));
}

TEST(Operator, ProjectedMassConservesTotalMass)
{
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  double total = 0.0;
  const auto mass = op.lumped_mass();
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) total += mass[3 * n];
  double expected = 0.0;
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const double h = mesh.elem_size[e];
    expected += mesh.elem_mat[e].rho * h * h * h;
  }
  EXPECT_NEAR(total, expected, 1e-6 * expected);
  // Hanging dofs carry no mass after projection.
  for (const auto& c : mesh.constraints) {
    EXPECT_EQ(mass[3 * static_cast<std::size_t>(c.node)], 0.0);
  }
}

// Gaussian bump centered in a 1000 m cube, one component per node.
std::vector<double> bump(const mesh::HexMesh& mesh) {
  std::vector<double> b(3 * mesh.n_nodes(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    const double r2 = std::pow(c[0] - 500.0, 2) + std::pow(c[1] - 500.0, 2) +
                      std::pow(c[2] - 500.0, 2);
    b[3 * n] = std::exp(-r2 / (150.0 * 150.0));
  }
  return b;
}

TEST(Solver, EnergyConservedWithoutDampingOrAbc) {
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.3;
  so.cfl_fraction = 0.3;
  // Initial displacement bump in the interior, zero velocity.
  const std::vector<double> u0 = bump(mesh);
  const double dt = op.stable_dt(so.cfl_fraction);
  std::vector<double> energies;
  par::RunControl ctl;
  ctl.initial_u = u0;
  ctl.snapshot = [&](int, double, std::span<const double> u,
                     std::span<const double> v) {
    energies.push_back(testsupport::energy(op, u, v, dt));
  };
  ctl.snapshot_every = 2;
  run_one_rank(mesh, oo, so, {}, {}, ctl);
  ASSERT_GE(energies.size(), 3u);
  for (double e : energies) {
    EXPECT_NEAR(e, energies.front(), 0.02 * energies.front());
  }
}

// A kinetic initial condition radiates all its energy as body waves (a
// static displacement bump would leave a slowly-relaxing near field the
// dashpots cannot absorb): after several crossing times the final energy,
// taken from a snapshot at the last step, is a small fraction of the start.
void expect_absorbed(fem::AbcType abc) {
  const auto mesh = uniform_mesh(3, 1000.0);
  OperatorOptions oo;
  oo.abc = abc;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 2.5;
  so.cfl_fraction = 0.3;
  const std::vector<double> v0 = bump(mesh);
  const std::vector<double> u0(v0.size(), 0.0);
  const double dt = op.stable_dt(so.cfl_fraction);
  const double e0 = testsupport::energy(op, u0, v0, dt);
  double e_end = -1.0;
  par::RunControl ctl;
  ctl.initial_v = v0;
  ctl.snapshot = [&](int, double, std::span<const double> u,
                     std::span<const double> v) {
    e_end = testsupport::energy(op, u, v, dt);
  };
  ctl.snapshot_every = static_cast<int>(std::ceil(so.t_end / dt));
  run_one_rank(mesh, oo, so, {}, {}, ctl);
  EXPECT_GE(e_end, 0.0);
  EXPECT_LT(e_end, 0.1 * e0);
}

TEST(Solver, EnergyDecaysWithAbsorbingBoundaries) {
  expect_absorbed(fem::AbcType::kLysmer);
}

TEST(Solver, StaceyAlsoAbsorbs) { expect_absorbed(fem::AbcType::kStacey); }

TEST(Solver, SecondOrderInTime) {
  // Fixed mesh, shrinking dt: the difference from a fine-dt reference
  // contracts ~4x per halving.
  const auto mesh = uniform_mesh(2, 1000.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  std::vector<double> u0(3 * mesh.n_nodes(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const auto& c = mesh.node_coords[n];
    u0[3 * n] =
        std::sin(c[0] / 1000.0 * 3.14159) * std::sin(c[2] / 1000.0 * 3.14159);
  }
  auto run_with_dt = [&](double dt) {
    SolverOptions so;
    so.dt = dt;
    so.t_end = 0.2;
    par::RunControl ctl;
    ctl.initial_u = u0;
    return run_one_rank(mesh, oo, so, {}, {}, ctl).u_final;
  };

  const double dt0 = 0.2 / 32.0;
  const auto ref = run_with_dt(dt0 / 8.0);
  const auto c1 = run_with_dt(dt0);
  const auto c2 = run_with_dt(dt0 / 2.0);
  const double e1 = util::diff_l2(c1, ref);
  const double e2 = util::diff_l2(c2, ref);
  EXPECT_GT(e1 / e2, 3.0);
  EXPECT_LT(e1 / e2, 5.5);
}

TEST(Solver, ShColumnMatchesHalfspaceClosedForm) {
  // Vertically propagating SH pulse in a homogeneous halfspace: with the x
  // and z components fixed, the 3D hex solver reduces exactly to the 1D
  // column problem, and the surface response must be twice the incident
  // pulse (free-surface doubling).
  const double L = 1000.0, vs = 1000.0;
  const auto mesh = uniform_mesh(5, L);  // h = 31.25 m
  OperatorOptions oo;
  oo.abc = fem::AbcType::kLysmer;
  // Column problem: absorb only at the bottom; the lateral faces are
  // traction-free, which the component mask makes exact.
  oo.absorbing_sides = {false, false, false, false, false, true};
  SolverOptions so;
  so.t_end = 0.9;
  so.cfl_fraction = 0.4;
  so.fixed_components = {true, false, true};

  const double zc = 550.0, sigma = 120.0, amp = 1.0;
  auto pulse = [&](double z) {
    return amp * std::exp(-std::pow((z - zc) / sigma, 2));
  };
  std::vector<double> u0(3 * mesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    const double z = mesh.node_coords[n][2];
    u0[3 * n + 1] = pulse(z);
    // Upgoing wave u(z, t) = f(z + vs t): v0 = vs * f'(z).
    v0[3 * n + 1] =
        vs * (-2.0 * (z - zc) / (sigma * sigma)) * pulse(z);
  }
  par::RunControl ctl;
  ctl.initial_u = u0;
  ctl.initial_v = v0;
  const std::array<double, 3> rxs[] = {{L / 2.0, L / 2.0, 0.0}};
  const par::ParallelResult pr = run_one_rank(mesh, oo, so, {}, rxs, ctl);

  const auto rec = component(pr.receiver_histories[0], 1);
  std::vector<double> exact(rec.size());
  for (std::size_t k = 0; k < exact.size(); ++k) {
    const double t = (static_cast<double>(k) + 1.0) * pr.dt;
    // Incident wave u = f(z + vs t) evaluated at the surface z = 0,
    // doubled by the free-surface reflection.
    exact[k] = 2.0 * pulse(vs * t);
  }
  EXPECT_LT(util::rel_l2(rec, exact), 0.08);
  // Peak amplitude doubles.
  EXPECT_NEAR(util::norm_max(rec), 2.0 * amp, 0.1);
}

TEST(Source, RampProperties) {
  const double t0 = 1.4;
  EXPECT_DOUBLE_EQ(ramp_g(-0.1, t0), 0.0);
  EXPECT_DOUBLE_EQ(ramp_g(t0 + 0.1, t0), 1.0);
  EXPECT_NEAR(ramp_g(t0 / 2.0, t0), 0.5, 1e-12);
  // dg/dt is a triangle of unit area and peak 2/t0.
  EXPECT_NEAR(ramp_g_dot(t0 / 2.0, t0), 2.0 / t0, 1e-12);
  double area = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) area += ramp_g_dot((i + 0.5) * t0 / n, t0) * t0 / n;
  EXPECT_NEAR(area, 1.0, 1e-6);
  // g is the integral of g_dot: monotone.
  double prev = 0.0;
  for (int i = 0; i <= 20; ++i) {
    const double g = ramp_g(i * t0 / 20.0, t0);
    EXPECT_GE(g, prev - 1e-15);
    prev = g;
  }
}

TEST(Source, RickerPeakAtCenter) {
  EXPECT_DOUBLE_EQ(ricker(1.0, 2.0, 1.0), 1.0);
  EXPECT_LT(std::abs(ricker(3.0, 2.0, 1.0)), 1e-6);
}

TEST(Source, FaultForcesAreSelfEquilibrating) {
  const auto mesh = uniform_mesh(3, 8000.0);
  FaultSource::Spec spec;
  spec.y = 4000.0;
  spec.x0 = 2000.0;
  spec.x1 = 6000.0;
  spec.z_top = 2000.0;
  spec.z_bot = 5000.0;
  spec.hypocenter = {4000.0, 3500.0};
  spec.rupture_velocity = 2800.0;
  spec.rise_time = 0.7;
  spec.slip = 1.0;
  const FaultSource src(mesh, spec);
  EXPECT_GT(src.n_patches(), 4u);
  std::vector<double> f(3 * mesh.n_nodes(), 0.0);
  src.add_forces(1.0, f);  // mid-rupture
  double fx = 0.0, fy = 0.0, fz = 0.0, fmax = 0.0;
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    fx += f[3 * n];
    fy += f[3 * n + 1];
    fz += f[3 * n + 2];
    fmax = std::max({fmax, std::abs(f[3 * n]), std::abs(f[3 * n + 1])});
  }
  EXPECT_GT(fmax, 0.0);
  EXPECT_NEAR(fx, 0.0, 1e-9 * fmax);
  EXPECT_NEAR(fy, 0.0, 1e-9 * fmax);
  EXPECT_NEAR(fz, 0.0, 1e-9 * fmax);
}

// Oracles for the bucket-grid locators: the full scans the locators
// replace. Nearest independent node by dx*dx + dy*dy + dz*dz, the first
// (lowest) index keeping a strict minimum.
mesh::NodeId nearest_node_oracle(const mesh::HexMesh& mesh,
                                 std::array<double, 3> p) {
  mesh::NodeId best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < mesh.node_coords.size(); ++i) {
    if (mesh.node_hanging[i] != 0) continue;
    const auto& c = mesh.node_coords[i];
    const double dx = c[0] - p[0];
    const double dy = c[1] - p[1];
    const double dz = c[2] - p[2];
    const double d = dx * dx + dy * dy + dz * dz;
    if (d < best_d) {
      best_d = d;
      best = static_cast<mesh::NodeId>(i);
    }
  }
  return best;
}

// Lowest-index element whose closed box contains p, or -1.
mesh::ElemId containing_element_oracle(const mesh::HexMesh& mesh,
                                       std::array<double, 3> p) {
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const auto& a =
        mesh.node_coords[static_cast<std::size_t>(mesh.elem_nodes[e][0])];
    const double h = mesh.elem_size[e];
    if (p[0] >= a[0] && p[0] <= a[0] + h && p[1] >= a[1] &&
        p[1] <= a[1] + h && p[2] >= a[2] && p[2] <= a[2] + h) {
      return static_cast<mesh::ElemId>(e);
    }
  }
  return -1;
}

// A three-level basin mesh: hanging nodes, element sizes 400..1600 m.
mesh::HexMesh basin_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(12800.0);
  mesh::MeshOptions opt;
  opt.domain_size = 12800.0;
  opt.f_max = 0.15;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 5;
  return mesh::generate_mesh(basin, opt);
}

TEST(Locator, MatchesFullScanOracle) {
  const auto mesh = basin_mesh();
  const double L = mesh.domain.size;
  const NodeLocator nodes(mesh);
  const ElementLocator elems(mesh);
  util::Rng rng(97);
  std::vector<std::array<double, 3>> queries;
  // Uniform points in and around the domain.
  for (int q = 0; q < 400; ++q) {
    queries.push_back({rng.uniform(-0.2 * L, 1.2 * L),
                       rng.uniform(-0.2 * L, 1.2 * L),
                       rng.uniform(-0.2 * L, 1.2 * L)});
  }
  // Exact ties: a hanging node sits midway between independent nodes.
  for (std::size_t i = 0; i < mesh.node_coords.size(); i += 7) {
    if (mesh.node_hanging[i] != 0) queries.push_back(mesh.node_coords[i]);
  }
  // Element corners, edge and face midpoints and centers: all but the
  // centers lie on closed-box boundaries shared with neighbors, and edge
  // midpoints tie two nodes.
  for (int q = 0; q < 300; ++q) {
    const std::size_t e = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(mesh.n_elements()) - 1.0));
    const auto& a =
        mesh.node_coords[static_cast<std::size_t>(mesh.elem_nodes[e][0])];
    const double h = mesh.elem_size[e];
    const auto f = [&rng] { return 0.5 * std::floor(rng.uniform(0.0, 3.0)); };
    queries.push_back({a[0] + f() * h, a[1] + f() * h, a[2] + f() * h});
  }
  // Far away, on the domain's outer faces, and non-finite.
  queries.push_back({1e6, -1e6, 3e5});
  queries.push_back({0.0, 0.5 * L, L});
  queries.push_back({L, L, L});
  queries.push_back({std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0});
  queries.push_back({0.0, std::numeric_limits<double>::infinity(), 0.0});

  const auto dist = [](const std::array<double, 3>& c,
                       const std::array<double, 3>& p) {
    const double dx = c[0] - p[0];
    const double dy = c[1] - p[1];
    const double dz = c[2] - p[2];
    return dx * dx + dy * dy + dz * dz;
  };
  int ties = 0, outside = 0, on_boundary = 0;
  for (const auto& p : queries) {
    const mesh::NodeId want = nearest_node_oracle(mesh, p);
    ASSERT_EQ(nodes.nearest(p), want) << p[0] << " " << p[1] << " " << p[2];
    const mesh::ElemId e = containing_element_oracle(mesh, p);
    ASSERT_EQ(elems.containing(p), e) << p[0] << " " << p[1] << " " << p[2];

    // Tally what the queries exercised.
    const double dw = dist(mesh.node_coords[static_cast<std::size_t>(want)], p);
    int at_best = 0;
    for (std::size_t i = 0; i < mesh.node_coords.size(); ++i) {
      if (mesh.node_hanging[i] == 0 && dist(mesh.node_coords[i], p) == dw) {
        ++at_best;
      }
    }
    if (at_best > 1) ++ties;
    if (e < 0) {
      ++outside;
      continue;
    }
    const auto& a = mesh.node_coords[static_cast<std::size_t>(
        mesh.elem_nodes[static_cast<std::size_t>(e)][0])];
    const double h = mesh.elem_size[static_cast<std::size_t>(e)];
    for (std::size_t ax = 0; ax < 3; ++ax) {
      if (p[ax] == a[ax] || p[ax] == a[ax] + h) {
        ++on_boundary;
        break;
      }
    }
  }
  EXPECT_GT(ties, 50);
  EXPECT_GT(outside, 100);
  EXPECT_GT(on_boundary, 100);
  // The one-shot entry point answers through the same locator.
  for (std::size_t q = 0; q < 20; ++q) {
    EXPECT_EQ(nearest_node(mesh, queries[q]),
              nearest_node_oracle(mesh, queries[q]));
  }
}

TEST(Source, FaultForcesMatchFullScanPlacementBitwise) {
  // FaultSource places its patches through the locators; its forces must
  // be bit-for-bit those of the same construction over full scans.
  const auto mesh = basin_mesh();
  FaultSource::Spec fs;
  fs.y = 6400.0;
  fs.x0 = 3500.0;
  fs.x1 = 7500.0;
  fs.z_top = 1000.0;
  fs.z_bot = 4000.0;
  fs.hypocenter = {3700.0, 3000.0};
  fs.rupture_velocity = 2800.0;
  fs.rise_time = 1.5;
  const FaultSource src(mesh, fs);  // auto spacing: the median element size

  std::vector<double> sizes(mesh.elem_size);
  std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                   sizes.end());
  const double arm = sizes[sizes.size() / 2];
  const int nx = std::max(1, static_cast<int>((fs.x1 - fs.x0) / arm));
  const int nz = std::max(1, static_cast<int>((fs.z_bot - fs.z_top) / arm));
  const double dx = (fs.x1 - fs.x0) / nx;
  const double dz = (fs.z_bot - fs.z_top) / nz;
  for (const double t : {0.2, 0.9, 1.7, 3.0}) {
    std::vector<double> want(3 * mesh.n_nodes(), 0.0);
    std::size_t patches = 0;
    for (int i = 0; i < nx; ++i) {
      for (int k = 0; k < nz; ++k) {
        const double x = fs.x0 + (i + 0.5) * dx;
        const double z = fs.z_top + (k + 0.5) * dz;
        const mesh::ElemId e = containing_element_oracle(mesh, {x, fs.y, z});
        if (e < 0) continue;
        ++patches;
        const double mu = mesh.elem_mat[static_cast<std::size_t>(e)].mu;
        const double rx = x - fs.hypocenter[0];
        const double rz = z - fs.hypocenter[1];
        const double delay =
            std::sqrt(rx * rx + rz * rz) / fs.rupture_velocity;
        const double g = ramp_g(t - delay, fs.rise_time);
        if (g == 0.0) continue;
        const double s = mu * (dx * dz) * fs.slip / arm * g;
        const std::array<mesh::NodeId, 4> n = {
            nearest_node_oracle(mesh, {x, fs.y + 0.5 * arm, z}),
            nearest_node_oracle(mesh, {x, fs.y - 0.5 * arm, z}),
            nearest_node_oracle(mesh, {x + 0.5 * arm, fs.y, z}),
            nearest_node_oracle(mesh, {x - 0.5 * arm, fs.y, z})};
        want[3 * static_cast<std::size_t>(n[0])] += s * +1.0;
        want[3 * static_cast<std::size_t>(n[1])] += s * -1.0;
        want[3 * static_cast<std::size_t>(n[2]) + 1] += s * +1.0;
        want[3 * static_cast<std::size_t>(n[3]) + 1] += s * -1.0;
      }
    }
    EXPECT_EQ(src.n_patches(), patches);
    std::vector<double> got(want.size(), 0.0);
    src.add_forces(t, got);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
        << "t=" << t;
  }
}

TEST(Source, PointSourceInjectsAtNearestNode) {
  const auto mesh = uniform_mesh(2, 100.0);
  PointSource src(mesh, {50.0, 50.0, 50.0}, {0.0, 0.0, 1.0}, 2.0, 5.0, 0.2);
  std::vector<double> f(3 * mesh.n_nodes(), 0.0);
  src.add_forces(0.2, f);  // ricker peak: amplitude * 1
  const std::size_t dof = 3 * static_cast<std::size_t>(src.node()) + 2;
  EXPECT_DOUBLE_EQ(f[dof], 2.0);
}

TEST(Sh1d, EqualImpedanceReducesToTransmission) {
  ShLayerParams p{100.0, 2000.0, 1000.0, 2000.0, 1000.0};
  auto inc = [](double t) { return std::exp(-std::pow((t - 0.5) / 0.05, 2)); };
  const auto u = sh_layer_surface_response(p, inc, 1000, 0.001);
  // Z1 == Z2: single arrival, amplitude 2, delayed by H/vs1 = 0.1 s.
  std::vector<double> expected(1000);
  for (int k = 0; k < 1000; ++k) expected[static_cast<std::size_t>(k)] = 2.0 * inc(k * 0.001 - 0.1);
  EXPECT_LT(quake::util::rel_l2(u, expected), 1e-12);
}

TEST(Sh1d, SoftLayerAmplifies) {
  // Soft layer over stiff halfspace: surface peak exceeds the halfspace
  // doubling because of impedance-contrast amplification.
  ShLayerParams p{100.0, 1700.0, 300.0, 2500.0, 2000.0};
  auto inc = [](double t) { return std::exp(-std::pow((t - 1.0) / 0.15, 2)); };
  const auto u = sh_layer_surface_response(p, inc, 4000, 0.001);
  EXPECT_GT(quake::util::norm_max(u), 2.2);
}

TEST(Solver, FlopAccountingPositive) {
  const auto mesh = uniform_mesh(2, 100.0);
  OperatorOptions oo;
  const ElasticOperator op(mesh, oo);
  SolverOptions so;
  so.t_end = 0.01;
  EXPECT_GT(run_one_rank(mesh, oo, so, {}, {}).rank_stats[0].flops, 0u);
  EXPECT_GT(op.flops_per_apply(), 0u);
}

// Checkpoint/restart at one rank: a run whose only rank is killed after a
// checkpoint resumes from the mid-flight CRC32-verified snapshot and
// reproduces the uninterrupted run bit-for-bit (state, receiver
// histories), with Rayleigh damping and Stacey faces on a hanging mesh.
TEST(Solver, CheckpointResumeBitIdentical) {
  const auto mesh = hanging_mesh(100.0);
  OperatorOptions oo;
  oo.abc = fem::AbcType::kStacey;
  oo.rayleigh = true;
  oo.damping_f_min = 1.0;
  oo.damping_f_max = 20.0;
  SolverOptions so;
  so.t_end = 0.05;
  const PointSource src(mesh, {50.0, 50.0, 50.0}, {1.0, 0.5, 0.2}, 2.0, 40.0,
                        0.01);
  const SourceModel* sources[] = {&src};
  const std::array<double, 3> rxs[] = {{80.0, 20.0, 0.0}};
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, oo, so);
  const par::ParallelResult ref = setup.run(so.t_end, sources, rxs);
  ASSERT_GT(ref.n_steps, 4);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_solver_ckpt_test";
  std::filesystem::remove_all(dir);
  par::FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*step=*/2 * ref.n_steps / 3});
  par::FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = std::max(1, ref.n_steps / 3);
  ft.max_retries = 1;
  ft.fault_plan = &plan;
  const par::ParallelResult resumed = setup.run(so.t_end, sources, rxs, ft);
  EXPECT_TRUE(testsupport::same_bits(resumed, ref));
  // The retry resumed mid-flight rather than starting over.
  EXPECT_LT(resumed.rank_stats[0].flops, ref.rank_stats[0].flops);
  std::filesystem::remove_all(dir);
}

// Snapshots whose every retained generation is corrupt must all be
// rejected (CRC) and the run must start over from step zero — bitwise the
// from-scratch run — rather than integrate garbage.
TEST(Solver, CorruptedCheckpointIgnored) {
  const auto mesh = uniform_mesh(2, 100.0);
  SolverOptions so;
  so.t_end = 0.02;
  const par::Partition part = par::partition_sfc(mesh, 1);
  par::ParallelSetup setup(mesh, part, {}, so);
  const par::ParallelResult ref = setup.run(so.t_end, {}, {});
  ASSERT_GE(ref.n_steps, 3);

  // A run killed at its last step with retries exhausted leaves both
  // retained checkpoint generations on disk.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "quake_solver_bad_ckpt_test";
  std::filesystem::remove_all(dir);
  par::FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*step=*/ref.n_steps - 1});
  par::FaultToleranceOptions ft;
  ft.checkpoint_dir = dir.string();
  ft.checkpoint_every = 1;
  ft.fault_plan = &plan;
  EXPECT_THROW(setup.run(so.t_end, {}, {}, ft), par::RankFailedError);
  // Flip one byte in the middle of every generation.
  int corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
    ++corrupted;
  }
  ASSERT_EQ(corrupted, par::Recovery::kGenerations);

  ft.fault_plan = nullptr;
  const par::ParallelResult resumed = setup.run(so.t_end, {}, {}, ft);
  EXPECT_TRUE(testsupport::same_bits(resumed, ref));
  EXPECT_EQ(resumed.rank_stats[0].flops, ref.rank_stats[0].flops);
  std::filesystem::remove_all(dir);
}

}  // namespace
