// Tests for the etree transform step: element/node extraction, hanging-node
// constraints, boundary faces, and the out-of-core pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/util/rng.hpp"
#include "transform_ref.hpp"

namespace {

using namespace quake::mesh;
using quake::octree::BalanceScope;
using quake::octree::LinearOctree;
using quake::octree::Octant;
using quake::testsupport::mesh_difference;
using quake::testsupport::transform_ref;
using quake::vel::HomogeneousModel;
using quake::vel::Material;

HomogeneousModel rock() {
  return HomogeneousModel(Material::from_velocities(5000.0, 2900.0, 2600.0));
}

MeshOptions uniform_opts(int level, double size = 1000.0) {
  MeshOptions o;
  o.domain_size = size;
  o.f_max = 1e-9;  // no wavelength-driven refinement
  o.min_level = level;
  o.max_level = level;
  return o;
}

TEST(Transform, UniformMeshCounts) {
  const auto model = rock();
  for (int level = 1; level <= 3; ++level) {
    const HexMesh mesh = generate_mesh(model, uniform_opts(level));
    const std::size_t n = static_cast<std::size_t>(1) << level;
    EXPECT_EQ(mesh.n_elements(), n * n * n);
    EXPECT_EQ(mesh.n_nodes(), (n + 1) * (n + 1) * (n + 1));
    EXPECT_EQ(mesh.n_hanging(), 0u);
  }
}

TEST(Transform, UniformMeshBoundaryFaces) {
  const auto model = rock();
  const HexMesh mesh = generate_mesh(model, uniform_opts(2));
  // 4x4x4 elements: each of the 6 cube sides exposes 16 faces.
  EXPECT_EQ(mesh.boundary_faces.size(), 6u * 16u);
}

TEST(Transform, NodeCoordinatesSpanDomain) {
  const auto model = rock();
  const HexMesh mesh = generate_mesh(model, uniform_opts(2, 800.0));
  double lo = 1e300, hi = -1e300;
  for (const auto& c : mesh.node_coords) {
    for (double v : c) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 800.0);
}

TEST(Transform, ElementNodesAreDistinctAndOriented) {
  const auto model = rock();
  const HexMesh mesh = generate_mesh(model, uniform_opts(2));
  for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
    const auto& conn = mesh.elem_nodes[e];
    std::set<NodeId> uniq(conn.begin(), conn.end());
    EXPECT_EQ(uniq.size(), 8u);
    // Tensor ordering: node 1 is +x of node 0, node 2 is +y, node 4 is +z.
    const auto& c0 = mesh.node_coords[static_cast<std::size_t>(conn[0])];
    const auto& c1 = mesh.node_coords[static_cast<std::size_t>(conn[1])];
    const auto& c2 = mesh.node_coords[static_cast<std::size_t>(conn[2])];
    const auto& c4 = mesh.node_coords[static_cast<std::size_t>(conn[4])];
    const double h = mesh.elem_size[e];
    EXPECT_NEAR(c1[0] - c0[0], h, 1e-9);
    EXPECT_NEAR(c2[1] - c0[1], h, 1e-9);
    EXPECT_NEAR(c4[2] - c0[2], h, 1e-9);
  }
}

// A two-level mesh: half the domain refined once. Produces hanging nodes.
HexMesh refined_half_mesh() {
  const auto model = rock();
  MeshOptions opt;
  opt.domain_size = 1000.0;
  opt.f_max = 1e-9;
  opt.min_level = 1;
  opt.max_level = 2;
  auto policy = [](const Octant& o) {
    if (o.level < 1) return true;
    return o.level < 2 && o.x == 0;  // refine the x-lower half
  };
  LinearOctree tree = quake::octree::build_octree(policy, opt.max_level);
  tree = quake::octree::balance(tree, BalanceScope::kAll);
  return transform(tree, model, opt);
}

TEST(Hanging, DetectedOnRefinementInterface) {
  const HexMesh mesh = refined_half_mesh();
  EXPECT_GT(mesh.n_hanging(), 0u);
  EXPECT_EQ(mesh.n_independent() + mesh.n_hanging(), mesh.n_nodes());
}

TEST(Hanging, WeightsArePartitionOfUnity) {
  const HexMesh mesh = refined_half_mesh();
  for (const Constraint& c : mesh.constraints) {
    double sum = 0.0;
    for (int m = 0; m < c.n_masters; ++m) {
      sum += c.weights[static_cast<std::size_t>(m)];
      // Masters must be independent nodes.
      EXPECT_EQ(mesh.node_hanging[static_cast<std::size_t>(
                    c.masters[static_cast<std::size_t>(m)])],
                0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Hanging, GeometricInterpolationIsExact) {
  // The constrained node's coordinates equal the weighted master average —
  // i.e. the constraint interpolates linear fields exactly.
  const HexMesh mesh = refined_half_mesh();
  for (const Constraint& c : mesh.constraints) {
    const auto& xc = mesh.node_coords[static_cast<std::size_t>(c.node)];
    for (int axis = 0; axis < 3; ++axis) {
      double interp = 0.0;
      for (int m = 0; m < c.n_masters; ++m) {
        interp += c.weights[static_cast<std::size_t>(m)] *
                  mesh.node_coords[static_cast<std::size_t>(
                      c.masters[static_cast<std::size_t>(m)])]
                                  [static_cast<std::size_t>(axis)];
      }
      EXPECT_NEAR(interp, xc[static_cast<std::size_t>(axis)], 1e-9);
    }
  }
}

TEST(Meshgen, WavelengthAdaptivityRefinesBasin) {
  // A soft basin atop rock must produce finer elements near the surface
  // inside the basin than at depth.
  const quake::vel::BasinModel basin = quake::vel::BasinModel::demo(20000.0);
  MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.05;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 5;
  const HexMesh mesh = generate_mesh(basin, opt);
  const auto stats = compute_stats(mesh, basin, opt);
  EXPECT_GT(stats.max_level, stats.min_level);
  // Multiresolution saving vs a uniform mesh at the finest wavelength.
  EXPECT_GT(stats.uniform_equivalent_points,
            static_cast<double>(stats.n_nodes));
}

TEST(Meshgen, MeshIsBalancedByConstruction) {
  const quake::vel::BasinModel basin = quake::vel::BasinModel::demo(20000.0);
  MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.05;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 5;
  const LinearOctree tree = build_balanced_octree(basin, opt);
  EXPECT_TRUE(is_balanced(tree, BalanceScope::kAll));
  EXPECT_TRUE(tree.validate(true));
}

TEST(Meshgen, OutOfCorePipelineMatchesInCore) {
  const quake::vel::BasinModel basin = quake::vel::BasinModel::demo(20000.0);
  MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.04;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  const HexMesh a = generate_mesh(basin, opt);
  const HexMesh b = generate_mesh_out_of_core(
      basin, opt, testing::TempDir() + "/ooc_mesh.etree");
  EXPECT_GT(a.n_hanging(), 0u);
  EXPECT_EQ(mesh_difference(a, b), "");
}

// The transform must reproduce the hash-map reference (tests/support) bit
// for bit in every field — node numbering, coordinates, materials,
// hanging flags, constraint masters and weights, boundary faces — on
// basin, layered and synthetic trees, with and without hanging chains.
TEST(Meshgen, TransformMatchesReferenceBitwise) {
  struct Case {
    std::string name;
    LinearOctree tree;
    const quake::vel::VelocityModel* model;
    MeshOptions opt;
  };
  std::vector<Case> cases;

  const quake::vel::BasinModel basin = quake::vel::BasinModel::demo(20000.0);
  MeshOptions basin_opt;
  basin_opt.domain_size = 20000.0;
  basin_opt.n_lambda = 8.0;
  basin_opt.min_level = 2;
  for (const auto& [f_max, level] : {std::pair{0.35, 8}, std::pair{0.12, 6}}) {
    basin_opt.f_max = f_max;
    basin_opt.max_level = level;
    cases.push_back({"basin f_max " + std::to_string(f_max),
                     build_balanced_octree(basin, basin_opt), &basin,
                     basin_opt});
  }

  const quake::vel::LayeredModel layered(
      {{400.0, Material::from_velocities(1200.0, 600.0, 2000.0)},
       {0.0, Material::from_velocities(3460.0, 2000.0, 2400.0)}});
  MeshOptions layered_opt;
  layered_opt.domain_size = 3200.0;
  layered_opt.f_max = 2.0;
  layered_opt.n_lambda = 8.0;
  layered_opt.min_level = 2;
  layered_opt.max_level = 6;
  cases.push_back({"layered", build_balanced_octree(layered, layered_opt),
                   &layered, layered_opt});

  // Synthetic trees on a homogeneous model.
  const HomogeneousModel model = rock();
  const MeshOptions opt = uniform_opts(6);
  // Refined towards the domain centre and graded by balancing across
  // levels 1..6. Balanced across faces only, its hanging nodes form chains
  // (a master that itself hangs).
  const Octant center{quake::octree::kTicks / 2, quake::octree::kTicks / 2,
                      quake::octree::kTicks / 2, quake::octree::kMaxLevel};
  const LinearOctree corner = quake::octree::build_octree(
      [&](const Octant& o) { return o.contains(center); }, 6);
  cases.push_back({"corner_tree(6)", balance(corner, BalanceScope::kAll),
                   &model, opt});
  cases.push_back({"corner_tree(6) faces-only",
                   balance(corner, BalanceScope::kFaces), &model, opt});
  for (const std::uint64_t seed : {3u, 1234u, 999u}) {
    quake::util::Rng rng(seed);
    const LinearOctree t = quake::octree::build_octree(
        [&rng](const Octant& o) { return rng.uniform() < 1.2 / (1 + o.level); },
        6);
    cases.push_back({"random seed " + std::to_string(seed),
                     balance(t, BalanceScope::kAll), &model, opt});
  }
  // A partial domain (the x < 1/2 half of a balanced tree): nodes on the
  // cut have octants no leaf fills, and must not hang.
  {
    std::vector<Octant> half;
    for (const Octant& o : cases.back().tree.leaves()) {
      if (o.x < quake::octree::kTicks / 2) half.push_back(o);
    }
    cases.push_back({"partial domain", LinearOctree(std::move(half)), &model,
                     opt});
  }
  cases.push_back({"uniform level 3",
                   quake::octree::build_octree(
                       [](const Octant& o) { return o.level < 3; }, 3),
                   &model, opt});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const HexMesh want = transform_ref(c.tree, *c.model, c.opt);
    const HexMesh got = transform(c.tree, *c.model, c.opt);
    EXPECT_EQ(mesh_difference(got, want), "");
    if (c.name.starts_with("uniform")) {
      EXPECT_EQ(want.n_hanging(), 0u);
    } else {
      EXPECT_GT(want.n_hanging(), 0u);
    }
    if (c.name.ends_with("faces-only")) {
      // Chain resolution widens a stencil past one edge or face.
      EXPECT_TRUE(std::any_of(
          want.constraints.begin(), want.constraints.end(),
          [](const Constraint& k) { return k.n_masters > 4; }));
    }
  }
}

TEST(Stats, HangingFractionReported) {
  const HexMesh mesh = refined_half_mesh();
  const auto model = rock();
  MeshOptions opt = uniform_opts(2);
  const MeshStats s = compute_stats(mesh, model, opt);
  EXPECT_EQ(s.n_hanging, mesh.n_hanging());
  EXPECT_EQ(s.n_elements, mesh.n_elements());
}

}  // namespace
