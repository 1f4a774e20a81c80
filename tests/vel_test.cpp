// Tests for the velocity models and the wavelength->element-size rule.

#include <gtest/gtest.h>

#include <cmath>

#include "quake/vel/model.hpp"

namespace {

using namespace quake::vel;

TEST(Material, FromVelocitiesRoundTrip) {
  const Material m = Material::from_velocities(2000.0, 1000.0, 2200.0);
  EXPECT_NEAR(m.vp(), 2000.0, 1e-9);
  EXPECT_NEAR(m.vs(), 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.rho, 2200.0);
  EXPECT_GT(m.mu, 0.0);
  EXPECT_GT(m.lambda, 0.0);
}

TEST(Layered, PicksCorrectLayer) {
  const Material soft = Material::from_velocities(600.0, 300.0, 1800.0);
  const Material hard = Material::from_velocities(5000.0, 2900.0, 2600.0);
  LayeredModel model({{100.0, soft}, {0.0, hard}});
  EXPECT_NEAR(model.at(0, 0, 50.0).vs(), 300.0, 1e-9);
  EXPECT_NEAR(model.at(0, 0, 150.0).vs(), 2900.0, 1e-9);
  EXPECT_NEAR(model.min_vs(), 300.0, 1e-9);
}

TEST(Layered, EmptyThrows) {
  EXPECT_THROW(LayeredModel({}), std::invalid_argument);
}

TEST(Basin, SurfaceInsideBasinIsSoft) {
  const BasinModel m = BasinModel::demo(40000.0);
  // Center of the deepest depression: near-surface sediments are soft
  // (within a couple of hundred m/s of the 100 m/s floor, far below rock).
  const auto& dep = m.params().depressions[1];
  EXPECT_LT(m.at(dep.cx, dep.cy, 1.0).vs(), 300.0);
}

TEST(Basin, RockOutsideBasin) {
  const BasinModel m = BasinModel::demo(40000.0);
  // Far corner: no depression reaches there meaningfully.
  const double vs = m.at(100.0, 39000.0, 100.0).vs();
  EXPECT_GT(vs, 2000.0);
}

TEST(Basin, VsIncreasesWithDepthInsideBasin) {
  const BasinModel m = BasinModel::demo(40000.0);
  const auto& dep = m.params().depressions[1];
  double prev = 0.0;
  for (double z = 10.0; z < dep.depth; z += dep.depth / 16.0) {
    const double vs = m.at(dep.cx, dep.cy, z).vs();
    EXPECT_GE(vs, prev);
    prev = vs;
  }
}

TEST(Basin, StrongVelocityContrastExists) {
  // The property that makes octree meshes pay off: >= 20x vs contrast.
  const BasinModel m = BasinModel::demo(40000.0);
  const double soft = m.min_vs();
  const double hard = m.at(100.0, 100.0, 35000.0).vs();
  EXPECT_GE(hard / soft, 20.0);
}

TEST(Basin, BasementDepthMaxAtCenters) {
  const BasinModel m = BasinModel::demo(40000.0);
  for (const auto& dep : m.params().depressions) {
    EXPECT_NEAR(m.basement_depth(dep.cx, dep.cy), dep.depth, 0.35 * dep.depth);
    // Far from this depression only other (small) overlaps contribute.
    EXPECT_LT(m.basement_depth(dep.cx + 5 * dep.radius, dep.cy),
              0.05 * dep.depth);
  }
}

TEST(ElementSize, WavelengthRule) {
  // h = vs / (n_lambda * f_max): 10 points per wavelength at 1 Hz and
  // 100 m/s gives 10 m elements.
  EXPECT_DOUBLE_EQ(element_size_for(100.0, 1.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(element_size_for(3000.0, 2.0, 10.0), 150.0);
  EXPECT_THROW((void)element_size_for(0.0, 1.0, 10.0), std::invalid_argument);
}

TEST(Material, PhysicalPoissonRatio) {
  // Every sampled basin material must have lambda >= 0 (vp/vs >= sqrt(2)).
  const BasinModel m = BasinModel::demo(40000.0);
  for (double x = 1000.0; x < 40000.0; x += 7777.0) {
    for (double z = 1.0; z < 30000.0; z += 2000.0) {
      const Material mat = m.at(x, 0.5 * x, z);
      EXPECT_GE(mat.lambda, 0.0) << "at x=" << x << " z=" << z;
      EXPECT_GT(mat.mu, 0.0);
      EXPECT_GT(mat.rho, 1000.0);
    }
  }
}

}  // namespace
