#pragma once

// The stepper's contracts, checked for each scalar wave model it marches
// (wave2d::ShModel in wave2d_test, wave3d::ScalarModel3d in wave3d_test):
// stepping by hand reproduces time_march, and a stepper restored from a
// stored (u^k, u^{k-1}) pair continues exactly as the one it was taken from.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "quake/util/stats.hpp"
#include "quake/wave2d/march.hpp"

namespace quake::testsupport {

// A point load at `node` over the first five steps.
inline wave2d::RhsFn burst_at(int node) {
  return [node](int k, double, std::span<double> f) {
    if (k < 5) f[static_cast<std::size_t>(node)] = 1e8;
  };
}

template <class Model>
void expect_stepper_matches_march(const Model& m, int node) {
  const double dt = m.stable_dt(0.5);
  const wave2d::RhsFn rhs = burst_at(node);
  const wave2d::MarchResult out =
      wave2d::time_march(m, {dt, 50}, rhs, {}, true);
  wave2d::Stepper<Model> st(m, dt);
  for (int k = 0; k < 50; ++k) {
    st.step(k, rhs);
    EXPECT_LT(
        util::diff_l2(st.u(), out.history[static_cast<std::size_t>(k)]),
        1e-14);
  }
}

template <class Model>
void expect_restart_is_exact(const Model& m, int node) {
  const double dt = m.stable_dt(0.5);
  const wave2d::RhsFn rhs = burst_at(node);
  wave2d::Stepper<Model> a(m, dt);
  for (int k = 0; k < 20; ++k) a.step(k, rhs);
  const std::vector<double> u20 = a.u(), u19 = a.u_prev();
  for (int k = 20; k < 40; ++k) a.step(k, rhs);

  wave2d::Stepper<Model> b(m, dt);
  b.set_state(u20, u19);
  for (int k = 20; k < 40; ++k) b.step(k, rhs);
  EXPECT_LT(util::diff_l2(a.u(), b.u()), 1e-15);
}

}  // namespace quake::testsupport
