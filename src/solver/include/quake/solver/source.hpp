#pragma once

// Seismic source models. The paper represents earthquake rupture by body
// forces that equilibrate an induced displacement dislocation on the fault
// plane (§2.1); each fault point has a dislocation function g(t) whose time
// derivative is a triangle (Fig 3.1), parameterized by delay time T, rise
// time t0, and dislocation amplitude u0.

#include <array>
#include <span>
#include <vector>

#include "quake/mesh/hex_mesh.hpp"
#include "quake/solver/locator.hpp"

namespace quake::solver {

// -- source time functions ---------------------------------------------------

// Dislocation ramp g(t; t0): 0 for t < 0, rises to 1 at t = t0 with a
// triangular velocity pulse (isosceles triangle peaking at t0/2). This is
// the paper's slip function, normalized to unit final slip.
double ramp_g(double t, double t0);
// dg/dt: the triangular slip-velocity.
double ramp_g_dot(double t, double t0);

// Ricker wavelet with peak frequency fp, centered at tc (point-source tests
// and the quickstart example).
double ricker(double t, double fp, double tc);

// -- discrete sources ---------------------------------------------------------

// Receives force contributions keyed by (global node, component). The serial
// solver backs this with a full-length vector; the parallel solver's sink
// keeps only rank-local nodes, so sources never materialize a global vector
// on a rank.
class ForceSink {
 public:
  virtual ~ForceSink() = default;
  virtual void add(mesh::NodeId node, int comp, double value) = 0;
};

// ForceSink over a full-length interleaved vector.
class SpanForceSink final : public ForceSink {
 public:
  explicit SpanForceSink(std::span<double> f) : f_(f) {}
  void add(mesh::NodeId node, int comp, double value) override {
    f_[3 * static_cast<std::size_t>(node) + static_cast<std::size_t>(comp)] +=
        value;
  }

 private:
  std::span<double> f_;
};

class SourceModel {
 public:
  virtual ~SourceModel() = default;
  // Emits the body forces at time t into the sink.
  virtual void add_forces(double t, ForceSink& sink) const = 0;

  // Convenience for full-length vectors (length 3 * n_nodes, interleaved).
  void add_forces(double t, std::span<double> f) const {
    SpanForceSink sink(f);
    add_forces(t, sink);
  }
};

// Point force at the node nearest to `position`, along `direction`
// (normalized), with a Ricker time history of peak frequency `fp`. The
// locator overload snaps through a locator built once per mesh (a
// ParallelSetup holds one); the mesh overload builds one for this source.
class PointSource final : public SourceModel {
 public:
  PointSource(const NodeLocator& nodes, std::array<double, 3> position,
              std::array<double, 3> direction, double amplitude, double fp,
              double tc);
  PointSource(const mesh::HexMesh& mesh, std::array<double, 3> position,
              std::array<double, 3> direction, double amplitude, double fp,
              double tc);
  void add_forces(double t, ForceSink& sink) const override;
  using SourceModel::add_forces;
  [[nodiscard]] mesh::NodeId node() const { return node_; }

 private:
  mesh::NodeId node_;
  std::array<double, 3> dir_;
  double amplitude_, fp_, tc_;
};

// Extended vertical strike-slip fault in the plane y = y0, strike along x,
// spanning [x0, x1] x [z_top, z_bot]. Rupture nucleates at the hypocenter
// and spreads at rupture velocity vr; every fault point slips u0 with rise
// time t0 (the paper's idealized Northridge-style source). The dislocation
// is converted to equilibrating body-force couples (a double couple per
// fault patch) injected at the nearest mesh nodes, found through `nodes`
// (the mesh overload builds a locator for this source).
class FaultSource final : public SourceModel {
 public:
  struct Spec {
    double y = 0.0;                       // fault plane position [m]
    double x0 = 0.0, x1 = 0.0;            // along-strike extent [m]
    double z_top = 0.0, z_bot = 0.0;      // depth extent [m]
    std::array<double, 2> hypocenter{};   // (x, z) on the plane [m]
    double rupture_velocity = 3000.0;     // [m/s]
    double rise_time = 1.0;               // t0 [s]
    double slip = 1.0;                    // u0 [m]
    double patch_spacing = 0.0;           // [m]; 0 = median element size
  };

  FaultSource(const NodeLocator& nodes, const Spec& spec);
  FaultSource(const mesh::HexMesh& mesh, const Spec& spec);
  void add_forces(double t, ForceSink& sink) const override;
  using SourceModel::add_forces;

  [[nodiscard]] std::size_t n_patches() const { return patches_.size(); }

 private:
  struct Patch {
    // Double-couple force items: +/- x-forces offset in y, +/- y-forces
    // offset in x. Four injection nodes, signed directions.
    std::array<mesh::NodeId, 4> nodes;
    std::array<int, 4> component;  // 0 = x, 1 = y
    std::array<double, 4> sign;
    double force_scale;  // mu * A_patch * u0 / arm
    double delay;        // T: hypocentral distance / vr
    double rise_time;
  };
  std::vector<Patch> patches_;
};

// Nearest non-hanging mesh node to a position (lowest index among exact
// ties). Builds a NodeLocator (quake/solver/locator.hpp) for the one query;
// callers placing many points should build the locator once instead.
mesh::NodeId nearest_node(const mesh::HexMesh& mesh,
                          std::array<double, 3> position);

}  // namespace quake::solver
