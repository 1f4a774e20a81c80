#include "quake/solver/source.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace quake::solver {

double ramp_g(double t, double t0) {
  if (t <= 0.0) return 0.0;
  if (t >= t0) return 1.0;
  const double x = t / t0;
  // Integral of the unit-area isosceles triangle of base t0.
  if (x < 0.5) return 2.0 * x * x;
  return 1.0 - 2.0 * (1.0 - x) * (1.0 - x);
}

double ramp_g_dot(double t, double t0) {
  if (t <= 0.0 || t >= t0) return 0.0;
  const double peak = 2.0 / t0;  // unit area
  const double x = t / t0;
  return x < 0.5 ? peak * (2.0 * x) : peak * (2.0 * (1.0 - x));
}

double ricker(double t, double fp, double tc) {
  const double a = std::numbers::pi * fp * (t - tc);
  const double a2 = a * a;
  return (1.0 - 2.0 * a2) * std::exp(-a2);
}

mesh::NodeId nearest_node(const mesh::HexMesh& mesh,
                          std::array<double, 3> position) {
  return NodeLocator(mesh).nearest(position);
}

PointSource::PointSource(const mesh::HexMesh& mesh,
                         std::array<double, 3> position,
                         std::array<double, 3> direction, double amplitude,
                         double fp, double tc)
    : PointSource(NodeLocator(mesh), position, direction, amplitude, fp, tc) {
}

PointSource::PointSource(const NodeLocator& nodes,
                         std::array<double, 3> position,
                         std::array<double, 3> direction, double amplitude,
                         double fp, double tc)
    : node_(nodes.nearest(position)),
      dir_(direction),
      amplitude_(amplitude),
      fp_(fp),
      tc_(tc) {
  const double n = std::sqrt(dir_[0] * dir_[0] + dir_[1] * dir_[1] +
                             dir_[2] * dir_[2]);
  if (!(n > 0.0)) throw std::invalid_argument("PointSource: zero direction");
  for (double& d : dir_) d /= n;
}

void PointSource::add_forces(double t, ForceSink& sink) const {
  const double s = amplitude_ * ricker(t, fp_, tc_);
  for (int c = 0; c < 3; ++c) {
    sink.add(node_, c, s * dir_[static_cast<std::size_t>(c)]);
  }
}

FaultSource::FaultSource(const mesh::HexMesh& mesh, const Spec& spec)
    : FaultSource(NodeLocator(mesh), spec) {}

FaultSource::FaultSource(const NodeLocator& nodes, const Spec& spec) {
  const mesh::HexMesh& mesh = nodes.mesh();
  if (!(spec.x1 > spec.x0) || !(spec.z_bot > spec.z_top)) {
    throw std::invalid_argument("FaultSource: degenerate plane");
  }
  // Patch spacing: default to the median element size near the fault,
  // approximated by the global median.
  double spacing = spec.patch_spacing;
  if (spacing <= 0.0) {
    std::vector<double> sizes(mesh.elem_size);
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                     sizes.end());
    spacing = sizes[sizes.size() / 2];
  }
  const int nx = std::max(1, static_cast<int>((spec.x1 - spec.x0) / spacing));
  const int nz =
      std::max(1, static_cast<int>((spec.z_bot - spec.z_top) / spacing));
  const double dx = (spec.x1 - spec.x0) / nx;
  const double dz = (spec.z_bot - spec.z_top) / nz;
  const double area = dx * dz;

  // Each patch asks for four nearest nodes and the shear modulus at its
  // center; the element lookup goes through a bucket grid built once here.
  const ElementLocator elems(mesh);

  patches_.reserve(static_cast<std::size_t>(nx) * nz);
  for (int i = 0; i < nx; ++i) {
    for (int k = 0; k < nz; ++k) {
      const double x = spec.x0 + (i + 0.5) * dx;
      const double z = spec.z_top + (k + 0.5) * dz;
      // Local shear modulus: the material of the element containing the
      // patch center.
      const mesh::ElemId e = elems.containing({x, spec.y, z});
      const double mu =
          e < 0 ? 0.0 : mesh.elem_mat[static_cast<std::size_t>(e)].mu;
      if (mu <= 0.0) continue;  // patch outside the mesh
      const double arm = spacing;  // moment arm of the force couples
      Patch p;
      // Couple 1: +/- x-directed forces offset in +/- y (slip direction x,
      // fault normal y). Couple 2: +/- y-directed forces offset in +/- x,
      // completing the (moment-free) double couple.
      p.nodes = {nodes.nearest({x, spec.y + 0.5 * arm, z}),
                 nodes.nearest({x, spec.y - 0.5 * arm, z}),
                 nodes.nearest({x + 0.5 * arm, spec.y, z}),
                 nodes.nearest({x - 0.5 * arm, spec.y, z})};
      p.component = {0, 0, 1, 1};
      p.sign = {+1.0, -1.0, +1.0, -1.0};
      p.force_scale = mu * area * spec.slip / arm;
      const double rx = x - spec.hypocenter[0];
      const double rz = z - spec.hypocenter[1];
      p.delay = std::sqrt(rx * rx + rz * rz) / spec.rupture_velocity;
      p.rise_time = spec.rise_time;
      patches_.push_back(p);
    }
  }
  if (patches_.empty()) {
    throw std::invalid_argument("FaultSource: no patches inside the mesh");
  }
}

void FaultSource::add_forces(double t, ForceSink& sink) const {
  for (const Patch& p : patches_) {
    const double g = ramp_g(t - p.delay, p.rise_time);
    if (g == 0.0) continue;
    const double s = p.force_scale * g;
    for (int j = 0; j < 4; ++j) {
      sink.add(p.nodes[static_cast<std::size_t>(j)],
               p.component[static_cast<std::size_t>(j)],
               s * p.sign[static_cast<std::size_t>(j)]);
    }
  }
}

}  // namespace quake::solver
