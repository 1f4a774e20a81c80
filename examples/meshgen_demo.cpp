// Etree mesh-generation walkthrough (Fig 2.1): construct -> balance ->
// transform, in core and out of core, with database statistics. Exits 1
// unless the out-of-core mesh equals the in-core one field for field and
// the balanced store holds exactly the balanced leaves.
//
//   ./meshgen_demo [work_dir]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/octree/etree_store.hpp"
#include "quake/util/timer.hpp"

namespace {

using namespace quake;

// Byte equality of two arrays of padding-free records (doubles compare by
// bit pattern).
template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// The first HexMesh field in which `a` and `b` differ, or nullptr.
const char* first_difference(const mesh::HexMesh& a, const mesh::HexMesh& b) {
  if (std::memcmp(&a.domain.size, &b.domain.size, sizeof(double)) != 0) {
    return "domain";
  }
  if (!same_bytes(a.elem_nodes, b.elem_nodes)) return "elem_nodes";
  if (!same_bytes(a.elem_size, b.elem_size)) return "elem_size";
  if (!same_bytes(a.elem_level, b.elem_level)) return "elem_level";
  if (!same_bytes(a.elem_mat, b.elem_mat)) return "elem_mat";
  if (!same_bytes(a.node_coords, b.node_coords)) return "node_coords";
  if (!same_bytes(a.node_hanging, b.node_hanging)) return "node_hanging";
  // Constraint and BoundaryFace have padding: compare member by member.
  const auto same_constraint = [](const mesh::Constraint& x,
                                  const mesh::Constraint& y) {
    return x.node == y.node && x.n_masters == y.n_masters &&
           x.masters == y.masters &&
           std::memcmp(x.weights.data(), y.weights.data(),
                       sizeof x.weights) == 0;
  };
  if (!std::equal(a.constraints.begin(), a.constraints.end(),
                  b.constraints.begin(), b.constraints.end(),
                  same_constraint)) {
    return "constraints";
  }
  const auto same_face = [](const mesh::BoundaryFace& x,
                            const mesh::BoundaryFace& y) {
    return x.elem == y.elem && x.side == y.side;
  };
  if (!std::equal(a.boundary_faces.begin(), a.boundary_faces.end(),
                  b.boundary_faces.begin(), b.boundary_faces.end(),
                  same_face)) {
    return "boundary_faces";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : "/tmp";

  const double extent = 20000.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);
  mesh::MeshOptions opt;
  opt.domain_size = extent;
  opt.f_max = 0.3;
  opt.n_lambda = 8.0;
  opt.min_level = 3;
  opt.max_level = 6;

  // Step 1: construct — wavelength-adaptive refinement via auto-navigation.
  util::Timer timer;
  const octree::LinearOctree constructed =
      octree::build_octree(mesh::wavelength_policy(model, opt), opt.max_level);
  std::printf("construct: %zu octants (%.3f s)\n", constructed.size(),
              timer.seconds());

  // Step 2: balance — enforce the 2-to-1 constraint.
  timer.reset();
  const octree::LinearOctree balanced =
      octree::balance(constructed, octree::BalanceScope::kAll);
  std::printf("balance:   %zu octants, +%zu from balancing (%.3f s)\n",
              balanced.size(), balanced.size() - constructed.size(),
              timer.seconds());
  auto hist = balanced.level_histogram();
  for (std::size_t l = 0; l < hist.size(); ++l) {
    if (hist[l] > 0) {
      std::printf("  level %2zu: %8zu leaves (h = %.0f m)\n", l, hist[l],
                  extent / (1 << l));
    }
  }

  // Step 3: transform — elements, nodes, hanging constraints.
  timer.reset();
  const mesh::HexMesh mesh = mesh::transform(balanced, model, opt);
  std::printf("transform: %zu elements, %zu nodes, %zu hanging (%.3f s)\n",
              mesh.n_elements(), mesh.n_nodes(), mesh.n_hanging(),
              timer.seconds());

  // The same pipeline through the disk-backed etree store.
  timer.reset();
  const std::string store_path = work_dir + "/meshgen_demo.etree";
  const mesh::HexMesh ooc = mesh::generate_mesh_out_of_core(model, opt, store_path);
  std::printf("out-of-core pipeline: %zu elements (%.3f s), store at %s\n",
              ooc.n_elements(), timer.seconds(), store_path.c_str());
  if (const char* field = first_difference(mesh, ooc)) {
    std::fprintf(stderr, "out-of-core mesh differs from in-core in %s\n",
                 field);
    return 1;
  }
  {
    octree::EtreeStore store(store_path + ".balanced", sizeof(double), 32,
                             /*create=*/false);
    const auto st = store.stats();
    std::printf("balanced store: %llu records; this session: %llu page reads, "
                "%llu cache hits\n",
                static_cast<unsigned long long>(store.count()),
                static_cast<unsigned long long>(st.page_reads),
                static_cast<unsigned long long>(st.cache_hits));
    if (store.count() != balanced.size()) {
      std::fprintf(stderr, "balanced store holds %llu records, tree %zu\n",
                   static_cast<unsigned long long>(store.count()),
                   balanced.size());
      return 1;
    }
  }

  const auto stats = mesh::compute_stats(mesh, model, opt);
  std::printf("multiresolution saving vs uniform grid: %.0fx fewer points\n",
              stats.uniform_equivalent_points /
                  static_cast<double>(stats.n_nodes));
  return 0;
}
