// Microbenchmarks (google-benchmark) for the performance claims of §2:
//  * element-local dense stiffness application vs assembled-sparse CSR
//    matvec — the cache-friendliness argument behind the hexahedral design
//    (and the ~10x memory gap);
//  * the blocked element kernels vs the straight-line references
//    (hex_apply / hex_apply_batch / hex_scalar_apply A/B rows — run these
//    interleaved and repeated, they are the evidence for the SIMD
//    restructuring), the portable instantiations of the elastic kernel
//    and of ScalarModel3d's element passes next to the dispatched ones
//    (the context line `hex_kernels` names the width the process picked
//    for both), and ScalarModel3d::apply_k vs the per-element pass it
//    replaced;
//  * Morton encode/decode;
//  * 2-to-1 balancing algorithms;
//  * etree store point operations.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/octree/etree_store.hpp"
#include "quake/octree/morton.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/sparse_engine.hpp"
#include "quake/util/rng.hpp"
#include "quake/wave3d/scalar_model.hpp"
#include "hex_apply_ref.hpp"
#include "hex_kernels.hpp"
#include "scalar_passes.hpp"

namespace {

using namespace quake;

const mesh::HexMesh& bench_mesh() {
  static const mesh::HexMesh mesh = [] {
    const vel::BasinModel model = vel::BasinModel::demo(12800.0);
    mesh::MeshOptions opt;
    opt.domain_size = 12800.0;
    opt.f_max = 0.4;
    opt.n_lambda = 8.0;
    opt.min_level = 3;
    opt.max_level = 6;
    return mesh::generate_mesh(model, opt);
  }();
  return mesh;
}

void BM_ElementStiffnessApply(benchmark::State& state) {
  const auto& mesh = bench_mesh();
  solver::OperatorOptions oo;
  oo.abc = fem::AbcType::kNone;
  const solver::ElasticOperator op(mesh, oo);
  util::Rng rng(1);
  std::vector<double> u(op.n_dofs()), y(op.n_dofs(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), 0.0);
    op.apply_stiffness(u, y, {});
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflop/s"] = benchmark::Counter(
      static_cast<double>(op.flops_per_apply()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["elements"] = static_cast<double>(mesh.n_elements());
}
BENCHMARK(BM_ElementStiffnessApply)->Unit(benchmark::kMillisecond);

void BM_SparseStiffnessApply(benchmark::State& state) {
  const auto& mesh = bench_mesh();
  const solver::SparseStiffness sparse(mesh);
  util::Rng rng(1);
  std::vector<double> u(3 * mesh.n_nodes()), y(3 * mesh.n_nodes(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    std::fill(y.begin(), y.end(), 0.0);
    sparse.apply(u, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflop/s"] = benchmark::Counter(
      static_cast<double>(sparse.flops_per_apply()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["matrix_MB"] =
      static_cast<double>(sparse.memory_bytes()) / 1e6;
}
BENCHMARK(BM_SparseStiffnessApply)->Unit(benchmark::kMillisecond);

// --- Element-kernel A/B: blocked (production) vs straight-line reference.
// Both sides stream the same 4096-element pool through a runtime function
// pointer, so call overhead is identical and the delta isolates the kernel
// body. arg 0 = damping accumulator on/off. Interpret only interleaved
// repeated runs (see docs/EXPERIMENTS.md); the kernels are bitwise
// identical, so the Mflop/s spread is the whole story.

using HexKernel = void (*)(const fem::HexReference&, const double*, double,
                           double, double*, double, double*);

void hex_apply_ab(benchmark::State& state, HexKernel kernel) {
  const fem::HexReference& ref = fem::HexReference::get();
  const bool damp = state.range(0) != 0;
  constexpr int kElems = 4096;
  util::Rng rng(7);
  std::vector<double> u(static_cast<std::size_t>(kElems) * fem::kHexDofs);
  std::vector<double> y(u.size(), 0.0), d(u.size(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    for (int e = 0; e < kElems; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * fem::kHexDofs;
      kernel(ref, &u[off], 1.1, 0.9, &y[off], 0.02,
             damp ? &d[off] : nullptr);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflop/s"] = benchmark::Counter(
      static_cast<double>(kElems) *
          static_cast<double>(fem::hex_apply_flops(damp)) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_HexApplyBlocked(benchmark::State& state) {
  hex_apply_ab(state, &fem::hex_apply);
}
BENCHMARK(BM_HexApplyBlocked)->Arg(0)->Arg(1);

// The portable (util::Vec2) instantiation of the same body, reached past
// the dispatcher: on an AVX2 host the row above runs the AVX2 one.
void BM_HexApplyBlockedPortable(benchmark::State& state) {
  hex_apply_ab(state, fem::detail::hex_kernels_portable().apply);
}
BENCHMARK(BM_HexApplyBlockedPortable)->Arg(0)->Arg(1);

void BM_HexApplyRef(benchmark::State& state) {
  hex_apply_ab(state, &testsupport::hex_apply_ref);
}
BENCHMARK(BM_HexApplyRef)->Arg(0)->Arg(1);

// Scalar element kernel A/B (the sequence ScalarModel3d's x-row passes
// keep per lane; they call it for a row's one left-over element):
// row-pair (production) vs straight-line reference, through
// the same function-pointer harness and 4096-element pool as above.
using HexScalarKernel = void (*)(const fem::HexReference&, const double*,
                                 double, double*);

void hex_scalar_ab(benchmark::State& state, HexScalarKernel kernel) {
  // 8 rows of 8 multiply-adds, then the scaled accumulate.
  constexpr double kFlops = 8 * (2 * 8 + 2);
  const fem::HexReference& ref = fem::HexReference::get();
  constexpr int kElems = 4096;
  util::Rng rng(13);
  std::vector<double> u(static_cast<std::size_t>(kElems) * fem::kHexNodes);
  std::vector<double> y(u.size(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    for (int e = 0; e < kElems; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * fem::kHexNodes;
      kernel(ref, &u[off], 1.1, &y[off]);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["Mflop/s"] = benchmark::Counter(
      kElems * kFlops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_HexScalarApply(benchmark::State& state) {
  hex_scalar_ab(state, &fem::hex_scalar_apply);
}
BENCHMARK(BM_HexScalarApply);

void BM_HexScalarApplyRef(benchmark::State& state) {
  hex_scalar_ab(state, &testsupport::hex_scalar_apply_ref);
}
BENCHMARK(BM_HexScalarApplyRef);

// One element pass of the 3D scalar inversion, on invert_3d's 10^3 wave
// grid: ScalarModel3d::apply_k (the x-row walk at the dispatched width,
// production) vs the per-element gather / hex_scalar_apply / scatter loop
// it replaced (testsupport::scalar3d_apply_k_ref).
using Scalar3dPass = void (*)(const wave3d::ScalarModel3d&,
                              std::span<const double>, std::span<double>);

void scalar3d_pass_ab(benchmark::State& state, Scalar3dPass pass) {
  const wave3d::ScalarGrid3d g{10, 10, 10, 100.0};
  util::Rng rng(17);
  std::vector<double> mu(static_cast<std::size_t>(g.n_elems()));
  for (double& v : mu) v = rng.uniform(1.6e9, 2.0e9);
  const wave3d::ScalarModel3d model(g, std::move(mu), 2200.0);
  std::vector<double> u(static_cast<std::size_t>(g.n_nodes()));
  std::vector<double> y(u.size(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    pass(model, u, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["elems/s"] = benchmark::Counter(
      g.n_elems(), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ScalarModel3dApplyK(benchmark::State& state) {
  scalar3d_pass_ab(state, [](const wave3d::ScalarModel3d& m,
                             std::span<const double> u, std::span<double> y) {
    m.apply_k(u, y);
  });
}
BENCHMARK(BM_ScalarModel3dApplyK)->Unit(benchmark::kMicrosecond);

// The portable (util::Vec2) instantiation of the same walk, reached past
// the dispatcher: on an AVX2 host the row above runs the AVX2 one.
void BM_ScalarModel3dApplyKPortable(benchmark::State& state) {
  scalar3d_pass_ab(state, [](const wave3d::ScalarModel3d& m,
                             std::span<const double> u, std::span<double> y) {
    wave3d::detail::scalar_passes_portable().scatter(m.grid(), m.mu().data(),
                                                      u.data(), y.data());
  });
}
BENCHMARK(BM_ScalarModel3dApplyKPortable)->Unit(benchmark::kMicrosecond);

void BM_ScalarModel3dApplyKRef(benchmark::State& state) {
  scalar3d_pass_ab(state, &testsupport::scalar3d_apply_k_ref);
}
BENCHMARK(BM_ScalarModel3dApplyKRef)->Unit(benchmark::kMicrosecond);

// Batched (scenario-lane) kernel A/B at lane widths 4, 8 (the serving
// benchmark's max_batch) and 16 (kMaxBatchLanes). arg 0 = lane count;
// damping always on (the solver's batch path runs with Rayleigh damping in
// every Table 2-1 configuration).
using HexBatchKernel = void (*)(const fem::HexReference&, const double*, int,
                                double, double, double*, double, double*);

void hex_apply_batch_ab(benchmark::State& state, HexBatchKernel kernel) {
  const fem::HexReference& ref = fem::HexReference::get();
  const int lanes = static_cast<int>(state.range(0));
  constexpr int kElems = 1024;
  util::Rng rng(11);
  std::vector<double> u(static_cast<std::size_t>(kElems) * fem::kHexDofs *
                        static_cast<std::size_t>(lanes));
  std::vector<double> y(u.size(), 0.0), d(u.size(), 0.0);
  for (double& v : u) v = rng.uniform(-1.0, 1.0);
  const std::size_t stride =
      static_cast<std::size_t>(fem::kHexDofs) * static_cast<std::size_t>(lanes);
  for (auto _ : state) {
    for (int e = 0; e < kElems; ++e) {
      const std::size_t off = static_cast<std::size_t>(e) * stride;
      kernel(ref, &u[off], lanes, 1.1, 0.9, &y[off], 0.02, &d[off]);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflop/s"] = benchmark::Counter(
      static_cast<double>(kElems) * static_cast<double>(lanes) *
          static_cast<double>(fem::hex_apply_flops(true)) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_HexApplyBatchBlocked(benchmark::State& state) {
  hex_apply_batch_ab(state, &fem::hex_apply_batch);
}
BENCHMARK(BM_HexApplyBatchBlocked)->Arg(4)->Arg(8)->Arg(16);

void BM_HexApplyBatchBlockedPortable(benchmark::State& state) {
  hex_apply_batch_ab(state, fem::detail::hex_kernels_portable().apply_batch);
}
BENCHMARK(BM_HexApplyBatchBlockedPortable)->Arg(4)->Arg(8)->Arg(16);

void BM_HexApplyBatchRef(benchmark::State& state) {
  hex_apply_batch_ab(state, &testsupport::hex_apply_batch_ref);
}
BENCHMARK(BM_HexApplyBatchRef)->Arg(4)->Arg(8)->Arg(16);

void BM_MortonEncodeDecode(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<std::uint32_t> xs(4096);
  for (auto& v : xs) v = static_cast<std::uint32_t>(rng.next_u64() & 0x1fffff);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i + 2 < xs.size(); i += 3) {
      const auto code = octree::morton_encode(xs[i], xs[i + 1], xs[i + 2]);
      acc ^= octree::morton_decode(code).x;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MortonEncodeDecode);

void BM_BalanceQueue(benchmark::State& state) {
  const std::uint32_t mid = octree::kTicks / 2;
  const auto stress = octree::build_octree(
      [&](const octree::Octant& o) {
        if (o.level < 2) return true;
        return o.z <= mid && mid < o.z + o.size() && o.level < 6;
      },
      6);
  for (auto _ : state) {
    auto b = octree::balance(stress, octree::BalanceScope::kAll);
    benchmark::DoNotOptimize(b.size());
  }
}
BENCHMARK(BM_BalanceQueue)->Unit(benchmark::kMillisecond);

void BM_BalanceGlobalSweeps(benchmark::State& state) {
  const std::uint32_t mid = octree::kTicks / 2;
  const auto stress = octree::build_octree(
      [&](const octree::Octant& o) {
        if (o.level < 2) return true;
        return o.z <= mid && mid < o.z + o.size() && o.level < 6;
      },
      6);
  for (auto _ : state) {
    auto b = octree::balance_global_sweeps(stress, octree::BalanceScope::kAll);
    benchmark::DoNotOptimize(b.size());
  }
}
BENCHMARK(BM_BalanceGlobalSweeps)->Unit(benchmark::kMillisecond);

void BM_EtreeStorePut(benchmark::State& state) {
  const auto tree =
      octree::build_octree([](const octree::Octant& o) { return o.level < 4; },
                           4);
  for (auto _ : state) {
    octree::EtreeStore store("/tmp/bench_micro.etree", sizeof(double), 64,
                             /*create=*/true);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const double v = static_cast<double>(i);
      store.put(tree[i], std::as_bytes(std::span<const double, 1>(&v, 1)));
    }
    benchmark::DoNotOptimize(store.count());
  }
  state.counters["records"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_EtreeStorePut)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hex_kernels",
                              fem::detail::hex_kernels().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
