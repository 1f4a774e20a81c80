#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "quake/fem/hex_element.hpp"
#include "quake/util/rng.hpp"

namespace bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

// Keeps the compiler from proving a buffer dead (the google-benchmark
// DoNotOptimize idiom, without the dependency).
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t read_llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 32u << 20;  // no sysfs: assume 32 MiB
  std::size_t mult = 1;
  if (s.back() == 'K') mult = 1u << 10;
  if (s.back() == 'M') mult = 1u << 20;
  if (mult != 1) s.pop_back();
  try {
    return static_cast<std::size_t>(std::stoull(s)) * mult;
  } catch (const std::exception&) {
    return 32u << 20;
  }
}

// Runs `sweep` (which reports the flops it did) repeatedly until
// `min_seconds` elapse, five times; returns the median rate in Gflop/s.
double median_rate(const std::function<double()>& sweep, double min_seconds) {
  sweep();  // warm caches and page in the pool
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    double flops = 0.0;
    const Clock::time_point t0 = Clock::now();
    double t = 0.0;
    do {
      flops += sweep();
      t = seconds_since(t0);
    } while (t < min_seconds);
    rates.push_back(flops / t * 1e-9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  quake::util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

HostProbe probe_host(bool smoke) {
  HostProbe h;
  h.llc_bytes = read_llc_bytes();
  h.triad_bytes = smoke ? (24u << 20) : 4 * h.llc_bytes;
  const std::size_t n = h.triad_bytes / (3 * sizeof(double));
  h.triad_bytes = 3 * sizeof(double) * n;
  {
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    double s = 3.0;
    escape(&s);
    double best = 1e300;
    for (int pass = 0; pass < 6; ++pass) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      escape(a.data());
      if (pass > 0) best = std::min(best, seconds_since(t0));
    }
    h.triad_gbs = static_cast<double>(h.triad_bytes) / best * 1e-9;
  }
  {
    // Sixteen vector registers of independent multiply-add chains (the
    // fastest count measured on SSE2: fewer leave the multiply + add latency
    // exposed, more spill). Separate multiply and add, as the library's
    // kernels are compiled (no contraction into fused FMA in either build).
#if defined(__AVX512F__)
    constexpr int kChains = 16 * 8;
#elif defined(__AVX__)
    constexpr int kChains = 16 * 4;
#else
    constexpr int kChains = 16 * 2;
#endif
    double acc[kChains];
    for (int j = 0; j < kChains; ++j) acc[j] = 1.0 + 1e-3 * j;
    double m = 0.999999, add = 1e-7;
    escape(&m);
    escape(&add);
    const long iters = smoke ? 1000000 : 10000000;
    double best = 1e300;
    for (int pass = 0; pass < 4; ++pass) {
      const Clock::time_point t0 = Clock::now();
      for (long it = 0; it < iters; ++it) {
        for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * m + add;
      }
      escape(acc);
      if (pass > 0) best = std::min(best, seconds_since(t0));
    }
    h.fma_gflops = 2.0 * kChains * static_cast<double>(iters) / best * 1e-9;
  }
  return h;
}

double hex_apply_gflops(std::size_t n_elems, double min_seconds) {
  using namespace quake::fem;
  const HexReference& ref = HexReference::get();
  n_elems = std::max<std::size_t>(n_elems, 8);
  const std::vector<double> u = random_vector(n_elems * kHexDofs, 1);
  const std::vector<double> sl = random_vector(n_elems, 2);
  const std::vector<double> sm = random_vector(n_elems, 3);
  std::vector<double> y(n_elems * kHexDofs, 0.0);
  return median_rate(
      [&] {
        // Packs of 8, as ElasticOperator::apply_stiffness feeds the kernel.
        for (std::size_t e0 = 0; e0 < n_elems; e0 += 8) {
          const int n = static_cast<int>(std::min<std::size_t>(8, n_elems - e0));
          hex_apply_elems(ref, &u[e0 * kHexDofs], n, &sl[e0], &sm[e0],
                          &y[e0 * kHexDofs], nullptr, nullptr);
        }
        escape(y.data());
        return static_cast<double>(n_elems * hex_apply_flops(false));
      },
      min_seconds);
}

double hex_apply_batch_gflops(std::size_t n_elems, int lanes,
                              double min_seconds) {
  using namespace quake::fem;
  const HexReference& ref = HexReference::get();
  // Same memory as the solo pool: n_elems / lanes elements of `lanes`
  // interleaved right-hand sides each.
  const std::size_t pool =
      std::max<std::size_t>(1, n_elems / static_cast<std::size_t>(lanes));
  const std::size_t stride = kHexDofs * static_cast<std::size_t>(lanes);
  const std::vector<double> u = random_vector(pool * stride, 4);
  const std::vector<double> sl = random_vector(pool, 5);
  const std::vector<double> sm = random_vector(pool, 6);
  std::vector<double> y(pool * stride, 0.0);
  return median_rate(
      [&] {
        for (std::size_t e = 0; e < pool; ++e) {
          hex_apply_batch(ref, &u[e * stride], lanes, sl[e], sm[e],
                          &y[e * stride], 0.0, nullptr);
        }
        escape(y.data());
        return static_cast<double>(pool * static_cast<std::size_t>(lanes) *
                                   hex_apply_flops(false));
      },
      min_seconds);
}

double hex_scalar_gflops(std::size_t n_elems, double min_seconds) {
  using namespace quake::fem;
  const HexReference& ref = HexReference::get();
  n_elems = std::max<std::size_t>(n_elems, 1);
  const std::vector<double> u = random_vector(n_elems * kHexNodes, 7);
  const std::vector<double> sc = random_vector(n_elems, 8);
  std::vector<double> y(n_elems * kHexNodes, 0.0);
  return median_rate(
      [&] {
        for (std::size_t e = 0; e < n_elems; ++e) {
          hex_scalar_apply(ref, &u[e * kHexNodes], sc[e], &y[e * kHexNodes]);
        }
        escape(y.data());
        return static_cast<double>(n_elems * kHexScalarFlops);
      },
      min_seconds);
}

}  // namespace bench_e2e
