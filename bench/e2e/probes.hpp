#pragma once

// Host and kernel probes for bench_e2e's per-layer block, measured in the
// same process (and built with the same compile options as the library) so
// the kernel rates and the host bounds they are divided by share one
// machine state.

#include <cstddef>
#include <cstdint>

namespace bench_e2e {

struct HostProbe {
  std::size_t llc_bytes = 0;    // last-level cache, from sysfs (or a default)
  std::size_t triad_bytes = 0;  // footprint of the three triad arrays
  double triad_gbs = 0.0;       // STREAM triad a = b + s*c, best pass
  double fma_gflops = 0.0;      // multiply-add peak at the build's ISA
};

// STREAM-style triad over arrays whose combined size is >= 4x the last-level
// cache (read from /sys/devices/system/cpu/cpu0/cache/index3/size), and a
// register-resident multiply-add loop. `smoke` shrinks both to a toy size.
HostProbe probe_host(bool smoke);

// Element-kernel rates in Gflop/s over a pool of `n_elems` elements laid out
// back to back (the shape the operator hands the kernel), each the median
// of several timed sweeps of at least `min_seconds`.
double hex_apply_gflops(std::size_t n_elems, double min_seconds);
double hex_apply_batch_gflops(std::size_t n_elems, int lanes,
                              double min_seconds);
double hex_scalar_gflops(std::size_t n_elems, double min_seconds);

// Flops of one hex_scalar_apply call: 8 rows of an 8-term dot product plus
// the scaled accumulate.
inline constexpr std::uint64_t kHexScalarFlops = 8 * (2 * 8 + 2);

// Bytes one hex_apply_elems element moves, computed from array sizes (not
// measured): its 24-vector read, its 24-vector output read and written, and
// two scale factors. The reference matrices stay cache-resident.
inline constexpr std::uint64_t kHexApplyBytes = 24 * 8 * 3 + 2 * 8;

}  // namespace bench_e2e
