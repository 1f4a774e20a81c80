#pragma once

// Shared pieces of bench_e2e (see README.md): options, the per-run report,
// the measured window, and helpers every workload uses. Each workload is
// one function that builds its set-up from the velocity model (or the wave
// grid), runs a closed-loop measured window, checks its outputs, and fills
// a Report with either the end-to-end metrics (untraced) or the per-layer
// block (traced).

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "quake/mesh/hex_mesh.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/obs/report.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "trace.hpp"

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // measured window (split in two when traced)
  bool traced = false;     // per-layer block instead of end-to-end metrics
  bool smoke = false;      // toy sizes for the smoke test
  std::string json_path;   // report file (optional)
  std::string trace_path;  // Chrome trace file (traced runs, optional)
  std::string tmp_base;    // parent of the per-process temp directory
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> info;  // sizes, not metrics
  long attempted = 0;
  long failed = 0;
  Attribution attribution;  // traced runs

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void note(const std::string& name, double value) { info.emplace_back(name, value); }
  [[nodiscard]] bool correct() const;
};

// One closed-loop measured window: the wall it covered and the latency of
// every operation that completed inside it.
struct Window {
  double seconds = 0.0;
  std::vector<double> latencies;  // seconds, one per completed operation
  long failed = 0;                // operations that failed or were refused

  // Completed operations per second (0 for a window with none).
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? static_cast<double>(latencies.size()) / seconds : 0.0;
  }
};

// A per-process directory from mkdtemp, removed with its contents on
// destruction, so concurrent runs never share etree stores or checkpoints.
class TempDir {
 public:
  explicit TempDir(const std::string& base);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The workloads' shared basin domain (the bench_throughput/table 2.1 demo
// basin) and the mesh sizes they use.
inline constexpr double kExtent = 20000.0;
struct MeshSpec {
  double f_max;
  int max_level;
};
quake::mesh::MeshOptions mesh_options(const MeshSpec& spec);

// Velocity model -> out-of-core etree pipeline -> mesh, with the store in
// `dir`. In traced runs the etree page counters land in `etree` and the
// call is one "mesh.build" span under `parent`.
quake::mesh::HexMesh build_mesh(const MeshSpec& spec, const std::string& dir,
                                Tracer& tracer, int parent,
                                quake::obs::Registry* etree);

double seconds_since(Clock::time_point t0);
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);  // linear, p in [0, 1]
double peak_rss_mb();

// Order-sensitive digest of a solve's bits (final field and seismograms):
// two results are bitwise equal iff their digests match (up to a 2^-64
// collision), so the window keeps 8 bytes per request instead of the field.
std::uint64_t digest(const quake::par::ParallelResult& r);

// Telemetry of the solves in a traced window, summed over solves that carry
// an obs report (max over ranks for phase times, sums for counters).
struct ParTotals {
  double solves = 0.0, steps = 0.0, solve_s = 0.0, step_s = 0.0;
  double compute_s = 0.0, exchange_s = 0.0, wait_s = 0.0, overlap = 0.0;
  double bytes = 0.0, msgs = 0.0, updates = 0.0;
  double ckpt_writes = 0.0, ckpt_bytes = 0.0, ckpt_s = 0.0;
  double recoveries = 0.0, replayed = 0.0, rolled_back = 0.0;
  double recover_s = 0.0, donate_wait_s = 0.0, log_bytes = 0.0, log_raw = 0.0;

  void add(const quake::par::ParallelResult& r, double solve_seconds);
};

// max/mean of the per-rank element_updates of one solve (1 when balanced).
double work_imbalance(const quake::par::ParallelResult& r);

// The per-layer metrics every workload reports. Layers a workload does not
// exercise report 0 (counts, fractions) — never a fabricated time.
struct LayerBlock {
  // set-up (shares of one traced set-up's wall)
  double elements = 0.0, mesh_frac = 0.0, page_reads = 0.0, page_writes = 0.0,
         pool_hit_rate = 0.0, partition_frac = 0.0, par_setup_frac = 0.0,
         elem_imbalance = 1.0, cluster_frac = 0.0, wave3d_setup_frac = 0.0;
  // lts
  double n_classes = 1.0, updates_saved = 1.0, work_imbalance = 1.0,
         seis_drift = 0.0;
  // par step loop and fault tolerance
  ParTotals par;
  double requests = 0.0, killed = 0.0;
  // svc (shares of summed request latency / worker time)
  double queue_frac = 0.0, svc_setup_frac = 0.0, solve_frac = 0.0,
         extract_frac = 0.0, overhead_frac = 0.0;
  // inversion (per inversion; shares of inversion wall)
  double newton = 0.0, cg = 0.0, hessvec_calls = 0.0, hessvec_frac = 0.0,
         forward_frac = 0.0, adjoint_frac = 0.0, linesearch_frac = 0.0,
         model_err = 0.0;
  // kernel probes: the pool size and the workload's operator apply
  std::size_t kernel_pool = 0;
  double op_apply_ms = 0.0;
  // traced-window vs untraced-window operation rates
  double rate_untraced = 0.0, rate_traced = 0.0;
};

// Pins the calling thread to one CPU of the process's affinity mask, the
// `slot`-th modulo their number, until destroyed. On a shared host one CPU
// can run slow for minutes while the others do not, and the scheduler keeps
// a single thread on the CPU it started on, so a run of single-threaded
// samples would measure whichever CPU it landed on. Rotating the samples
// over every CPU makes each run's median cover all of them. Threads started
// while pinned inherit the pin: nothing started inside the scope may
// outlive it.
class CpuSlot {
 public:
  explicit CpuSlot(std::size_t slot);
  ~CpuSlot();
  CpuSlot(const CpuSlot&) = delete;
  CpuSlot& operator=(const CpuSlot&) = delete;

 private:
  std::vector<int> saved_;  // the CPUs the thread was allowed before
};

// Whether an untraced run times another cold set-up: until at least 4 are
// done (one per CPU on 4 CPUs) and 2 s is spent, so setup_s is a median
// over many samples even where one set-up takes milliseconds.
bool need_setup(const std::vector<double>& done);

// Times cold set-ups as need_setup says and returns one to run on.
// `build(root)` builds one and returns it by unique_ptr. Untraced runs time
// each set-up pinned to the next CPU (CpuSlot) and destroy it there, then
// build the returned one untimed and unpinned, so the threads it starts may
// run anywhere. Traced and smoke runs time one set-up under a "setup" root
// span and return it.
template <class Build>
auto timed_setups(const Options& opt, Tracer& tracer,
                  std::vector<double>& seconds, Build&& build) {
  if (opt.traced || opt.smoke) {
    const Tracer::Scope root(tracer, "setup", "bench", -1);
    const Clock::time_point t0 = Clock::now();
    auto s = build(root.id());
    seconds.push_back(seconds_since(t0));
    return s;
  }
  while (need_setup(seconds)) {
    const CpuSlot pin(seconds.size());
    const Clock::time_point t0 = Clock::now();
    const auto s = build(-1);
    seconds.push_back(seconds_since(t0));
  }
  return build(-1);
}

// The measured window. Untraced runs measure all of it. Traced runs measure
// an untraced half, call `before_traced` (so layer totals cover the traced
// half only), then measure a traced half — obs and the tracer on, under a
// "measure" root — and record both halves' rates in `b` for
// trace.overhead_frac. `run(seconds, root)` measures one window; operations
// of the untraced half are counted into `rep` here.
Window measure(const Options& opt, Tracer& tracer, Report& rep, LayerBlock& b,
               const std::function<Window(double, int)>& run,
               const std::function<void()>& before_traced = {});

// Appends the end-to-end metrics (untraced runs) and counts the window.
void add_end_to_end(Report& rep, const std::vector<double>& setup_seconds,
                    const Window& w);
// Adds a window's operations to the report's attempted/failed counts.
void count_ops(Report& rep, const Window& w);

// The set-up part of the block for a mesh workload: shares of the traced
// set-up's wall, the etree page counters, the partition imbalance.
// `construct` names the span that built the ParallelSetup(s).
void add_mesh_setup(LayerBlock& b, const Tracer& tracer,
                    const quake::obs::Registry& etree,
                    const quake::mesh::HexMesh& mesh,
                    const quake::par::Partition& part, const char* construct);

// Median wall of one ElasticOperator::apply_stiffness (Stacey faces
// included) on `mesh`, in milliseconds.
double elastic_apply_ms(const quake::mesh::HexMesh& mesh);

// Appends the per-layer block, running the host and kernel probes, and
// writes the Chrome trace when asked.
void add_layers(Report& rep, const LayerBlock& b, const Tracer& tracer,
                const Options& opt);

// Runs `fn` `reps` times and returns the median wall in milliseconds.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(1e3 * seconds_since(t0));
  }
  return median(std::move(t));
}

// Workloads. Each throws on a set-up error; check failures go in the report.
void run_serve(const Options& opt, Report& rep);  // serve_short|batched|recover
void run_forward_lts(const Options& opt, Report& rep);
void run_invert_3d(const Options& opt, Report& rep);

}  // namespace bench_e2e
