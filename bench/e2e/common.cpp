#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench_e2e.hpp"
#include "probes.hpp"
#include "quake/fem/hex_element.hpp"
#include "quake/obs/obs.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/vel/model.hpp"

namespace bench_e2e {

using namespace quake;

bool Report::correct() const {
  if (checks.empty()) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

TempDir::TempDir(const std::string& base) {
  std::filesystem::create_directories(base);
  std::string tmpl = base + "/bench_e2e.XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + base + ": " +
                             std::strerror(errno));
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;  // best effort: a destructor must not throw
  std::filesystem::remove_all(path_, ec);
}

mesh::MeshOptions mesh_options(const MeshSpec& spec) {
  mesh::MeshOptions m;
  m.domain_size = kExtent;
  m.f_max = spec.f_max;
  m.n_lambda = 8.0;
  m.min_level = 2;
  m.max_level = spec.max_level;
  return m;
}

mesh::HexMesh build_mesh(const MeshSpec& spec, const std::string& dir,
                         Tracer& tracer, int parent, obs::Registry* etree) {
  const vel::BasinModel model = vel::BasinModel::demo(kExtent);
  const std::string store = dir + "/mesh.etree";
  const Tracer::Scope span(tracer, "mesh.build", "mesh", parent);
  std::optional<obs::ScopedRegistry> install;
  if (etree != nullptr) install.emplace(*etree);
  mesh::HexMesh m =
      mesh::generate_mesh_out_of_core(model, mesh_options(spec), store);
  std::filesystem::remove(store);
  std::filesystem::remove(store + ".balanced");
  return m;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double x = p * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(std::floor(x));
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (x - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest(const par::ParallelResult& r) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  mix(r.u_final.data(), r.u_final.size() * sizeof(double));
  for (const auto& hist : r.receiver_histories) {
    mix(hist.data(), hist.size() * sizeof(hist[0]));
  }
  return h;
}

namespace {

double scope_max(const obs::MergedReport& m, const char* key) {
  const auto it = m.scopes.find(key);
  return it == m.scopes.end() ? 0.0 : it->second.seconds.max;
}
double counter_sum(const obs::MergedReport& m, const char* key) {
  const auto it = m.counters.find(key);
  return it == m.counters.end() ? 0.0 : it->second.sum;
}
double gauge(const obs::MergedReport& m, const char* key, bool sum) {
  const auto it = m.gauges.find(key);
  if (it == m.gauges.end()) return 0.0;
  return sum ? it->second.sum : it->second.mean;
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ParTotals::add(const par::ParallelResult& r, double solve_seconds) {
  const obs::MergedReport& m = r.obs_summary;
  if (m.n_ranks == 0) return;  // obs off, or a batch member without the report
  solves += 1.0;
  steps += r.n_steps;
  solve_s += solve_seconds;
  step_s += scope_max(m, "step");
  compute_s += scope_max(m, "step/compute");
  exchange_s += scope_max(m, "step/exchange");
  wait_s += scope_max(m, "step/exchange/drain/wait");
  overlap += gauge(m, "par/overlap_fraction", false);
  bytes += counter_sum(m, "comm/bytes_sent");
  msgs += counter_sum(m, "comm/msgs_sent");
  updates += counter_sum(m, "par/element_updates");
  ckpt_writes += counter_sum(m, "ckpt/writes");
  ckpt_bytes += counter_sum(m, "ckpt/bytes_written");
  ckpt_s += scope_max(m, "step/checkpoint");
  recoveries += counter_sum(m, "par/recoveries");
  replayed += counter_sum(m, "par/steps_replayed");
  rolled_back += counter_sum(m, "par/steps_rolled_back");
  recover_s += scope_max(m, "recover");
  donate_wait_s += scope_max(m, "recover/donate/wait");
  log_bytes += gauge(m, "par/log_bytes", true);
  log_raw += gauge(m, "par/log_raw_bytes", true);
}

double work_imbalance(const par::ParallelResult& r) {
  double sum = 0.0, mx = 0.0;
  for (const auto& s : r.rank_stats) {
    sum += static_cast<double>(s.element_updates);
    mx = std::max(mx, static_cast<double>(s.element_updates));
  }
  return sum > 0.0 ? mx * static_cast<double>(r.rank_stats.size()) / sum : 1.0;
}

CpuSlot::CpuSlot(std::size_t slot) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) saved_.push_back(c);
  }
  if (saved_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(saved_[slot % saved_.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) saved_.clear();
}

CpuSlot::~CpuSlot() {
  if (saved_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : saved_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

bool need_setup(const std::vector<double>& done) {
  double spent = 0.0;
  for (const double s : done) spent += s;
  return done.size() < 4 || spent < 2.0;
}

Window measure(const Options& opt, Tracer& tracer, Report& rep, LayerBlock& b,
               const std::function<Window(double, int)>& run,
               const std::function<void()>& before_traced) {
  obs::set_enabled(false);
  tracer.set_enabled(false);
  if (!opt.traced) return run(opt.seconds, -1);
  const Window plain = run(opt.seconds / 2, -1);
  b.rate_untraced = plain.rate();
  count_ops(rep, plain);
  if (before_traced) before_traced();
  obs::set_enabled(true);
  tracer.set_enabled(true);
  Window w;
  {
    const Tracer::Scope root(tracer, "measure", "bench", -1);
    w = run(opt.seconds / 2, root.id());
  }
  obs::set_enabled(false);
  b.rate_traced = w.rate();
  return w;
}

void add_end_to_end(Report& rep, const std::vector<double>& setup_seconds,
                    const Window& w) {
  const double ops = static_cast<double>(w.latencies.size());
  rep.add("setup_s", median(setup_seconds), "s");
  rep.add("ops_per_s", w.rate(), "1/s");
  rep.add("latency_p50_ms", 1e3 * percentile(w.latencies, 0.5), "ms");
  rep.add("latency_p90_ms", 1e3 * percentile(w.latencies, 0.9), "ms");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.note("window_seconds", w.seconds);
  rep.note("latency_samples", ops);
  rep.note("setups", static_cast<double>(setup_seconds.size()));
  count_ops(rep, w);
}

void count_ops(Report& rep, const Window& w) {
  rep.attempted += static_cast<long>(w.latencies.size()) + w.failed;
  rep.failed += w.failed;
}

void add_mesh_setup(LayerBlock& b, const Tracer& tracer,
                    const obs::Registry& etree, const mesh::HexMesh& mesh,
                    const par::Partition& part, const char* construct) {
  const double wall = tracer.total_seconds("setup");
  const auto count = [&](const char* key) {
    const auto it = etree.counters.find(key);
    return it == etree.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto hit = etree.gauges.find("etree/pool_hit_rate");
  b.elements = static_cast<double>(mesh.n_elements());
  b.mesh_frac = tracer.total_seconds("mesh.build") / wall;
  b.page_reads = count("etree/page_reads");
  b.page_writes = count("etree/page_writes");
  b.pool_hit_rate = hit == etree.gauges.end() ? 0.0 : hit->second;
  b.partition_frac = tracer.total_seconds("par.partition") / wall;
  b.par_setup_frac = tracer.total_seconds(construct) / wall;
  b.elem_imbalance = part.imbalance();
  b.kernel_pool = mesh.n_elements();
}

double elastic_apply_ms(const mesh::HexMesh& mesh) {
  const solver::ElasticOperator op(mesh, solver::OperatorOptions{});
  const std::vector<double> u(op.n_dofs(), 1e-3);
  std::vector<double> y(op.n_dofs(), 0.0);
  return median_ms(5, [&] { op.apply_stiffness(u, y, {}); });
}

void add_layers(Report& rep, const LayerBlock& b, const Tracer& tracer,
                const Options& opt) {
  const HostProbe h = probe_host(opt.smoke);
  rep.note("host.llc_bytes", static_cast<double>(h.llc_bytes));
  rep.note("host.triad_bytes", static_cast<double>(h.triad_bytes));
  const double min_s = opt.smoke ? 0.005 : 0.05;
  const double apply = hex_apply_gflops(b.kernel_pool, min_s);
  const double batch = hex_apply_batch_gflops(b.kernel_pool, 8, min_s);
  const double scalar = hex_scalar_gflops(b.kernel_pool, min_s);
  const double fpb = static_cast<double>(fem::hex_apply_flops(false)) /
                     static_cast<double>(kHexApplyBytes);
  const double bound = std::min(h.fma_gflops, h.triad_gbs * fpb);
  rep.note("fem.kernel_pool_elements", static_cast<double>(b.kernel_pool));

  rep.add("host.triad_gbs", h.triad_gbs, "GB/s");
  rep.add("host.fma_gflops", h.fma_gflops, "Gflop/s");
  rep.add("fem.hex_apply_gflops", apply, "Gflop/s");
  rep.add("fem.hex_apply_batch_gflops", batch, "Gflop/s");
  rep.add("fem.hex_scalar_gflops", scalar, "Gflop/s");
  rep.add("fem.flops_per_byte", fpb, "flop/B");
  rep.add("fem.hex_apply_roofline", ratio(apply, bound), "frac");
  rep.add("op.apply_ms", b.op_apply_ms, "ms");

  rep.add("mesh.elements", b.elements, "count");
  rep.add("mesh.build_frac", b.mesh_frac, "frac");
  rep.add("etree.page_reads", b.page_reads, "count");
  rep.add("etree.page_writes", b.page_writes, "count");
  rep.add("etree.pool_hit_rate", b.pool_hit_rate, "frac");
  rep.add("par.partition_frac", b.partition_frac, "frac");
  rep.add("par.setup_frac", b.par_setup_frac, "frac");
  rep.add("par.elem_imbalance", b.elem_imbalance, "ratio");
  rep.add("lts.cluster_frac", b.cluster_frac, "frac");
  rep.add("wave3d.setup_frac", b.wave3d_setup_frac, "frac");

  rep.add("lts.n_classes", b.n_classes, "count");
  rep.add("lts.updates_saved_ratio", b.updates_saved, "ratio");
  rep.add("lts.work_imbalance", b.work_imbalance, "ratio");
  rep.add("lts.seis_drift", b.seis_drift, "ratio");

  const ParTotals& p = b.par;
  rep.add("step.compute_frac", ratio(p.compute_s, p.solve_s), "frac");
  rep.add("step.exchange_frac", ratio(p.exchange_s, p.solve_s), "frac");
  rep.add("step.drain_wait_frac", ratio(p.wait_s, p.solve_s), "frac");
  rep.add("par.overlap_fraction", ratio(p.overlap, p.solves), "frac");
  rep.add("par.run_overhead_frac",
          p.solve_s > 0.0 ? 1.0 - p.step_s / p.solve_s : 0.0, "frac");
  rep.add("comm.bytes_per_step", ratio(p.bytes, p.steps), "B");
  rep.add("comm.msgs_per_step", ratio(p.msgs, p.steps), "count");
  rep.add("par.element_updates_per_step", ratio(p.updates, p.steps), "count");

  rep.add("svc.queue_frac", b.queue_frac, "frac");
  rep.add("svc.setup_frac", b.svc_setup_frac, "frac");
  rep.add("svc.solve_frac", b.solve_frac, "frac");
  rep.add("svc.extract_frac", b.extract_frac, "frac");
  rep.add("svc.overhead_frac", b.overhead_frac, "frac");
  // Requests per solve launched (only the first member of a batch carries
  // the solve's obs report, so traced solves count batches once).
  rep.add("svc.batch_width_mean", ratio(b.requests, p.solves), "count");

  rep.add("ckpt.writes_per_req", ratio(p.ckpt_writes, b.requests), "count");
  rep.add("ckpt.bytes_per_req", ratio(p.ckpt_bytes, b.requests), "B");
  rep.add("ckpt.write_frac", ratio(p.ckpt_s, p.solve_s), "frac");
  rep.add("ft.recoveries_per_kill", ratio(p.recoveries, b.killed), "count");
  rep.add("ft.steps_replayed_per_kill", ratio(p.replayed, b.killed), "count");
  rep.add("ft.steps_rolled_back", p.rolled_back, "count");
  rep.add("ft.recover_frac", ratio(p.recover_s, p.solve_s), "frac");
  rep.add("ft.donate_wait_frac", ratio(p.donate_wait_s, p.solve_s), "frac");
  rep.add("ft.log_compression", ratio(p.log_raw, p.log_bytes), "ratio");

  rep.add("gn.newton_iters", b.newton, "count");
  rep.add("gn.cg_iters", b.cg, "count");
  rep.add("gn.hessvec_calls", b.hessvec_calls, "count");
  rep.add("gn.hessvec_frac", b.hessvec_frac, "frac");
  rep.add("gn.forward_frac", b.forward_frac, "frac");
  rep.add("gn.adjoint_frac", b.adjoint_frac, "frac");
  rep.add("gn.linesearch_frac", b.linesearch_frac, "frac");
  rep.add("gn.model_err", b.model_err, "ratio");

  rep.attribution = tracer.attribute();
  const Attribution& a = rep.attribution;
  rep.add("trace.unattributed_frac",
          ratio(a.unattributed_seconds, a.root_seconds), "frac");
  rep.add("trace.overhead_frac",
          b.rate_traced > 0.0 ? b.rate_untraced / b.rate_traced - 1.0 : 0.0,
          "frac");
  if (!opt.trace_path.empty()) tracer.write_chrome(opt.trace_path);
}

}  // namespace bench_e2e
