// forward_lts: repeated clustered-LTS solves (ParallelSetup::run_lts) of a
// seeded fault rupture on the largest basin mesh — kernel, exchange and
// rate-class imbalance dominate, and its set-up is the heaviest.

#include <cmath>
#include <memory>

#include "bench_e2e.hpp"
#include "quake/lts/clustering.hpp"
#include "quake/obs/obs.hpp"
#include "quake/par/partition.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"

namespace bench_e2e {

using namespace quake;

namespace {

constexpr int kRanks = 4;
constexpr int kSteps = 64;  // a multiple of the widest rate window, so the
                            // measured saving equals the prediction exactly
constexpr int kMaxRate = 32;

// docs/LTS.md tolerance tier for multi-rate runs against global dt.
constexpr double kMaxFieldDrift = 0.15;
constexpr double kMaxSeisDrift = 0.3;

// Stations within a kilometre of the hypocenter: a 64-step solve covers
// well under a second, too short for the wavefield to reach distant ones.
std::vector<std::array<double, 3>> stations(const solver::FaultSource::Spec& fs) {
  const auto [hx, hz] = fs.hypocenter;
  return {{hx, fs.y + 300.0, hz},
          {hx + 600.0, fs.y - 400.0, hz - 300.0},
          {hx - 500.0, fs.y + 700.0, hz + 400.0}};
}

// The seeded input of solve `index`: the rupture's hypocenter on a fixed
// strike-slip fault plane.
solver::FaultSource::Spec fault_spec(std::uint64_t seed, std::uint64_t index) {
  util::Rng rng((seed << 32) ^ index);
  solver::FaultSource::Spec fs;
  fs.y = 0.55 * kExtent;
  fs.x0 = 0.3 * kExtent;
  fs.x1 = 0.6 * kExtent;
  fs.z_top = 1000.0;
  fs.z_bot = 5000.0;
  fs.hypocenter = {rng.uniform(fs.x0, fs.x1), rng.uniform(fs.z_top, fs.z_bot)};
  fs.rise_time = 2.0;
  fs.slip = 1.0;
  // Coarser than the auto spacing (~2 patches per element): each patch's
  // nodes are found by a brute-force nearest-node search, which at auto
  // spacing on this mesh costs seconds per solve and would bury the solve.
  fs.patch_spacing = 500.0;
  return fs;
}

struct LtsSetup {
  mesh::HexMesh mesh;
  par::Partition part;
  std::unique_ptr<par::ParallelSetup> setup;  // references the above
  lts::Clustering clustering;
};

std::unique_ptr<LtsSetup> build_setup(const MeshSpec& spec,
                                      const std::string& dir, Tracer& tracer,
                                      int root, obs::Registry* etree) {
  auto s = std::make_unique<LtsSetup>();
  s->mesh = build_mesh(spec, dir, tracer, root, etree);
  {
    const Tracer::Scope span(tracer, "par.partition", "par", root);
    s->part = par::partition_sfc(s->mesh, kRanks);
  }
  solver::SolverOptions so;
  so.cfl_fraction = 0.4;
  {
    const Tracer::Scope span(tracer, "par.setup", "par", root);
    s->setup = std::make_unique<par::ParallelSetup>(
        s->mesh, s->part, solver::OperatorOptions{}, so);
  }
  {
    const Tracer::Scope span(tracer, "lts.cluster", "lts", root);
    s->clustering = lts::cluster_elements(s->mesh, s->setup->dt(),
                                          so.cfl_fraction, kMaxRate);
  }
  return s;
}

std::vector<double> flatten(const par::ParallelResult& r) {
  std::vector<double> v;
  for (const auto& h : r.receiver_histories) {
    for (const auto& a : h) v.insert(v.end(), a.begin(), a.end());
  }
  return v;
}

double measured_saving(const par::ParallelResult& r, std::size_t n_elems) {
  double updates = 0.0;
  for (const auto& s : r.rank_stats) updates += static_cast<double>(s.element_updates);
  return static_cast<double>(r.n_steps) * static_cast<double>(n_elems) / updates;
}

}  // namespace

void run_forward_lts(const Options& opt, Report& rep) {
  const MeshSpec spec = opt.smoke ? MeshSpec{0.12, 6} : MeshSpec{0.35, 8};
  const TempDir tmp(opt.tmp_base);
  Tracer tracer(opt.traced);
  obs::set_enabled(opt.traced);
  obs::Registry etree;
  std::vector<double> setup_seconds;
  const std::unique_ptr<LtsSetup> s =
      timed_setups(opt, tracer, setup_seconds, [&](int root) {
        return build_setup(spec, tmp.path(), tracer, root,
                           opt.traced ? &etree : nullptr);
      });
  const double t_end = (kSteps - 0.5) * s->setup->dt();
  const double predicted = s->clustering.predicted_updates_saved();
  lts::LtsOptions lo;
  lo.enabled = true;
  lo.max_rate = kMaxRate;
  rep.note("mesh.elements", static_cast<double>(s->mesh.n_elements()));
  rep.note("lts.predicted_updates_saved", predicted);
  rep.note("steps_per_solve", kSteps);

  int bad_saving = 0;  // solves whose measured saving missed the prediction
  double imbalance = 0.0;
  ParTotals par;
  std::uint64_t index = 0;
  // One solve: materialize the seeded rupture, then run_lts.
  const auto solve = [&](int root) {
    const solver::FaultSource::Spec fs = fault_spec(opt.seed, index++);
    std::unique_ptr<solver::FaultSource> src;
    {
      const Tracer::Scope span(tracer, "solver.source", "solver", root);
      src = std::make_unique<solver::FaultSource>(s->mesh, fs);
    }
    const solver::SourceModel* srcs[] = {src.get()};
    const Tracer::Scope span(tracer, "par.run_lts", "par", root);
    par::ParallelResult r = s->setup->run_lts(t_end, srcs, stations(fs), lo);
    if (std::abs(measured_saving(r, s->mesh.n_elements()) - predicted) >
        1e-9 * predicted) {
      ++bad_saving;
    }
    return r;
  };

  // Warm-up solve (builds the LTS plan, not timed) doubles as the accuracy
  // check against a global-dt run of the same rupture.
  obs::set_enabled(false);
  tracer.set_enabled(false);
  double u_drift = 0.0, seis_drift = 0.0;
  {
    const par::ParallelResult lts_run = solve(-1);
    const solver::FaultSource::Spec fs = fault_spec(opt.seed, 0);
    const solver::FaultSource src(s->mesh, fs);
    const solver::SourceModel* srcs[] = {&src};
    const par::ParallelResult global = s->setup->run(t_end, srcs, stations(fs));
    u_drift = util::rel_l2(lts_run.u_final, global.u_final);
    seis_drift = util::rel_l2(flatten(lts_run), flatten(global));
  }

  LayerBlock b;
  Window w = measure(
      opt, tracer, rep, b,
      [&](double seconds, int root) {
        Window win;
        const Clock::time_point t0 = Clock::now();
        do {
          const Clock::time_point op0 = Clock::now();
          const par::ParallelResult r = solve(root);
          win.latencies.push_back(seconds_since(op0));
          par.add(r, win.latencies.back());
          imbalance += work_imbalance(r);
        } while (seconds_since(t0) < seconds);
        win.seconds = seconds_since(t0);
        return win;
      },
      [&] {
        par = ParTotals{};
        imbalance = 0.0;
      });

  rep.note("lts.u_final_drift", u_drift);
  rep.note("lts.seis_drift", seis_drift);
  rep.check("updates_saved_equals_prediction", bad_saving == 0);
  rep.check("u_final_drift_within_tolerance", u_drift < kMaxFieldDrift);
  rep.check("seismogram_drift_within_tolerance",
            seis_drift > 0.0 && seis_drift < kMaxSeisDrift);
  w.failed += bad_saving;

  if (!opt.traced) {
    add_end_to_end(rep, setup_seconds, w);
    return;
  }
  count_ops(rep, w);

  add_mesh_setup(b, tracer, etree, s->mesh, s->part, "par.setup");
  b.cluster_frac = tracer.total_seconds("lts.cluster") / tracer.total_seconds("setup");
  b.n_classes = s->clustering.n_classes;
  b.updates_saved =
      par.updates > 0.0
          ? par.steps * static_cast<double>(s->mesh.n_elements()) / par.updates
          : 0.0;
  b.work_imbalance = imbalance / static_cast<double>(w.latencies.size());
  b.seis_drift = seis_drift;
  b.par = par;
  b.op_apply_ms = elastic_apply_ms(s->mesh);
  add_layers(rep, b, tracer, opt);
}

}  // namespace bench_e2e
