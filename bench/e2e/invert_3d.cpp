// invert_3d: repeated Gauss-Newton-CG material inversions of the scalar 3D
// wave equation (the Table 3.1 setting). It uses none of par, svc, lts or
// the elastic kernel, so changes to those layers should leave it unchanged.

#include <cmath>
#include <memory>

#include "bench_e2e.hpp"
#include "quake/obs/obs.hpp"
#include "quake/util/rng.hpp"
#include "quake/util/stats.hpp"
#include "quake/wave3d/inversion3d.hpp"

namespace bench_e2e {

using namespace quake;

namespace {

// Sized so one inversion takes about 0.17 s (a 20 s window then holds ~115,
// enough for a p90 with ten samples beyond it) and still recovers the
// anomaly: with 6^3 material cells or 170 steps on a 12^3 grid the final
// model error exceeds the starting model's.
struct InvConfig {
  int n = 10;          // wave grid: n^3 elements
  int g = 3;           // material grid: g^3 cells, (g+1)^3 parameters
  int nt = 60;         // time steps per forward/adjoint solve
  int max_newton = 3;  // fixed Newton budget (grad_tol below never stops it)
};

InvConfig inv_config(bool smoke) {
  if (smoke) return {6, 2, 40, 2};
  return {10, 3, 60, 3};
}

constexpr double kRho = 2200.0;
constexpr double kMuBackground = 1.6e9;

struct InvSetup {
  std::vector<double> mu_target;
  std::unique_ptr<wave3d::ScalarInversion3d> prob;
};

// Sources and surface receivers as in bench_table3_1; the seed places the
// low-velocity target anomaly.
std::unique_ptr<InvSetup> build_setup(const InvConfig& c, std::uint64_t seed,
                                      Tracer& tracer, int root) {
  using namespace quake::wave3d;
  const Tracer::Scope span(tracer, "wave3d.observe", "inverse", root);
  auto s = std::make_unique<InvSetup>();
  const int n = c.n;
  Setup3d st;
  st.grid = ScalarGrid3d{n, n, n, 100.0};
  st.rho = kRho;
  st.sources.push_back({st.grid.node(n / 2, n / 2, 2 * n / 3), 1e10, 1.3, 1.0});
  st.sources.push_back({st.grid.node(n / 4, n / 2, n / 2), 6e9, 1.5, 1.2});
  st.sources.push_back({st.grid.node(3 * n / 4, n / 4, n / 3), 8e9, 1.2, 1.4});
  for (int j = 1; j < n; ++j) {
    for (int i = 1; i < n; ++i) st.receiver_nodes.push_back(st.grid.node(i, j, 0));
  }
  util::Rng rng(seed);
  const double cx = rng.uniform(0.4, 0.6), cy = rng.uniform(0.4, 0.6),
               cz = rng.uniform(0.2, 0.35);
  s->mu_target.resize(static_cast<std::size_t>(st.grid.n_elems()));
  for (int e = 0; e < st.grid.n_elems(); ++e) {
    const int i = e % n, j = (e / n) % n, k = e / (n * n);
    const double dx = (i + 0.5) / n - cx;
    const double dy = (j + 0.5) / n - cy;
    const double dz = (k + 0.5) / n - cz;
    s->mu_target[static_cast<std::size_t>(e)] =
        kMuBackground * (1.0 - 0.2 * std::exp(-8.0 * (dx * dx + dy * dy + dz * dz)));
  }
  const ScalarModel3d truth(st.grid, std::vector<double>(s->mu_target), kRho);
  st.dt = truth.stable_dt(0.4);
  st.nt = c.nt;
  st.observations =
      ScalarInversion3d(st).forward(truth, false).march.records;
  s->prob = std::make_unique<ScalarInversion3d>(std::move(st));
  return s;
}

wave3d::Inversion3dOptions inversion_options(const InvConfig& c) {
  wave3d::Inversion3dOptions o;
  o.gx = o.gy = o.gz = c.g;
  o.max_newton = c.max_newton;
  // Exactly 3 CG iterations per Newton step (zero tolerance): a relative
  // tolerance lets the inner work, and with it the wall time, vary by
  // +-15% with the seeded target; fixed inner work keeps a run's cost a
  // property of the code, not of the seed.
  o.cg = {3, 0.0};
  o.mu_min = 1e8;
  o.initial_mu = kMuBackground;
  o.beta_h1_rel = 0.03;
  o.grad_tol = 1e-12;
  return o;
}

double scope(const obs::Registry& r, const char* key, bool calls = false) {
  const auto it = r.scopes.find(key);
  if (it == r.scopes.end()) return 0.0;
  return calls ? static_cast<double>(it->second.calls) : it->second.seconds;
}

}  // namespace

void run_invert_3d(const Options& opt, Report& rep) {
  const InvConfig c = inv_config(opt.smoke);
  Tracer tracer(opt.traced);
  obs::set_enabled(false);
  std::vector<double> setup_seconds;
  const std::unique_ptr<InvSetup> s = timed_setups(
      opt, tracer, setup_seconds,
      [&](int root) { return build_setup(c, opt.seed, tracer, root); });
  const wave3d::Inversion3dOptions io = inversion_options(c);
  const double initial_err = util::rel_l2(
      std::vector<double>(s->mu_target.size(), kMuBackground), s->mu_target);
  rep.note("wave3d.elements", static_cast<double>(s->mu_target.size()));
  rep.note("wave3d.params", std::pow(c.g + 1, 3));
  rep.note("gn.initial_model_err", initial_err);

  // Every inversion in a run solves the same seeded problem, each on the
  // next CPU in turn (the inversion is single-threaded; see CpuSlot).
  double max_err = 0.0;
  obs::Registry reg;
  LayerBlock b;
  Window w = measure(
      opt, tracer, rep, b,
      [&](double seconds, int root) {
        Window win;
        const Clock::time_point t0 = Clock::now();
        do {
          const CpuSlot pin(win.latencies.size());
          const Tracer::Scope span(tracer, "inverse.invert", "inverse", root);
          const Clock::time_point op0 = Clock::now();
          const obs::ScopedRegistry install(reg);
          const wave3d::Inversion3dReport r =
              wave3d::invert_material3d(*s->prob, io, s->mu_target);
          win.latencies.push_back(seconds_since(op0));
          max_err = std::max(max_err, r.model_error);
        } while (seconds_since(t0) < seconds);
        win.seconds = seconds_since(t0);
        return win;
      },
      [&] { reg.clear(); });

  rep.note("gn.model_err", max_err);
  rep.check("model_err_below_initial", max_err > 0.0 && max_err < initial_err);

  if (!opt.traced) {
    add_end_to_end(rep, setup_seconds, w);
    return;
  }
  count_ops(rep, w);

  const double inversions = static_cast<double>(w.latencies.size());
  const double wall = tracer.total_seconds("inverse.invert");
  b.elements = static_cast<double>(s->mu_target.size());
  b.wave3d_setup_frac =
      tracer.total_seconds("wave3d.observe") / tracer.total_seconds("setup");
  b.newton = static_cast<double>(reg.counters["gn/newton_total"]) / inversions;
  b.cg = static_cast<double>(reg.counters["gn/cg_total"]) / inversions;
  b.hessvec_calls = scope(reg, "gn/newton/cg/hessvec", true) / inversions;
  b.hessvec_frac = scope(reg, "gn/newton/cg/hessvec") / wall;
  b.forward_frac = scope(reg, "gn/newton/forward") / wall;
  b.adjoint_frac = scope(reg, "gn/newton/adjoint") / wall;
  b.linesearch_frac = scope(reg, "gn/newton/linesearch") / wall;
  b.model_err = max_err;

  const wave3d::ScalarModel3d model(
      s->prob->setup().grid, std::vector<double>(s->mu_target), kRho);
  const std::vector<double> u(
      static_cast<std::size_t>(s->prob->setup().grid.n_nodes()), 1e-3);
  std::vector<double> y(u.size(), 0.0);
  b.op_apply_ms = median_ms(5, [&] { model.apply_k(u, y); });
  b.kernel_pool = s->mu_target.size();
  add_layers(rep, b, tracer, opt);
}

}  // namespace bench_e2e
