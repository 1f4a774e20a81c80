// The three serving workloads: closed-loop clients driving one
// SimulationService. serve_short is dominated by fixed per-request cost,
// serve_batched by run_batch and the batch kernel, serve_recover by the
// checkpoint and in-place recovery path (see README.md for why each exists).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_e2e.hpp"
#include "quake/obs/obs.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/partition.hpp"
#include "quake/svc/simulation_service.hpp"
#include "quake/util/rng.hpp"

namespace bench_e2e {

using namespace quake;

namespace {

struct ServeConfig {
  MeshSpec mesh;
  int lanes = 1;
  int ranks = 2;
  int max_batch = 1;
  int clients = 1;  // closed loop: each client keeps one request outstanding
  int steps = 6;    // explicit steps per request
  bool recover = false;  // checkpoints, revivals armed, every 4th killed
};

ServeConfig serve_config(const std::string& name, bool smoke) {
  ServeConfig c;
  if (name == "serve_short") {
    c = {{0.12, 6}, 2, 2, 1, 4, 6, false};
  } else if (name == "serve_batched") {
    c = {{0.2, 7}, 1, 4, 8, 16, 8, false};
  } else {
    c = {{0.12, 6}, 1, 4, 1, 2, 24, true};
  }
  if (smoke) c.mesh = {0.05, 4};
  return c;
}

constexpr int kCheckpointEvery = 4;
constexpr int kSamples = 8;  // results re-run directly and compared bitwise

const std::vector<std::array<double, 3>>& stations() {
  static const std::vector<std::array<double, 3>> s = {
      {0.5 * kExtent, 0.5 * kExtent, 0.0}, {0.3 * kExtent, 0.6 * kExtent, 0.0}};
  return s;
}

// The seeded inputs of request `index`: a point source somewhere under the
// basin and, on serve_recover, a kill of a random rank at a random step for
// every 4th request.
struct RequestInputs {
  svc::PointSourceSpec src;
  bool killed = false;
  par::FaultPlan plan;
};

RequestInputs request_inputs(std::uint64_t seed, std::uint64_t index,
                             const ServeConfig& c) {
  util::Rng rng((seed << 32) ^ index);
  RequestInputs in;
  in.src.position = {rng.uniform(0.2, 0.8) * kExtent,
                     rng.uniform(0.2, 0.8) * kExtent, rng.uniform(1000.0, 4000.0)};
  in.src.direction = {0.0, 0.0, 1.0};
  in.src.amplitude = 1.0e6;
  in.src.fp = 2.0;
  in.src.tc = 0.2;
  if (c.recover && index % 4 == 3) {
    in.killed = true;
    in.plan.seed = seed;
    const int rank = static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(c.ranks));
    const int step = 5 + static_cast<int>(rng.next_u64() % 16);  // 5..20
    in.plan.kills.push_back({rank, step});
  }
  return in;
}

solver::SolverOptions solver_options() {
  solver::SolverOptions so;
  so.cfl_fraction = 0.4;
  return so;
}

struct ServeSetup {
  mesh::HexMesh mesh;
  par::Partition part;
  std::unique_ptr<svc::SimulationService> service;  // references the above
};

std::unique_ptr<ServeSetup> build_setup(const ServeConfig& c,
                                        const std::string& dir, Tracer& tracer,
                                        int root, obs::Registry* etree) {
  auto s = std::make_unique<ServeSetup>();
  s->mesh = build_mesh(c.mesh, dir, tracer, root, etree);
  {
    const Tracer::Scope span(tracer, "par.partition", "par", root);
    s->part = par::partition_sfc(s->mesh, c.ranks);
  }
  {
    // Mostly ParallelSetup construction, once per lane.
    const Tracer::Scope span(tracer, "svc.construct", "par", root);
    svc::ServiceOptions o;
    o.queue_bound = static_cast<std::size_t>(c.clients) + 8;
    o.lanes = c.lanes;
    o.max_batch = c.max_batch;
    o.start_paused = true;  // warm-up batches form deterministically
    s->service = std::make_unique<svc::SimulationService>(
        s->mesh, s->part, solver::OperatorOptions{}, solver_options(), o);
  }
  return s;
}

svc::ScenarioRequest make_request(const RequestInputs& in, double t_end) {
  svc::ScenarioRequest req;
  req.point_sources = {in.src};
  req.receivers = stations();
  req.t_end = t_end;
  return req;
}

// One request per lane (a full batch when batching) before timing, so lazy
// per-lane state is in place; then the service is released.
void warm_up(ServeSetup& s, const ServeConfig& c, std::uint64_t seed,
             double t_end, std::uint64_t& next_index) {
  const int n = std::max(c.lanes, c.max_batch);
  std::vector<svc::SimulationService::Ticket> tickets;
  for (int i = 0; i < n; ++i) {
    tickets.push_back(s.service->submit(
        make_request(request_inputs(seed, next_index++, c), t_end)));
  }
  s.service->resume();
  for (auto& t : tickets) {
    const svc::ScenarioResult r = t.result.get();
    if (r.status != svc::RequestStatus::kCompleted) {
      throw std::runtime_error("warm-up request failed: " + r.error);
    }
  }
}

struct Record {
  std::uint64_t index = 0;
  std::uint64_t digest = 0;
  bool killed = false;
  int revives_used = 0;
  double total = 0.0, queue = 0.0, solve = 0.0, imbalance = 1.0;
};

struct WindowOut {
  Window w;
  std::vector<Record> records;  // completed inside the window
  ParTotals par;                // traced windows only
  double killed = 0.0;
  obs::Registry svc_before, svc_after;  // service metrics at window edges
};

// `clients` closed-loop client threads submit until the deadline; requests
// still outstanding then are cancelled and do not count. The window ends at
// the last completion inside the deadline, so a batch that straddles the
// deadline does not quantize the throughput.
WindowOut run_window(ServeSetup& s, const ServeConfig& c, const Options& opt,
                     double seconds, double t_end, std::uint64_t& next_index,
                     const std::string& dir, Tracer& tracer, int root) {
  WindowOut out;
  out.svc_before = s.service->metrics();
  std::mutex mu;  // guards stop, outstanding, out
  bool stop = false;
  std::set<std::uint64_t> outstanding;
  std::atomic<std::uint64_t> next{next_index};
  std::atomic<bool> client_error{false};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  Clock::time_point t_last = t0;
  {
    std::vector<std::jthread> clients;
    for (int k = 1; k <= c.clients; ++k) {
      clients.emplace_back([&, k] {
        try {
          for (;;) {
            const std::uint64_t idx = next.fetch_add(1);
            const RequestInputs in = request_inputs(opt.seed, idx, c);
            svc::ScenarioRequest req = make_request(in, t_end);
            std::string ckpt;
            if (c.recover) {
              ckpt = dir + "/req" + std::to_string(idx);
              std::filesystem::create_directory(ckpt);
              req.ft.checkpoint_dir = ckpt;
              req.ft.checkpoint_every = kCheckpointEvery;
              req.ft.max_revives = 2;
              if (in.killed) req.ft.fault_plan = &in.plan;
            }
            const double ts = tracer.now();
            svc::SimulationService::Ticket tk;  // id 0: not admitted
            bool stopped = false;
            {
              const std::lock_guard<std::mutex> lk(mu);
              stopped = stop;
              if (!stopped) {
                try {
                  tk = s.service->submit(std::move(req));
                  outstanding.insert(tk.id);
                } catch (const svc::QueueFullError&) {
                  ++out.w.failed;  // a refused request counts as failed
                }
              }
            }
            if (tk.id == 0) {
              if (!ckpt.empty()) std::filesystem::remove_all(ckpt);
              if (stopped) return;
              continue;
            }
            const svc::ScenarioResult r = tk.result.get();
            const Clock::time_point done = Clock::now();
            tracer.record("svc.request", "svc", root, ts, tracer.now(), k, tk.id);
            if (!ckpt.empty()) std::filesystem::remove_all(ckpt);
            const Record rec{idx,          digest(r.solve),
                             in.killed,    r.solve.revives_used,
                             r.total_seconds, r.queue_seconds,
                             r.solve_seconds, work_imbalance(r.solve)};
            const std::lock_guard<std::mutex> lk(mu);
            outstanding.erase(tk.id);
            if (done > deadline) continue;  // cut by the window
            if (r.status != svc::RequestStatus::kCompleted) {
              ++out.w.failed;
              continue;
            }
            out.w.latencies.push_back(r.total_seconds);
            t_last = std::max(t_last, done);
            out.records.push_back(rec);
            out.par.add(r.solve, r.solve_seconds);
            if (in.killed) out.killed += 1.0;
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %d: %s\n", k, e.what());
          client_error = true;
        }
      });
    }
    std::this_thread::sleep_until(deadline);
    out.svc_after = s.service->metrics();
    const std::lock_guard<std::mutex> lk(mu);
    stop = true;
    for (const std::uint64_t id : outstanding) s.service->cancel(id);
  }
  if (client_error) throw std::runtime_error("a client thread failed");
  next_index = next.load();
  out.w.seconds = std::chrono::duration<double>(t_last - t0).count();
  return out;
}

double scope_diff(const obs::Registry& a, const obs::Registry& b,
                  const char* key) {
  const auto ia = a.scopes.find(key), ib = b.scopes.find(key);
  const double va = ia == a.scopes.end() ? 0.0 : ia->second.seconds;
  const double vb = ib == b.scopes.end() ? 0.0 : ib->second.seconds;
  return vb - va;
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const ServeConfig c = serve_config(opt.workload, opt.smoke);
  const TempDir tmp(opt.tmp_base);
  Tracer tracer(opt.traced);
  obs::set_enabled(opt.traced);
  obs::Registry etree;
  std::vector<double> setup_seconds;
  const std::unique_ptr<ServeSetup> s =
      timed_setups(opt, tracer, setup_seconds, [&](int root) {
        return build_setup(c, tmp.path(), tracer, root,
                           opt.traced ? &etree : nullptr);
      });
  const double t_end = (c.steps - 0.5) * s->service->dt();
  rep.note("mesh.elements", static_cast<double>(s->mesh.n_elements()));
  rep.note("steps_per_request", c.steps);

  std::uint64_t next_index = 0;
  obs::set_enabled(false);
  warm_up(*s, c, opt.seed, t_end, next_index);
  WindowOut win;
  LayerBlock b;
  Window w = measure(opt, tracer, rep, b, [&](double seconds, int root) {
    win = run_window(*s, c, opt, seconds, t_end, next_index, tmp.path(),
                     tracer, root);
    return win.w;
  });
  s->service.reset();  // the checks below build their own setup

  // ---- correctness: seed-sampled results (and every killed request on
  // serve_recover) bitwise equal to a direct ParallelSetup::run ----
  std::vector<const Record*> sample;
  {
    std::vector<const Record*> all;
    for (const Record& r : win.records) all.push_back(&r);
    util::Rng rng(opt.seed ^ 0x5a5a5a5aULL);
    for (std::size_t i = 0; i < all.size() && sample.size() < kSamples; ++i) {
      const std::size_t j = i + rng.next_u64() % (all.size() - i);
      std::swap(all[i], all[j]);
      sample.push_back(all[i]);
    }
    for (std::size_t i = sample.size(); i < all.size(); ++i) {
      if (all[i]->killed) sample.push_back(all[i]);
    }
  }
  par::ParallelSetup direct(s->mesh, s->part, solver::OperatorOptions{},
                            solver_options());
  int mismatches = 0, killed = 0, unrevived = 0;
  for (const Record* r : sample) {
    const RequestInputs in = request_inputs(opt.seed, r->index, c);
    const solver::PointSource src(s->mesh, in.src.position, in.src.direction,
                                  in.src.amplitude, in.src.fp, in.src.tc);
    const solver::SourceModel* srcs[] = {&src};
    if (digest(direct.run(t_end, srcs, stations())) != r->digest) ++mismatches;
    if (r->killed) {
      ++killed;
      if (r->revives_used < 1) ++unrevived;
    }
  }
  rep.note("checked_results", static_cast<double>(sample.size()));
  rep.check("completed_requests", !win.records.empty());
  rep.check("bitwise_equal_direct_run", mismatches == 0);
  w.failed += mismatches;
  if (c.recover) {
    rep.note("checked_killed", killed);
    rep.check("killed_requests_checked", killed > 0);
    rep.check("killed_requests_revived_in_place", unrevived == 0);
    if (opt.traced) rep.check("zero_steps_rolled_back", win.par.rolled_back == 0.0);
  }

  if (!opt.traced) {
    add_end_to_end(rep, setup_seconds, w);
    return;
  }
  count_ops(rep, w);

  add_mesh_setup(b, tracer, etree, s->mesh, s->part, "svc.construct");
  b.par = win.par;
  b.requests = static_cast<double>(win.records.size());
  b.killed = win.killed;
  double imbalance = 0.0, total = 0.0, queue = 0.0, solve = 0.0;
  for (const Record& r : win.records) {
    imbalance += r.imbalance;
    total += r.total;
    queue += r.queue;
    solve += r.solve;
  }
  if (!win.records.empty()) b.work_imbalance = imbalance / b.requests;
  const obs::Registry& m0 = win.svc_before;
  const obs::Registry& m1 = win.svc_after;
  if (total > 0.0) {
    b.queue_frac = queue / total;
    b.solve_frac = solve / total;
    b.svc_setup_frac = scope_diff(m0, m1, "svc/request/setup") / total;
    b.extract_frac = scope_diff(m0, m1, "svc/request/extract") / total;
  }
  const double worker = scope_diff(m0, m1, "svc/request");
  if (worker > 0.0) {
    b.overhead_frac = 1.0 - scope_diff(m0, m1, "svc/request/solve") / worker;
  }
  b.op_apply_ms = elastic_apply_ms(s->mesh);
  add_layers(rep, b, tracer, opt);
}

}  // namespace bench_e2e
