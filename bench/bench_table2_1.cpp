// Table 2.1 — parallel scalability of the forward earthquake solver.
//
// The paper scales Northridge simulations of growing resolution from 1 to
// 3000 AlphaServer processors and reports grid points, points per
// processor, sustained Gflop/s, Mflop/s per processor, and parallel
// efficiency. This host has one core (see DESIGN.md), so we reproduce the
// table's *shape* with in-process SPMD ranks: per-row we report the real
// partition metrics (points/rank, communication volume, load imbalance)
// and the parallel efficiency of an AlphaServer-class machine model
// evaluated on the measured per-rank work and communication — alongside
// the measured aggregate Mflop/s of the actual run.
//
// Besides the human-readable table, the bench emits a machine-readable
// "quake.bench/1" report (see docs/OBSERVABILITY.md): one row per table
// line with the experiment parameters, the headline metrics, and the
// min/mean/max-across-ranks telemetry summary gathered by quake::obs.
//
//   bench_table2_1 [--quick] [--fault-sweep] [--lts-sweep] [--json PATH]
//                  [--csv PATH]
//
// --quick shrinks the ladder for CI; the default JSON path is
// BENCH_table2_1.json in the working directory.
//
// --lts-sweep appends interleaved local-time-stepping A/B rows (params.lts
// = off | on, params.scheme = serial | par; see docs/LTS.md). The serial
// pair reruns the Fig 2.2 layer-over-halfspace verification at one rank,
// with global dt (run) and with LTS (run_lts) on the same two-octree-level
// mesh, reporting the closed-form error of each plus the measured
// updates_saved_ratio; the parallel pair drives ParallelSetup::run_lts
// off/on over the basin mesh and reports the ratio alongside the drift of
// the final field and seismogram from the global-dt run.
//
// --fault-sweep appends a recovery-latency comparison (see DESIGN.md
// "Localized recovery"): the same seeded mid-run rank kill handled by the
// three recovery tiers — message-log replay (zero survivor rollback),
// donation-aware rollback (message log disabled), and the full-restart
// supervisor — against a fault-free
// control, interleaved over several trials. Its report rows carry
// params.mode = clean | recovery | rollback | full_restart plus wall-clock
// metrics and the recover/agree|restore|replay|resume latency breakdown.
//
// The report also carries a delayed-neighbor drain sweep (rows with
// params.drain_mode): an all-to-all ghost exchange where one rank
// oversleeps before sending each round, drained either in strict ascending
// rank order (the pre-arrival-order protocol) or with the solver's
// park-as-they-arrive drain. The others_parked metric — how long the
// receiver takes to bank every NON-straggler payload — is the
// serialization evidence: rank-ordered draining with a low straggler holds
// every later edge hostage for the full delay, arrival-order draining
// banks them immediately.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "quake/par/communicator.hpp"

#include "quake/lts/clustering.hpp"
#include "quake/mesh/meshgen.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/obs/sink.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/sh1d.hpp"
#include "quake/solver/source.hpp"
#include "quake/util/stats.hpp"
#include "quake/util/timer.hpp"

namespace {

using namespace quake;

struct Row {
  int ranks;
  std::string model;
  double f_max;
  int max_level;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool fault_sweep = false;
  bool lts_sweep = false;
  std::string json_path = "BENCH_table2_1.json";
  std::string csv_path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[a], "--fault-sweep") == 0) {
      fault_sweep = true;
    } else if (std::strcmp(argv[a], "--lts-sweep") == 0) {
      lts_sweep = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--csv") == 0 && a + 1 < argc) {
      csv_path = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--fault-sweep] [--lts-sweep] "
                   "[--json PATH] [--csv PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::set_enabled(true);
  obs::MetricsSink sink("table2_1");

  const double extent = 25600.0;
  const vel::BasinModel model = vel::BasinModel::demo(extent);

  // Resolution ladder mirroring LA10S..LA1H: frequency doubles down the
  // table, the largest model is reused for the biggest rank counts.
  const std::vector<Row> rows =
      quick ? std::vector<Row>{{1, "BAS10S", 0.05, 5},
                               {2, "BAS5S", 0.10, 6},
                               {4, "BAS4S", 0.125, 6}}
            : std::vector<Row>{{1, "BAS10S", 0.05, 5}, {2, "BAS5S", 0.10, 6},
                               {4, "BAS4S", 0.125, 6}, {8, "BAS3S", 0.167, 6},
                               {12, "BAS2S", 0.25, 7}, {16, "BAS2S", 0.25, 7}};
  const double t_end = quick ? 0.2 : 0.6;

  std::printf("Table 2.1 analogue: forward-solver scalability "
              "(machine model: 500 Mflop/s per PE, 200 MB/s links, 5 us)\n");
  std::printf("%5s %8s %10s %10s %9s %9s %10s %9s %11s %10s\n", "PEs",
              "model", "grid pts", "pts/PE", "imbal", "shared%", "kB/step",
              "overlap", "meas Mf/s", "model eff");

  double base_eff = -1.0;
  for (const Row& row : rows) {
    mesh::MeshOptions mopt;
    mopt.domain_size = extent;
    mopt.f_max = row.f_max;
    mopt.n_lambda = 8.0;
    mopt.min_level = 3;
    mopt.max_level = row.max_level;
    const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);

    solver::FaultSource::Spec fs;
    fs.y = 0.55 * extent;
    fs.x0 = 0.3 * extent;
    fs.x1 = 0.6 * extent;
    fs.z_top = 1000.0;
    fs.z_bot = 5000.0;
    fs.hypocenter = {0.4 * extent, 3000.0};
    fs.rise_time = 2.0;
    fs.slip = 1.0;
    const solver::FaultSource source(mesh, fs);

    solver::OperatorOptions oopt;
    solver::SolverOptions sopt;
    sopt.t_end = t_end;
    sopt.cfl_fraction = 0.4;

    const par::Partition part = par::partition_sfc(mesh, row.ranks);
    const solver::SourceModel* sources[] = {&source};
    const par::ParallelResult pr =
        par::run_parallel(mesh, part, oopt, sopt, sources, {});

    std::uint64_t flops = 0, elem_updates = 0;
    std::size_t shared_doubles = 0, shared_nodes = 0, total_rank_nodes = 0;
    double compute = 0.0, overlap = 0.0;
    for (const auto& s : pr.rank_stats) {
      flops += s.flops;
      elem_updates += s.element_updates;
      shared_doubles += s.doubles_sent_per_step;
      compute = std::max(compute, s.compute_seconds + s.exchange_seconds);
      overlap += s.overlap_fraction;
    }
    overlap /= static_cast<double>(pr.rank_stats.size());
    for (const auto& s : part.stats) {
      shared_nodes += s.n_shared_nodes;
      total_rank_nodes += s.n_nodes;
    }
    const double meas_mflops =
        compute > 0.0 ? static_cast<double>(flops) / compute * 1e-6 : 0.0;
    const double eff_raw = par::modeled_efficiency(pr, par::MachineModel{});
    if (base_eff < 0.0) base_eff = eff_raw;
    // Normalize so the 1-PE row is 1.00, as in the paper.
    const double eff = eff_raw / base_eff;
    const double shared_frac = total_rank_nodes > 0
                                   ? static_cast<double>(shared_nodes) /
                                         static_cast<double>(total_rank_nodes)
                                   : 0.0;
    const double kb_per_step =
        static_cast<double>(shared_doubles) * 8.0 / 1024.0;
    // Global-dt rows do one element-kernel application per element per
    // step, so the updates-saved ratio is identically 1 here; the
    // --lts-sweep rows are where it exceeds 1.
    const std::uint64_t global_updates =
        static_cast<std::uint64_t>(pr.n_steps) * mesh.n_elements();
    const double updates_saved =
        elem_updates > 0 ? static_cast<double>(global_updates) /
                               static_cast<double>(elem_updates)
                         : 1.0;

    std::printf(
        "%5d %8s %10zu %10zu %9.3f %8.1f%% %10.1f %8.1f%% %11.0f %10.3f\n",
        row.ranks, row.model.c_str(), mesh.n_nodes(),
        mesh.n_nodes() / static_cast<std::size_t>(row.ranks),
        part.imbalance(), 100.0 * shared_frac, kb_per_step, 100.0 * overlap,
        meas_mflops, eff);

    obs::Json& jrow = sink.new_row();
    jrow.set("params", obs::Json::object()
                           .set("ranks", row.ranks)
                           .set("model", row.model)
                           .set("f_max", row.f_max)
                           .set("max_level", row.max_level)
                           .set("t_end", t_end));
    jrow.set("metrics",
             obs::Json::object()
                 .set("grid_points", mesh.n_nodes())
                 .set("points_per_rank",
                      mesh.n_nodes() / static_cast<std::size_t>(row.ranks))
                 .set("n_steps", pr.n_steps)
                 .set("imbalance", part.imbalance())
                 .set("shared_node_fraction", shared_frac)
                 .set("kb_per_step", kb_per_step)
                 .set("overlap_fraction", overlap)
                 .set("measured_mflops", meas_mflops)
                 .set("modeled_efficiency", eff_raw)
                 .set("modeled_efficiency_normalized", eff)
                 .set("element_updates", static_cast<double>(elem_updates))
                 .set("updates_saved_ratio", updates_saved));
    jrow.set("ranks", obs::to_json(pr.obs_summary));
  }
  std::printf("\n(paper: efficiency 1.00 -> 0.80 from 1 to 3000 PEs; the "
              "model-efficiency column should decay mildly with rank count "
              "as the shared-surface fraction grows)\n");

  {
    // ---- delayed-neighbor drain sweep (see header comment) ----
    const int R = quick ? 4 : 8;
    const int rounds = quick ? 10 : 30;
    const int kWidth = 2048;  // doubles per edge, ~16 kB — a realistic face
    const auto sleep_len = std::chrono::milliseconds(2);
    struct DrainMode {
      const char* name;
      bool arrival_order;
    };
    const DrainMode dmodes[] = {{"rank_order", false}, {"arrival_order", true}};
    const int stragglers[] = {-1, 0, R - 1};

    std::printf("\nDelayed-neighbor drain sweep: %d ranks all-to-all, %d "
                "rounds, straggler oversleeps %lldms before sending\n",
                R, rounds,
                static_cast<long long>(sleep_len.count()));
    std::printf("%14s %10s %16s %18s\n", "drain", "straggler",
                "drain ms/round", "others parked ms");

    for (const DrainMode& dm : dmodes) {
      for (const int straggler : stragglers) {
        std::vector<obs::RankReport> reports(static_cast<std::size_t>(R));
        // Per-rank, max over rounds: seconds from drain start until every
        // NON-straggler edge had been banked. Each rank writes its own slot.
        std::vector<double> others_parked(static_cast<std::size_t>(R), 0.0);
        par::Communicator comm(R);
        comm.run([&](par::Rank& r) {
          reports[static_cast<std::size_t>(r.id())].rank = r.id();
          obs::ScopedRegistry obs_here(
              reports[static_cast<std::size_t>(r.id())].metrics);
          std::vector<double> payload(kWidth, 0.5 + r.id());
          std::vector<std::vector<double>> parked(
              static_cast<std::size_t>(R), std::vector<double>(kWidth, 0.0));
          std::vector<double> sums(kWidth, 0.0);
          std::vector<std::uint8_t> arrived(static_cast<std::size_t>(R), 0);
          const int n_others =
              straggler < 0 || straggler == r.id() ? R - 1 : R - 2;
          for (int round = 0; round < rounds; ++round) {
            QUAKE_OBS_SCOPE("step");
            QUAKE_OBS_SCOPE("exchange");
            {
              QUAKE_OBS_SCOPE("post");
              if (r.id() == straggler) std::this_thread::sleep_for(sleep_len);
              for (int dst = 0; dst < R; ++dst) {
                if (dst != r.id()) r.send(dst, 0, payload);
              }
            }
            {
              QUAKE_OBS_SCOPE("drain");
              const auto t0 = std::chrono::steady_clock::now();
              double t_others = 0.0;
              int n_banked = 0;
              const auto bank = [&](int s) {
                arrived[static_cast<std::size_t>(s)] = 1;
                if (s != straggler && ++n_banked == n_others) {
                  t_others = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
                }
              };
              {
                QUAKE_OBS_SCOPE("wait");
                std::fill(arrived.begin(), arrived.end(), std::uint8_t{0});
                if (dm.arrival_order) {
                  constexpr int kIdlePassLimit = 64;
                  int n_pending = R - 1;
                  int idle_passes = 0;
                  while (n_pending > 0) {
                    int progressed = 0;
                    int first_pending = -1;
                    for (int s = 0; s < R; ++s) {
                      if (s == r.id() ||
                          arrived[static_cast<std::size_t>(s)] != 0) {
                        continue;
                      }
                      if (r.try_recv_into(
                              s, 0, parked[static_cast<std::size_t>(s)])) {
                        bank(s);
                        --n_pending;
                        ++progressed;
                      } else if (first_pending < 0) {
                        first_pending = s;
                      }
                    }
                    if (n_pending == 0 || progressed > 0) {
                      idle_passes = 0;
                    } else if (++idle_passes < kIdlePassLimit) {
                      std::this_thread::yield();
                    } else {
                      r.recv_into(first_pending, 0,
                                  parked[static_cast<std::size_t>(
                                      first_pending)]);
                      bank(first_pending);
                      --n_pending;
                      idle_passes = 0;
                    }
                  }
                } else {
                  for (int s = 0; s < R; ++s) {
                    if (s == r.id()) continue;
                    r.recv_into(s, 0, parked[static_cast<std::size_t>(s)]);
                    bank(s);
                  }
                }
              }
              others_parked[static_cast<std::size_t>(r.id())] = std::max(
                  others_parked[static_cast<std::size_t>(r.id())], t_others);
              for (int s = 0; s < R; ++s) {
                const std::vector<double>& src =
                    s == r.id() ? payload : parked[static_cast<std::size_t>(s)];
                for (int i = 0; i < kWidth; ++i) sums[i] += src[i];
              }
            }
          }
          // Synthetic harness: there is no compute to hide the exchange
          // behind, so the overlap gauge the exchange-telemetry contract
          // requires is identically zero here.
          obs::gauge_set("par/overlap_fraction", 0.0);
          volatile double keep = sums[0];  // keep the accumulation observable
          (void)keep;
        });

        const obs::MergedReport merged = obs::merge_reports(reports);
        const auto dit = merged.scopes.find("step/exchange/drain");
        const double drain_mean =
            dit == merged.scopes.end() ? 0.0 : dit->second.seconds.mean;
        double parked_worst = 0.0;
        for (int rr = 0; rr < R; ++rr) {
          if (rr != straggler) {
            parked_worst =
                std::max(parked_worst, others_parked[static_cast<std::size_t>(rr)]);
          }
        }
        std::printf("%14s %10d %16.3f %18.3f\n", dm.name, straggler,
                    1e3 * drain_mean / rounds, 1e3 * parked_worst);

        obs::Json& jrow = sink.new_row();
        jrow.set("params", obs::Json::object()
                               .set("drain_mode", dm.name)
                               .set("straggler", straggler)
                               .set("ranks", R)
                               .set("rounds", rounds)
                               .set("payload_doubles", kWidth)
                               .set("straggler_sleep_ms",
                                    static_cast<double>(sleep_len.count())));
        jrow.set("metrics",
                 obs::Json::object()
                     .set("drain_seconds_per_round", drain_mean / rounds)
                     .set("others_parked_seconds_worst", parked_worst)
                     // No compute phase in the synthetic exchange, so
                     // nothing can be hidden behind it.
                     .set("overlap_fraction", 0.0));
        jrow.set("ranks", obs::to_json(merged));
      }
    }
    std::printf("(arrival-order draining should bank the non-straggler "
                "edges in ~0 ms even when rank 0 is the straggler; "
                "rank-ordered draining holds them for the full delay)\n");
  }

  if (lts_sweep) {
    // ---- local time stepping A/B sweep (rows with params.lts) ----
    //
    // Serial pair: the Fig 2.2 verification problem run off/on on one
    // adaptive mesh. The soft layer gets a saturated-sediment P velocity
    // (vp/vs = 4): wavelength refinement sizes h to vs while the CFL bound
    // follows h / vp, so the layer's stable step is genuinely below the
    // halfspace's and the mesh clusters into two rate classes — while the
    // SH physics never reads vp, leaving the closed form untouched.
    const double Lc = 800.0, Hc = 150.0;
    const double vs1 = 800.0, vp1 = 3200.0, rho1 = 2000.0;
    const double vs2 = 1600.0, vp2 = 1.732 * 1600.0, rho2 = 2400.0;
    const vel::LayeredModel lmodel(
        {{Hc, vel::Material::from_velocities(vp1, vs1, rho1)},
         {0.0, vel::Material::from_velocities(vp2, vs2, rho2)}});
    mesh::MeshOptions lopt;
    lopt.domain_size = Lc;
    lopt.f_max = 4.0;
    lopt.n_lambda = 8.0;
    lopt.min_level = 3;
    lopt.max_level = 6;
    const mesh::HexMesh lmesh = mesh::generate_mesh(lmodel, lopt);
    int lv_min = 255, lv_max = 0;
    for (const std::uint8_t lv : lmesh.elem_level) {
      lv_min = std::min<int>(lv_min, lv);
      lv_max = std::max<int>(lv_max, lv);
    }
    const int octree_levels = lv_max - lv_min + 1;

    solver::OperatorOptions labc;
    labc.abc = fem::AbcType::kLysmer;
    labc.absorbing_sides = {false, false, false, false, false, true};
    solver::SolverOptions lsopt;
    lsopt.t_end = quick ? 0.9 : 1.4;
    lsopt.cfl_fraction = 0.35;
    lsopt.fixed_components = {true, false, true};
    const int kMaxRate = 32;
    const par::Partition lpart = par::partition_sfc(lmesh, 1);
    par::ParallelSetup lsetup(lmesh, lpart, labc, lsopt);
    const lts::Clustering lcl = lts::cluster_elements(
        lmesh, lsetup.dt(), lsopt.cfl_fraction, kMaxRate);

    // Upgoing displacement pulse in the halfspace (see bench_fig2_2).
    const double zc = 500.0, sigma = 150.0;
    const auto pulse = [&](double z) {
      return std::exp(-std::pow((z - zc) / sigma, 2));
    };
    std::vector<double> u0(3 * lmesh.n_nodes(), 0.0), v0(u0.size(), 0.0);
    for (std::size_t n = 0; n < lmesh.n_nodes(); ++n) {
      const double z = lmesh.node_coords[n][2];
      u0[3 * n + 1] = pulse(z);
      v0[3 * n + 1] = vs2 * (-2.0 * (z - zc) / (sigma * sigma)) * pulse(z);
    }
    const solver::ShLayerParams sp{Hc, rho1, vs1, rho2, vs2};
    const auto incident = [&](double t) { return pulse(Hc + vs2 * t); };
    const auto exact_for = [&](std::size_t n_samples, double dt) {
      // The solver records u^{k+1} at t = (k+1) dt; sample the closed form
      // on the same staggered instants.
      std::vector<double> all = sh_layer_surface_response(
          sp, incident, static_cast<int>(n_samples) + 1, dt);
      return std::vector<double>(all.begin() + 1, all.end());
    };

    std::printf("\nLTS sweep: serial Fig 2.2 verification off/on "
                "(%zu elements, octree levels %d..%d)\n",
                lmesh.n_elements(), lv_min, lv_max);
    std::printf("%8s %8s %12s %12s %10s %10s\n", "scheme", "lts",
                "rel L2 err", "correlation", "saved", "classes");

    par::RunControl lctl;
    lctl.initial_u = u0;
    lctl.initial_v = v0;
    const std::array<double, 3> lrecv[] = {{Lc / 2, Lc / 2, 0.0}};

    std::vector<double> rec_off;
    double err_off = 0.0;
    for (int on = 0; on <= 1; ++on) {
      lts::LtsOptions lo;
      lo.enabled = on != 0;
      lo.max_rate = kMaxRate;
      const par::ParallelResult pr =
          lsetup.run_lts(lsopt.t_end, {}, lrecv, lo, lctl);
      std::vector<double> rec;
      for (const auto& s : pr.receiver_histories[0]) rec.push_back(s[1]);
      const double dt = pr.dt;
      const int n_steps = pr.n_steps;
      const double elem_updates =
          static_cast<double>(pr.rank_stats[0].element_updates);
      const double ratio = static_cast<double>(n_steps) *
                           static_cast<double>(lmesh.n_elements()) /
                           elem_updates;
      const double predicted = on ? lcl.predicted_updates_saved() : 1.0;
      const int n_classes = on ? lcl.n_classes : 1;
      const std::vector<double> exact = exact_for(rec.size(), dt);
      const double err = util::rel_l2(rec, exact);
      const double corr = util::correlation(rec, exact);
      std::printf("%8s %8s %12.4f %12.6f %10.4f %10d\n", "serial",
                  on ? "on" : "off", err, corr, ratio, n_classes);

      obs::Json& jrow = sink.new_row();
      jrow.set("params", obs::Json::object()
                             .set("lts", on ? "on" : "off")
                             .set("scheme", "serial")
                             .set("model", "LAY2R")
                             .set("ranks", 1)
                             .set("f_max", lopt.f_max)
                             .set("max_level", lopt.max_level)
                             .set("max_rate", kMaxRate)
                             .set("t_end", lsopt.t_end));
      obs::Json metrics =
          obs::Json::object()
              .set("n_steps", n_steps)
              .set("octree_levels", octree_levels)
              .set("n_classes", n_classes)
              .set("rel_l2_err", err)
              .set("correlation", corr)
              .set("element_updates", elem_updates)
              .set("updates_saved_ratio", ratio)
              .set("predicted_updates_saved", predicted);
      if (on == 0) {
        rec_off = rec;
        err_off = err;
      } else {
        // The equivalence-tier evidence: LTS drifts from the global-dt
        // seismogram only through the coarse nodes' larger step, and the
        // closed-form error stays at the off-row's level.
        metrics.set("seis_rel_diff_vs_global", util::rel_l2(rec, rec_off))
            .set("rel_l2_err_off", err_off);
      }
      jrow.set("metrics", metrics);
    }

    // Parallel pair: the basin demo mesh (three rate classes: the
    // min-level cap leaves deep fast rock coarse, and sediments carry a
    // higher vp/vs than rock) through ParallelSetup::run_lts off/on.
    mesh::MeshOptions bopt;
    bopt.domain_size = extent;
    bopt.f_max = 0.2;
    bopt.n_lambda = 8.0;
    bopt.min_level = 3;
    bopt.max_level = 6;
    const mesh::HexMesh bmesh = mesh::generate_mesh(model, bopt);
    int blv_min = 255, blv_max = 0;
    for (const std::uint8_t lv : bmesh.elem_level) {
      blv_min = std::min<int>(blv_min, lv);
      blv_max = std::max<int>(blv_max, lv);
    }

    solver::FaultSource::Spec fs;
    fs.y = 0.55 * extent;
    fs.x0 = 0.3 * extent;
    fs.x1 = 0.6 * extent;
    fs.z_top = 1000.0;
    fs.z_bot = 5000.0;
    fs.hypocenter = {0.4 * extent, 3000.0};
    fs.rise_time = 2.0;
    fs.slip = 1.0;
    const solver::FaultSource bsource(bmesh, fs);
    const solver::SourceModel* bsources[] = {&bsource};
    const std::array<double, 3> brecv[] = {{0.5 * extent, 0.5 * extent, 0.0}};

    solver::OperatorOptions boopt;
    solver::SolverOptions bsopt;
    bsopt.t_end = quick ? 0.6 : 1.0;
    bsopt.cfl_fraction = 0.4;
    const int kRanks = 4;
    const par::Partition bpart = par::partition_sfc(bmesh, kRanks);
    par::ParallelSetup setup(bmesh, bpart, boopt, bsopt);
    const lts::Clustering bcl = lts::cluster_elements(
        bmesh, setup.dt(), bsopt.cfl_fraction, kMaxRate);

    std::printf("LTS sweep: parallel basin run off/on (%zu elements, %d "
                "ranks, octree levels %d..%d, %d rate classes)\n",
                bmesh.n_elements(), kRanks, blv_min, blv_max, bcl.n_classes);
    std::printf("%8s %8s %12s %14s %10s\n", "scheme", "lts", "saved",
                "u_final drift", "seis drift");

    par::ParallelResult pr_off;
    for (int on = 0; on <= 1; ++on) {
      lts::LtsOptions lo;
      lo.enabled = on != 0;
      lo.max_rate = kMaxRate;
      par::ParallelResult pr =
          setup.run_lts(bsopt.t_end, bsources, brecv, lo);
      std::uint64_t updates = 0;
      for (const auto& s : pr.rank_stats) updates += s.element_updates;
      const std::uint64_t global_updates =
          static_cast<std::uint64_t>(pr.n_steps) * bmesh.n_elements();
      const double ratio = updates > 0 ? static_cast<double>(global_updates) /
                                             static_cast<double>(updates)
                                       : 1.0;
      const auto flat = [](const std::vector<std::array<double, 3>>& h) {
        std::vector<double> v;
        v.reserve(3 * h.size());
        for (const auto& a : h) v.insert(v.end(), a.begin(), a.end());
        return v;
      };
      double u_drift = 0.0, seis_drift = 0.0;
      if (on != 0) {
        u_drift = util::rel_l2(pr.u_final, pr_off.u_final);
        seis_drift = util::rel_l2(flat(pr.receiver_histories[0]),
                                  flat(pr_off.receiver_histories[0]));
      }
      std::printf("%8s %8s %12.4f %14.6f %10.6f\n", "par", on ? "on" : "off",
                  ratio, u_drift, seis_drift);

      obs::Json& jrow = sink.new_row();
      jrow.set("params", obs::Json::object()
                             .set("lts", on ? "on" : "off")
                             .set("scheme", "par")
                             .set("model", "BASLTS")
                             .set("ranks", kRanks)
                             .set("f_max", bopt.f_max)
                             .set("max_level", bopt.max_level)
                             .set("max_rate", kMaxRate)
                             .set("t_end", bsopt.t_end));
      obs::Json metrics =
          obs::Json::object()
              .set("n_steps", pr.n_steps)
              .set("octree_levels", blv_max - blv_min + 1)
              .set("n_classes", on ? bcl.n_classes : 1)
              .set("element_updates", static_cast<double>(updates))
              .set("updates_saved_ratio", ratio)
              .set("predicted_updates_saved",
                   on ? bcl.predicted_updates_saved() : 1.0);
      if (on != 0) {
        metrics.set("u_final_rel_diff_vs_global", u_drift)
            .set("seis_rel_diff_vs_global", seis_drift);
      }
      jrow.set("metrics", metrics);
      jrow.set("ranks", obs::to_json(pr.obs_summary));
      if (on == 0) pr_off = std::move(pr);
    }
    std::printf("(LTS on should save updates — ratio > 1 — while the "
                "closed-form error and the drift from global dt stay at "
                "the discretization level)\n");
  }

  if (fault_sweep) {
    // ---- recovery-latency sweep: the same seeded kill, four policies ----
    const int R = quick ? 4 : 8;
    mesh::MeshOptions mopt;
    mopt.domain_size = extent;
    mopt.f_max = quick ? 0.05 : 0.10;
    mopt.n_lambda = 8.0;
    mopt.min_level = 3;
    mopt.max_level = quick ? 5 : 6;
    const mesh::HexMesh mesh = mesh::generate_mesh(model, mopt);

    solver::FaultSource::Spec fs;
    fs.y = 0.55 * extent;
    fs.x0 = 0.3 * extent;
    fs.x1 = 0.6 * extent;
    fs.z_top = 1000.0;
    fs.z_bot = 5000.0;
    fs.hypocenter = {0.4 * extent, 3000.0};
    fs.rise_time = 2.0;
    fs.slip = 1.0;
    const solver::FaultSource source(mesh, fs);
    const solver::SourceModel* sources[] = {&source};

    solver::OperatorOptions oopt;
    solver::SolverOptions sopt;
    sopt.t_end = quick ? 0.4 : 0.8;
    sopt.cfl_fraction = 0.4;
    const par::Partition part = par::partition_sfc(mesh, R);

    // Probe once for the step count, then kill just after a checkpoint so
    // the rollback depth (and hence the replay cost) is identical for the
    // in-place and full-restart policies — the difference left is pure
    // recovery overhead: teardown/restore scope vs one revived thread.
    const par::ParallelResult probe =
        par::run_parallel(mesh, part, oopt, sopt, sources, {});
    const int n = probe.n_steps;
    const int every = std::max(1, n / 4);
    const int kill_step = std::min(3 * every + 1, n - 1);
    const std::filesystem::path ckpt_dir =
        std::filesystem::temp_directory_path() / "quake_bench_fault_sweep";

    struct Mode {
      const char* name;
      bool kill;
      int max_revives;
      int log_steps;  // FaultToleranceOptions::message_log_steps
      int victims;    // 0 = no kill, 1 = single, 2 = disjoint pair
    };
    // "recovery" is the full tier-1 path (donation + message-log replay);
    // "rollback" disables the message log so the same kill lands on the
    // tier-2 donation-aware rollback (the PR 4 behaviour); "full_restart"
    // spends no revives and falls through to the supervisor.
    // "donation_async" is the fault-free control with donation armed: the
    // donation stream posts fire-and-forget at each checkpoint cut and
    // drains opportunistically (recover/donate/wait is its measured cost
    // per cut). "multi_victim" kills a ghost-disjoint victim pair at the
    // same checkpoint-aligned step so both restore from donations and
    // replay concurrently in one recovery epoch.
    const Mode modes[] = {{"clean", false, 0, 0, 0},
                          {"recovery", true, 2, -1, 1},
                          {"rollback", true, 2, 0, 1},
                          {"full_restart", true, 0, 0, 1},
                          {"donation_async", false, 2, -1, 0},
                          {"multi_victim", true, 2, -1, 2}};
    constexpr int kModes = 6;

    // The multi-victim row needs a victim pair that shares no ghost edge
    // (so every victim-victim replay span is survivor-served) and is
    // non-consecutive in the buddy ring (so both donors survive). Small
    // partitions can be too coupled to admit one; escalate the rank count
    // for that row until a pair exists.
    const int kill_mv = 3 * every;  // checkpoint-aligned => simultaneous
    int R_mv = R;
    par::Partition part_mv = part;
    std::vector<int> victims_mv;
    for (const int cand : {R, 12, 16}) {
      if (cand < R) continue;
      par::Partition p =
          cand == R ? part : par::partition_sfc(mesh, cand);
      const auto adj = par::ParallelSetup(mesh, p, oopt, sopt)
                           .neighbor_ranks();
      for (int i = 0; i < cand && victims_mv.empty(); ++i) {
        for (int j = i + 2; j < cand; ++j) {
          if ((j + 1) % cand == i) continue;  // buddy-ring neighbours
          if (std::find(adj[static_cast<std::size_t>(i)].begin(),
                        adj[static_cast<std::size_t>(i)].end(),
                        j) != adj[static_cast<std::size_t>(i)].end()) {
            continue;
          }
          victims_mv = {i, j};
          break;
        }
      }
      if (!victims_mv.empty()) {
        R_mv = cand;
        part_mv = std::move(p);
        break;
      }
    }
    if (victims_mv.empty()) {
      std::fprintf(stderr,
                   "fault sweep: no disjoint victim pair up to 16 ranks; "
                   "multi_victim row falls back to a single victim\n");
      victims_mv = {R - 1};
    }
    struct Acc {
      double sum = 0.0;
      double min = 1e300;
      double recoveries = 0.0;
      double ranks_revived = 0.0;
      double steps_rolled_back = 0.0;
      double steps_replayed = 0.0;
      double rec_agree = 0.0;
      double rec_restore = 0.0;
      double rec_replay = 0.0;
      double rec_resume = 0.0;
      double overlap = 0.0;
      double donate_wait_mean = 0.0;
      double donate_wait_max = 0.0;
      double log_bytes = 0.0;
      double log_raw_bytes = 0.0;
      double donation_restores = 0.0;
      double donations_served = 0.0;
      double multi_victim_replays = 0.0;
      par::ParallelResult last;
    };
    Acc acc[kModes];
    const int trials = quick ? 3 : 5;
    // Interleave trials so clock drift / turbo effects spread evenly over
    // the four policies instead of biasing whichever runs last.
    for (int t = 0; t < trials; ++t) {
      for (int m = 0; m < kModes; ++m) {
        std::filesystem::remove_all(ckpt_dir);
        const bool mv = modes[m].victims >= 2;
        par::FaultPlan plan;
        if (modes[m].kill) {
          if (mv) {
            for (const int v : victims_mv) plan.kills.push_back({v, kill_mv});
          } else {
            plan.kills.push_back({R - 1, kill_step});
          }
        }
        par::FaultToleranceOptions ft;
        ft.checkpoint_dir = ckpt_dir.string();
        ft.checkpoint_every = every;
        ft.max_retries = 2;
        ft.max_revives = modes[m].max_revives;
        ft.message_log_steps = modes[m].log_steps;
        ft.fault_plan = modes[m].kill ? &plan : nullptr;
        util::Timer timer;
        par::ParallelResult pr = par::run_parallel(
            mesh, mv ? part_mv : part, oopt, sopt, sources, {}, ft);
        const double secs = timer.seconds();
        acc[m].sum += secs;
        acc[m].min = std::min(acc[m].min, secs);
        acc[m].last = std::move(pr);
        // Counters accumulate across trials: the schema pins assert each
        // recovery path was exercised, and per-trial scheduling skew can
        // legitimately leave a single trial's replay or rollback span
        // empty (everyone caught exactly at the cut). Scope latencies
        // keep the max observed across trials and ranks.
        Acc& a = acc[m];
        const auto& ctr = a.last.obs_summary.counters;
        const auto csum = [&](const char* key) {
          const auto it = ctr.find(key);
          return it == ctr.end() ? 0.0 : it->second.sum;
        };
        const auto& scp = a.last.obs_summary.scopes;
        const auto smax = [&](const char* key) {
          const auto it = scp.find(key);
          return it == scp.end() ? 0.0 : it->second.seconds.max;
        };
        a.recoveries += csum("par/recoveries");
        a.ranks_revived += csum("par/ranks_revived");
        a.steps_rolled_back += csum("par/steps_rolled_back");
        a.steps_replayed += csum("par/steps_replayed");
        a.donation_restores += csum("par/donation_restores");
        a.donations_served += csum("par/donations_served");
        a.multi_victim_replays += csum("par/multi_victim_replays");
        a.rec_agree = std::max(a.rec_agree, smax("recover/agree"));
        a.rec_restore = std::max(a.rec_restore, smax("recover/restore"));
        a.rec_replay = std::max(a.rec_replay, smax("recover/replay"));
        a.rec_resume = std::max(a.rec_resume, smax("recover/resume"));
        const auto dw = scp.find("recover/donate/wait");
        if (dw != scp.end()) {
          a.donate_wait_mean += dw->second.seconds.mean / trials;
          a.donate_wait_max =
              std::max(a.donate_wait_max, dw->second.seconds.max);
        }
      }
    }
    std::filesystem::remove_all(ckpt_dir);

    std::printf(
        "\nFault sweep: rank %d killed at step %d of %d (checkpoint every "
        "%d), %d interleaved trials at %d ranks\n",
        R - 1, kill_step, n, every, trials, R);
    std::printf("multi-victim row: ranks {");
    for (std::size_t v = 0; v < victims_mv.size(); ++v) {
      std::printf("%s%d", v ? ", " : "", victims_mv[v]);
    }
    std::printf("} killed at checkpoint-aligned step %d of %d ranks\n",
                kill_mv, R_mv);
    std::printf("%14s %12s %12s %11s %9s %12s %9s %8s %8s %8s %8s\n", "mode",
                "wall min s", "wall mean s", "recoveries", "revived",
                "rolled back", "replayed", "agree s", "restor s", "replay s",
                "resume s");
    for (int m = 0; m < kModes; ++m) {
      Acc& a = acc[m];
      // Gauges merge by replacement, not addition: total the per-rank
      // reports (last trial) for the ring-memory accounting.
      for (const auto& rep : a.last.obs_reports) {
        const auto s = rep.metrics.gauges.find("par/log_bytes");
        const auto r = rep.metrics.gauges.find("par/log_raw_bytes");
        if (s != rep.metrics.gauges.end()) a.log_bytes += s->second;
        if (r != rep.metrics.gauges.end()) a.log_raw_bytes += r->second;
      }
      for (const auto& s : a.last.rank_stats) a.overlap += s.overlap_fraction;
      a.overlap /= static_cast<double>(a.last.rank_stats.size());
      std::printf(
          "%14s %12.4f %12.4f %11.0f %9.0f %12.0f %9.0f %8.4f %8.4f %8.4f "
          "%8.4f\n",
          modes[m].name, a.min, a.sum / trials, a.recoveries, a.ranks_revived,
          a.steps_rolled_back, a.steps_replayed, a.rec_agree, a.rec_restore,
          a.rec_replay, a.rec_resume);

      const bool mv = modes[m].victims >= 2;
      obs::Json& jrow = sink.new_row();
      jrow.set("params",
               obs::Json::object()
                   .set("mode", modes[m].name)
                   .set("ranks", mv ? R_mv : R)
                   .set("model", "BAS10S")
                   .set("f_max", mopt.f_max)
                   .set("max_level", mopt.max_level)
                   .set("t_end", sopt.t_end)
                   .set("kill_step",
                        !modes[m].kill ? 0 : (mv ? kill_mv : kill_step))
                   .set("victims", modes[m].kill ? modes[m].victims : 0)
                   .set("checkpoint_every", every)
                   .set("trials", trials));
      jrow.set("metrics", obs::Json::object()
                              .set("n_steps", n)
                              .set("wall_seconds_min", a.min)
                              .set("wall_seconds_mean", a.sum / trials)
                              // Fault-handling latency: excess wall-clock
                              // over the fault-free control at equal
                              // rollback depth.
                              .set("excess_over_clean_seconds",
                                   std::max(0.0, a.min - acc[0].min))
                              .set("recoveries", a.recoveries)
                              .set("ranks_revived", a.ranks_revived)
                              .set("steps_rolled_back", a.steps_rolled_back)
                              .set("steps_replayed", a.steps_replayed)
                              .set("recover_agree_seconds", a.rec_agree)
                              .set("recover_restore_seconds", a.rec_restore)
                              .set("recover_replay_seconds", a.rec_replay)
                              .set("recover_resume_seconds", a.rec_resume)
                              .set("donate_wait_mean_seconds",
                                   a.donate_wait_mean)
                              .set("donate_wait_max_seconds",
                                   a.donate_wait_max)
                              .set("donation_restores", a.donation_restores)
                              .set("donations_served", a.donations_served)
                              .set("multi_victim_replays",
                                   a.multi_victim_replays)
                              .set("log_bytes", a.log_bytes)
                              .set("log_raw_bytes", a.log_raw_bytes)
                              .set("log_compression_ratio",
                                   a.log_bytes > 0.0
                                       ? a.log_raw_bytes / a.log_bytes
                                       : 1.0)
                              .set("overlap_fraction", a.overlap));
      jrow.set("ranks", obs::to_json(a.last.obs_summary));
    }
    const double rec = acc[1].min, roll = acc[2].min, full = acc[3].min;
    std::printf("(replay recovery %s rollback and full restart: %.4f s vs "
                "%.4f s vs %.4f s min-over-trials)\n",
                rec < roll && rec < full ? "beats" : "does NOT beat", rec,
                roll, full);
    std::printf("(donation wait per cut: %.6f s mean; recovery log rings "
                "%.0f B stored / %.0f B raw = %.2fx compression)\n",
                acc[4].donate_wait_mean,
                acc[1].log_bytes, acc[1].log_raw_bytes,
                acc[1].log_bytes > 0.0
                    ? acc[1].log_raw_bytes / acc[1].log_bytes
                    : 1.0);
  }

  sink.write_json(json_path);
  if (!csv_path.empty()) sink.write_csv(csv_path);
  std::printf("report: %s\n", json_path.c_str());
  return 0;
}
