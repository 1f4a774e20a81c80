#include "quake/par/parallel_solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "quake/fem/hex_element.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/par/communicator.hpp"
#include "quake/solver/locator.hpp"
#include "quake/util/timer.hpp"
#include "recovery.hpp"

namespace quake::par {
namespace {

struct LocalConstraint {
  int node;
  std::array<int, 8> masters;
  std::array<double, 8> weights;
  int n;
};

struct Neighbor {
  int rank;
  std::vector<int> shared;  // local node indices, ascending global id
};

// Everything a rank needs that depends only on the discretization — built
// serially in ParallelSetup's constructor and shared (immutably, except the
// exchange buffers and the state storage) by every solve through that
// setup. Per-scenario state (displacement vectors, receiver assignments,
// histories) belongs to each solve's Job and its ranks' RankRuns, which
// zero the storage they take, so requests are isolated from each other.
// What depends on the time-stepping rates (the communication-hiding
// split, the per-rate sweep lists, the update's 1/lhs) lives in a Schedule.
struct RankLocal {
  std::vector<mesh::ElemId> elems;
  std::vector<mesh::NodeId> nodes;  // sorted global ids
  std::unordered_map<mesh::NodeId, int> local_of;
  std::vector<std::array<int, 8>> conn;
  struct Face {
    int elem;  // index into `elems`
    mesh::BoundarySide side;
  };
  std::vector<Face> faces;
  std::vector<LocalConstraint> cons;
  std::vector<double> mass, am, bk, cab;  // per local dof
  std::vector<std::uint8_t> owned;        // per local node
  std::vector<Neighbor> neighbors;        // ascending rank
  std::vector<int> all_shared;            // union of neighbor lists
  std::vector<int> nb_of_rank;            // rank -> neighbor index or -1

  // Persistent exchange storage: one send/recv buffer pair per neighbor,
  // grown before each SPMD launch to the widest message that solve can
  // post (a batch widens every message S-fold) and never shrunk. The step
  // loop addresses them only through spans of the current message's
  // length, so an earlier, wider solve leaves nothing behind. These and
  // `state` below are the mutable pieces of shared state, which is why runs
  // through a setup are serialized.
  std::vector<std::vector<double>> sendbuf, recvbuf;

  // Per-neighbor arrival flags for the arrival-order drain, reset each
  // step; lives here (not on the step-loop stack) so the steady-state step
  // performs no allocation.
  std::vector<std::uint8_t> nb_arrived;

  // Persistent storage of a run's state vectors, kept like the exchange
  // buffers: each RankRun takes them zero-filled at its own length, so a
  // solve inherits no values from an earlier one, and once the widest
  // solve has run, no run allocates or frees state storage. Every solve
  // runs on fresh rank threads: megabytes each allocated and freed would
  // land in whichever malloc arena it drew, and how much of them stayed
  // resident, and so the process's peak RSS, would vary from run to run.
  struct State {
    std::vector<double> u, u_prev, f, ku, dku, dku_prev, un;
  } state;
};

// The per-rank rate schedule the step loop runs (see docs/LTS.md): at fine
// step k the rate classes lg <= cap(k) are active, visited in ascending lg
// order. Global dt is the one-class instance — built once by
// ParallelSetup's constructor, with every list whole and in setup order —
// and run_lts builds a multi-class instance from the LTS clustering with
// the same builder.
struct Schedule {
  int n_classes = 1;
  // Per-rate update coefficients for dt_n = 2^lg * dt: dt_n^2 and dt_n / 2
  // (ldexp is exact, so rate 0 reproduces the global-dt coefficients).
  std::vector<double> dt2, hdt;

  struct Edge {
    // Positions into the neighbor's `shared` list, grouped by node rate.
    // A step-k message is the rate-major concatenation over active rates
    // of 3 * S doubles per listed node — both sides derive the same layout
    // from the same global rates, so lengths and node order agree without
    // any handshake. With one class this is the shared list itself.
    std::vector<std::vector<int>> sh_of_rate;
    // The entries of each rate whose node first occurs on this edge (the
    // own partial is re-inserted once per node), as {position in shared,
    // slot in the concatenation}.
    std::vector<std::vector<std::array<int, 2>>> own_of_rate;
    // Shared-node count over rates <= lg: the step-k message carries
    // count_upto[cap(k)] nodes; zero-length edges skip the send and the
    // drain entirely.
    std::vector<std::size_t> count_upto;
  };

  struct RankPart {
    // Communication-hiding split: an element/face/constraint is "boundary"
    // iff it can contribute to a shared-node partial — directly, or
    // through the hanging-node fold into a shared master. The boundary
    // pieces are computed before the exchange is posted; everything
    // interior runs while the messages are in flight. Elements and faces
    // are binned per compute class; every list keeps the setup order, so
    // per-rank partials stay bit-identical to an unsplit sweep.
    std::vector<std::vector<int>> bnd_elems, int_elems;  // into `elems`
    std::vector<std::vector<RankLocal::Face>> bnd_faces, int_faces;
    std::vector<int> cons_bnd, cons_int;  // indices into `cons`
    std::size_t n_boundary_elems = 0, n_interior_elems = 0;
    // Per-rate update lists: the local nodes as ascending [first, last)
    // runs (one run per rank under global dt, so the update streams), the
    // constraint groups whose nodes carry that rate (a group shares one
    // rate by the clustering fold), and the shared nodes to re-zero after
    // a post.
    std::vector<std::vector<std::array<std::size_t, 2>>> node_runs;
    std::vector<std::vector<int>> cons_of_rate, shared_of_rate;
    std::vector<Edge> edges;            // per neighbor
    std::vector<double> inv_lhs;        // per local dof, at the dof's rate
    std::vector<std::uint8_t> node_lg;  // per local node
  };
  std::vector<RankPart> ranks;

  // Highest active rate class at fine step k (k = 0 starts every class).
  [[nodiscard]] int cap(int k) const {
    return k == 0 ? n_classes - 1
                  : std::min(n_classes - 1,
                             std::countr_zero(static_cast<unsigned>(k)));
  }
};

// ForceSink that keeps only this rank's nodes, writing one lane of a
// scenario-major force vector (lane s of local dof d at index d * n_lanes +
// s; one lane is the solo layout).
class RankLaneForceSink final : public solver::ForceSink {
 public:
  RankLaneForceSink(const std::unordered_map<mesh::NodeId, int>& local_of,
                    std::vector<double>& f, std::size_t n_lanes,
                    std::size_t lane)
      : local_of_(&local_of), f_(&f), lanes_(n_lanes), lane_(lane) {}
  void add(mesh::NodeId node, int comp, double value) override {
    auto it = local_of_->find(node);
    if (it == local_of_->end()) return;
    (*f_)[(3 * static_cast<std::size_t>(it->second) +
           static_cast<std::size_t>(comp)) *
              lanes_ +
          lane_] += value;
  }

 private:
  const std::unordered_map<mesh::NodeId, int>* local_of_;
  std::vector<double>* f_;
  std::size_t lanes_, lane_;
};

// A receiver of one scenario, assigned to the rank owning its nearest node.
struct RecvRef {
  int lane;  // scenario index
  int ri;    // receiver index within the scenario
  int ln;    // local node on the owning rank
};

// Communicator tag reserved for the end-of-run telemetry gather (the ghost
// exchange uses tag 0 and state donation tag 10; receiving on a distinct
// tag keeps the streams from interleaving).
constexpr int kObsGatherTag = 9;

// One solve's state shared by its rank threads (a job of S lockstep
// scenarios), built by ParallelSetup::Impl::solve before the SPMD launch. A
// rank thread writes only its own slots: its registry, and its stats, owned
// receiver histories and owned u_final entries in `results`.
struct Job {
  Job(const Schedule& sched, std::span<const BatchScenario> scenarios,
      const RunControl& control, int n_steps)
      : sched(sched), scenarios(scenarios), control(control), n_steps(n_steps) {}

  const Schedule& sched;
  std::span<const BatchScenario> scenarios;
  const RunControl& control;
  const int n_steps;
  std::vector<ParallelResult> results;
  std::vector<std::vector<RecvRef>> recv_of;  // receivers per owning rank
  // The initial state u0, a0 (empty without initial conditions) and the
  // snapshot gather buffers (empty without the snapshot hook).
  std::vector<double> ic_u, ic_a, snap_u, snap_v;
  Recovery::Policy ft;
  std::chrono::steady_clock::time_point start;  // the deadline's origin
  std::vector<obs::Registry> rank_regs;
  int agreed_stop = 0;  // written by rank 0, read after join
};

}  // namespace

// ---------------------------------------------------------------------------
// ParallelSetup: the amortizable half of run_parallel. The constructor is
// the serial setup phase (operator, ghost sets with constraint closure,
// neighbor lists, the global-dt schedule); solve() is the SPMD execution
// phase with all per-scenario state in solve-local variables. run,
// run_batch and run_lts are thin wrappers that pick the schedule and the
// lane count.
// ---------------------------------------------------------------------------

struct ParallelSetup::Impl {
  const mesh::HexMesh& mesh;
  const Partition& part;
  const solver::OperatorOptions op_opt;
  const solver::ElasticOperator op;
  const int R;
  const bool rayleigh;
  const double dt;
  const double cfl;
  const std::array<bool, 3> fixed;  // SolverOptions::fixed_components
  std::vector<RankLocal> locals;
  Schedule global;  // the one-class (global dt) schedule
  Communicator comm;
  std::mutex run_mutex;  // exchange buffers are shared: one solve at a time

  // Lazily-built LTS schedule, cached across run_lts calls with the same
  // max_rate. Guarded by run_mutex.
  std::unique_ptr<Schedule> lts_sched;
  int lts_sched_max_rate = 0;

  Impl(const mesh::HexMesh& mesh_in, const Partition& part_in,
       const solver::OperatorOptions& oo, const solver::SolverOptions& base)
      : mesh(mesh_in),
        part(part_in),
        op_opt(oo),
        op(mesh_in, oo),
        R(part_in.n_ranks),
        rayleigh(oo.rayleigh),
        dt(base.dt > 0.0 ? base.dt : op.stable_dt(base.cfl_fraction)),
        cfl(base.cfl_fraction),
        fixed(base.fixed_components),
        comm(part_in.n_ranks) {
    if (!(dt > 0.0 && std::isfinite(dt))) {
      throw std::invalid_argument(
          "ParallelSetup: time step " + std::to_string(dt) +
          " is not positive and finite (check dt and cfl_fraction)");
    }
    // ---- per-rank node sets with constraint closure ------------------------
    std::vector<std::vector<std::uint8_t>> has_node(
        static_cast<std::size_t>(R),
        std::vector<std::uint8_t>(mesh.n_nodes(), 0));
    for (std::size_t e = 0; e < mesh.n_elements(); ++e) {
      auto& flags = has_node[static_cast<std::size_t>(part.elem_rank[e])];
      for (mesh::NodeId n : mesh.elem_nodes[e]) {
        flags[static_cast<std::size_t>(n)] = 1;
      }
    }
    // Ghost the masters of every locally-touched hanging node. Constraint
    // accumulation (B^T) is linear, so each rank applies it to its own partial
    // sums BEFORE the exchange; a rank that holds a master but not the hanging
    // node receives the folded contribution through the master's exchanged
    // partials, and no transitive closure is needed (keeping ghost sets — and
    // hence communication volume — proportional to the partition surface).
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      auto& flags = has_node[r];
      for (const mesh::Constraint& c : mesh.constraints) {
        if (flags[static_cast<std::size_t>(c.node)] == 0) continue;
        for (int m = 0; m < c.n_masters; ++m) {
          flags[static_cast<std::size_t>(
              c.masters[static_cast<std::size_t>(m)])] = 1;
        }
      }
    }

    locals.resize(static_cast<std::size_t>(R));
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      RankLocal& L = locals[r];
      L.elems = part.rank_elems[r];
      for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
        if (has_node[r][n] != 0) {
          L.local_of.emplace(static_cast<mesh::NodeId>(n),
                             static_cast<int>(L.nodes.size()));
          L.nodes.push_back(static_cast<mesh::NodeId>(n));
        }
      }
      L.conn.reserve(L.elems.size());
      for (mesh::ElemId e : L.elems) {
        std::array<int, 8> c;
        for (int i = 0; i < 8; ++i) {
          c[static_cast<std::size_t>(i)] = L.local_of.at(
              mesh.elem_nodes[static_cast<std::size_t>(e)]
                             [static_cast<std::size_t>(i)]);
        }
        L.conn.push_back(c);
      }
      for (const mesh::BoundaryFace& bf : mesh.boundary_faces) {
        if (part.elem_rank[static_cast<std::size_t>(bf.elem)] !=
            static_cast<int>(r)) {
          continue;
        }
        const auto it =
            std::lower_bound(L.elems.begin(), L.elems.end(), bf.elem);
        L.faces.push_back({static_cast<int>(it - L.elems.begin()), bf.side});
      }
      for (const mesh::Constraint& c : mesh.constraints) {
        auto it = L.local_of.find(c.node);
        if (it == L.local_of.end()) continue;
        LocalConstraint lc;
        lc.node = it->second;
        lc.n = c.n_masters;
        for (int m = 0; m < c.n_masters; ++m) {
          lc.masters[static_cast<std::size_t>(m)] =
              L.local_of.at(c.masters[static_cast<std::size_t>(m)]);
          lc.weights[static_cast<std::size_t>(m)] =
              c.weights[static_cast<std::size_t>(m)];
        }
        L.cons.push_back(lc);
      }
      const std::size_t nl = L.nodes.size();
      L.mass.resize(3 * nl);
      L.am.resize(3 * nl);
      L.bk.resize(3 * nl);
      L.cab.resize(3 * nl);
      L.owned.resize(nl);
      for (std::size_t i = 0; i < nl; ++i) {
        const std::size_t g = static_cast<std::size_t>(L.nodes[i]);
        L.owned[i] = part.node_owner[g] == static_cast<int>(r) ? 1 : 0;
        for (int c = 0; c < 3; ++c) {
          const std::size_t ld = 3 * i + static_cast<std::size_t>(c);
          const std::size_t gd = 3 * g + static_cast<std::size_t>(c);
          L.mass[ld] = op.lumped_mass()[gd];
          L.am[ld] = op.alpha_mass()[gd];
          L.bk[ld] = op.beta_k_diag()[gd];
          L.cab[ld] = op.cab_diag()[gd];
        }
      }
    }

    // Sharing lists -> pairwise neighbor structures, ordered by global id.
    for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
      int count = 0;
      for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
        count += has_node[r][n];
      }
      if (count < 2) continue;
      for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
        if (has_node[r][n] == 0) continue;
        RankLocal& L = locals[r];
        const int li = L.local_of.at(static_cast<mesh::NodeId>(n));
        L.all_shared.push_back(li);
        for (std::size_t s = 0; s < static_cast<std::size_t>(R); ++s) {
          if (s == r || has_node[s][n] == 0) continue;
          // Find or create the neighbor entry (neighbors kept ascending).
          auto it = std::find_if(L.neighbors.begin(), L.neighbors.end(),
                                 [&](const Neighbor& nb) {
                                   return nb.rank == static_cast<int>(s);
                                 });
          if (it == L.neighbors.end()) {
            L.neighbors.push_back({static_cast<int>(s), {}});
            it = L.neighbors.end() - 1;
          }
          it->shared.push_back(li);
        }
      }
    }
    for (auto& L : locals) {
      std::sort(
          L.neighbors.begin(), L.neighbors.end(),
          [](const Neighbor& a, const Neighbor& b) { return a.rank < b.rank; });
      L.sendbuf.resize(L.neighbors.size());
      L.recvbuf.resize(L.neighbors.size());
      L.nb_arrived.resize(L.neighbors.size());
      L.nb_of_rank.assign(static_cast<std::size_t>(R), -1);
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        L.nb_of_rank[static_cast<std::size_t>(L.neighbors[nb].rank)] =
            static_cast<int>(nb);
      }
    }
    global = build_schedule(nullptr);
  }

  // Steps a run of duration t_end takes; throws invalid_argument for a
  // t_end that is not positive and finite or needs more than INT_MAX steps.
  [[nodiscard]] int steps_for(double t_end) const {
    const double steps = std::ceil(t_end / dt);
    if (!(t_end > 0.0) || !std::isfinite(t_end) ||
        !(steps <= std::numeric_limits<int>::max())) {
      throw std::invalid_argument("ParallelSetup: t_end " +
                                  std::to_string(t_end) +
                                  " is not a positive, finite duration "
                                  "within INT_MAX steps of dt");
    }
    return static_cast<int>(steps);
  }

  // The rate schedule for a clustering (nullptr: one class, global dt).
  [[nodiscard]] Schedule build_schedule(const lts::Clustering* cl) const;
  const Schedule& lts_schedule(int max_rate);

  // One rank's run of a solve (see its definition).
  template <class Lanes>
  class RankRun;
  // The one step loop: the scenarios advance in lockstep on `sched`, one
  // lane each, with fault tolerance `ft` (only run() passes any) and the
  // per-run control's stop and hooks. Caller holds run_mutex.
  std::vector<ParallelResult> solve(const Schedule& sched, double t_end,
                                    std::span<const BatchScenario> scenarios,
                                    const FaultToleranceOptions& ft,
                                    const RunControl& control);
};

Schedule ParallelSetup::Impl::build_schedule(const lts::Clustering* cl) const {
  Schedule sc;
  sc.n_classes = cl != nullptr ? cl->n_classes : 1;
  const std::size_t nc = static_cast<std::size_t>(sc.n_classes);
  for (int lg = 0; lg < sc.n_classes; ++lg) {
    const double dtn = std::ldexp(dt, lg);
    sc.dt2.push_back(dtn * dtn);
    sc.hdt.push_back(0.5 * dtn);
  }

  sc.ranks.resize(static_cast<std::size_t>(R));
  for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
    const RankLocal& L = locals[r];
    Schedule::RankPart& rp = sc.ranks[r];
    const std::size_t nl = L.nodes.size();
    rp.node_lg.assign(nl, 0);
    if (cl != nullptr) {
      for (std::size_t i = 0; i < nl; ++i) {
        rp.node_lg[i] =
            cl->node_rate_log2[static_cast<std::size_t>(L.nodes[i])];
      }
    }
    const auto elem_class = [&](std::size_t le) -> std::size_t {
      return cl != nullptr ? cl->elem_class_log2[static_cast<std::size_t>(
                                 L.elems[le])]
                           : 0u;
    };

    // A node can contribute to a shared-node partial iff it is shared
    // itself, or it is a hanging node with a contributing master (masters
    // are never hanging — constraint chains are resolved at mesh build —
    // so one pass suffices).
    std::vector<std::uint8_t> affects(nl, 0);
    for (int li : L.all_shared) affects[static_cast<std::size_t>(li)] = 1;
    for (const LocalConstraint& c : L.cons) {
      if (affects[static_cast<std::size_t>(c.node)] != 0) continue;
      for (int m = 0; m < c.n; ++m) {
        if (affects[static_cast<std::size_t>(
                c.masters[static_cast<std::size_t>(m)])] != 0) {
          affects[static_cast<std::size_t>(c.node)] = 1;
          break;
        }
      }
    }
    rp.bnd_elems.resize(nc);
    rp.int_elems.resize(nc);
    rp.bnd_faces.resize(nc);
    rp.int_faces.resize(nc);
    std::vector<std::uint8_t> elem_boundary(L.elems.size(), 0);
    for (std::size_t le = 0; le < L.elems.size(); ++le) {
      for (int i = 0; i < 8; ++i) {
        if (affects[static_cast<std::size_t>(
                L.conn[le][static_cast<std::size_t>(i)])] != 0) {
          elem_boundary[le] = 1;
          break;
        }
      }
      (elem_boundary[le] != 0 ? rp.bnd_elems : rp.int_elems)[elem_class(le)]
          .push_back(static_cast<int>(le));
      ++(elem_boundary[le] != 0 ? rp.n_boundary_elems : rp.n_interior_elems);
    }
    for (const RankLocal::Face& face : L.faces) {
      const auto le = static_cast<std::size_t>(face.elem);
      (elem_boundary[le] != 0 ? rp.bnd_faces : rp.int_faces)[elem_class(le)]
          .push_back(face);
    }

    rp.node_runs.resize(nc);
    rp.cons_of_rate.resize(nc);
    rp.shared_of_rate.resize(nc);
    for (std::size_t i = 0; i < nl; ++i) {
      auto& runs = rp.node_runs[rp.node_lg[i]];
      if (!runs.empty() && runs.back()[1] == i) {
        ++runs.back()[1];
      } else {
        runs.push_back({i, i + 1});
      }
    }
    for (std::size_t ci = 0; ci < L.cons.size(); ++ci) {
      const auto node = static_cast<std::size_t>(L.cons[ci].node);
      (affects[node] != 0 ? rp.cons_bnd : rp.cons_int)
          .push_back(static_cast<int>(ci));
      rp.cons_of_rate[rp.node_lg[node]].push_back(static_cast<int>(ci));
    }
    for (const int li : L.all_shared) {
      rp.shared_of_rate[rp.node_lg[static_cast<std::size_t>(li)]].push_back(li);
    }

    rp.inv_lhs.resize(3 * nl);
    for (std::size_t i = 0; i < nl; ++i) {
      const double dtn = std::ldexp(dt, rp.node_lg[i]);
      for (int c = 0; c < 3; ++c) {
        const std::size_t d = 3 * i + static_cast<std::size_t>(c);
        const double lhs =
            L.mass[d] + 0.5 * dtn * (L.am[d] + L.bk[d] + L.cab[d]);
        rp.inv_lhs[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;
      }
    }

    rp.edges.resize(L.neighbors.size());
    std::vector<std::uint8_t> seen(nl, 0);
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      const auto& sh = L.neighbors[nb].shared;
      Schedule::Edge& ed = rp.edges[nb];
      ed.sh_of_rate.resize(nc);
      ed.own_of_rate.resize(nc);
      ed.count_upto.assign(nc, 0);
      for (std::size_t i = 0; i < sh.size(); ++i) {
        ed.sh_of_rate[rp.node_lg[static_cast<std::size_t>(sh[i])]].push_back(
            static_cast<int>(i));
      }
      // Concat slot of each position, rate-major — fixed across steps
      // because active rates always form the prefix lg <= cap(k).
      std::vector<int> slot_of(sh.size(), 0);
      int slot = 0;
      for (std::size_t lg = 0; lg < nc; ++lg) {
        for (const int i : ed.sh_of_rate[lg]) {
          slot_of[static_cast<std::size_t>(i)] = slot++;
        }
        ed.count_upto[lg] = static_cast<std::size_t>(slot);
      }
      for (std::size_t i = 0; i < sh.size(); ++i) {
        const auto li = static_cast<std::size_t>(sh[i]);
        if (seen[li] != 0) continue;
        seen[li] = 1;
        ed.own_of_rate[rp.node_lg[li]].push_back(
            {static_cast<int>(i), slot_of[i]});
      }
    }
  }
  return sc;
}

const Schedule& ParallelSetup::Impl::lts_schedule(int max_rate) {
  if (lts_sched == nullptr || lts_sched_max_rate != max_rate) {
    const lts::Clustering cl = lts::cluster_elements(mesh, dt, cfl, max_rate);
    lts_sched = std::make_unique<Schedule>(build_schedule(&cl));
    lts_sched_max_rate = max_rate;
  }
  return *lts_sched;
}

// The one SPMD step loop. Its two parameters are where the modes' bitwise
// anchors come from:
//  * Lanes. Lane s of every scenario-major array takes exactly the
//    floating-point operation sequence one lane would (the element kernel
//    runs the solo kernel per lane, the other lane loops are innermost and
//    the drain keeps its ascending-rank order), so a batch of S equals S
//    solo runs bit for bit.
//  * Schedule. With one class every list is whole and in setup order, the
//    kernels read u itself and every bracket read takes u directly, so
//    single-class LTS equals global dt bit for bit; several classes take
//    the LTS scheme of quake::lts (state convention, interpolation
//    bracket, scheduling invariant — see docs/LTS.md).
//
// One rank's part of a solve is a RankRun: the per-rank state the step loop
// advances lives in its members, and the loop's phases are its methods. It
// is generic over the lane count: Lanes is std::integral_constant<
// std::size_t, 1> for one lane (the solo layout, where S stays a
// compile-time constant and every lane loop folds away) or std::size_t for
// a batch — one source loop either way.
template <class Lanes>
class ParallelSetup::Impl::RankRun {
 public:
  RankRun(Impl& im, Job& job, Rank& rank, Lanes lanes)
      : im(im), job(job), rank(rank), S(lanes) {}
  // The recovery protocol holds references to the state members.
  RankRun(const RankRun&) = delete;
  RankRun& operator=(const RankRun&) = delete;

  // ---- epoch loop: solve; on a rank failure (in-place recovery armed)
  // park until the communicator is repaired, then roll back and replay.
  // Survivors keep their partition, ghost plans, and exchange buffers —
  // nothing above this loop is re-run on a recovery. ----
  void run() {
    obs::counter_add("ft/attempts", 1);
    if (rank.revived()) obs::counter_add("par/ranks_revived", 1);
    obs::gauge_set("par/epoch", static_cast<double>(rank.epoch()));
    obs::gauge_set("par/dt", im.dt);
    obs::gauge_set("par/batch_width", static_cast<double>(S));
    obs::gauge_set("par/lts_n_classes", static_cast<double>(sched.n_classes));
    // Seed the comm counters so every rank's registry (and hence every
    // merged report row, including 1-rank runs) carries them explicitly.
    obs::counter_add("comm/msgs_sent", 0);
    obs::counter_add("comm/bytes_sent", 0);
    if (!job.ic_u.empty()) initial_conditions();
    int last_fail_step = -1;  // k_progress at the most recent local failure
    bool recovering = rank.revived();  // respawned ranks join mid-recovery
    for (;;) {
      try {
        const int k0 = recovering ? rec.recover(k_done) : rec.start();
        if (recovering && last_fail_step >= 0) {
          // Zero on the tier-1 replay path by construction: a survivor
          // resumes at k_done + 1, exactly where it stopped.
          obs::counter_add("par/steps_rolled_back",
                           std::max(0, last_fail_step - k0));
        }
        recovering = false;
        k_done = k0 - 1;
        k_progress = k0;
        const int stop_k = step_loop(k0);
        finish(stop_k);
        // The cancel agreement guarantees every rank stops at the same
        // step; rank 0 records it (threads are joined before solve()
        // reads it).
        if (rank.id() == 0) job.agreed_stop = stop_k;
        return;
      } catch (const RankFailedError&) {
        // A peer died. With in-place recovery armed, park this thread —
        // state intact — until comm.run()'s monitor revives the dead rank,
        // then take another lap through the restore agreement. Otherwise
        // (or when recovery is abandoned) rethrow into the full-restart
        // supervisor.
        if (!job.ft.in_place) throw;
        last_fail_step = k_progress;
        if (!rank.await_recovery()) throw;
        obs::counter_add("par/recoveries", 1);
        recovering = true;
      }
    }
  }

 private:
  // Runs the steps [k0, n_steps); returns the first step NOT taken —
  // n_steps on a full run, or the collectively-agreed stop step when the
  // run's RunControl cancelled it (all ranks return the same value).
  int step_loop(int k0) {
    for (int k = k0; k < job.n_steps; ++k) {
      QUAKE_OBS_SCOPE("step");
      k_progress = k;
      if (stop_agreed(k)) return k;
      step(k);
    }
    return job.n_steps;
  }

  // One step, phase by phase: boundary compute, post, interior compute
  // (overlapping the messages in flight), drain, update and receivers, then
  // the snapshot hook and the checkpoint cut.
  void step(int k) {
    rank.fault_point(k);
    const int cap = sched.cap(k);
    compute_boundary(k, cap);
    post(k, cap);
    compute_interior(k, cap);
    drain(k, cap);
    update(k, cap);
    // State and histories now fully describe step k: this is the resume
    // point a survivor advertises in recovery agreement (k_done + 1).
    k_done = k;
    if (job.control.snapshot && (k + 1) % job.control.snapshot_every == 0) {
      snapshot(k);
    }
    rec.checkpoint(k);
  }

  // ---- cancellation/deadline agreement (service workloads): each rank
  // evaluates its local stop condition and the max-reduction makes the
  // decision collective, so every rank leaves at the same step. The
  // agreement is suppressed below the replay frontier: during tier-1
  // catch-up ranks execute different step ranges, and the anonymous
  // count-based collective must only be issued at steps all of them reach
  // (frontier == k0 on an undisturbed run, so nothing changes there) ----
  bool stop_agreed(int k) {
    const RunControl& control = job.control;
    if (!control.active() || !rec.may_collect(k) ||
        k % std::max(1, control.check_every) != 0) {
      return false;
    }
    double want_stop = 0.0;
    if (control.cancel != nullptr &&
        control.cancel->load(std::memory_order_relaxed)) {
      want_stop = 1.0;
    }
    if (control.deadline_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.start)
                .count() >= control.deadline_seconds) {
      want_stop = 1.0;
    }
    if (rank.allreduce_max(want_stop) > 0.0) {
      obs::counter_add("par/steps_cancelled", job.n_steps - k);
      return true;
    }
    return false;
  }

  void compute_boundary(int k, int cap) {
    QUAKE_OBS_SCOPE("compute");  // time-k field + boundary classes
    compute_watch.start();
    if (multi_rate) {
      for (std::size_t i = 0; i < L.nodes.size(); ++i) {
        node_at(i, k, un.data() + at(i));
      }
    }
    std::fill(ku.begin(), ku.end(), 0.0);
    if (rayleigh) std::fill(dku.begin(), dku.end(), 0.0);
    for (int c = 0; c <= cap; ++c) {
      apply_elems(rp.bnd_elems[static_cast<std::size_t>(c)]);
      apply_faces(rp.bnd_faces[static_cast<std::size_t>(c)]);
    }
    // Fold the hanging-node partials that reach shared masters BEFORE the
    // exchange (B^T is linear, so projecting partials and summing
    // commutes with summing and projecting) — this keeps ghost sets
    // surface-sized. Every element feeding these folds is a boundary
    // element, so the posted partials are complete. The fold is whole,
    // active or not: an inactive constraint group shares one (inactive)
    // cadence, so its garbage partials land only on inactive masters —
    // never sent (compacted out of the message) and never read (the
    // update skips them). Active groups fold complete partials by the
    // scheduling invariant.
    fold_list(rp.cons_bnd);
    compute_watch.stop();
  }

  // ---- post: coalesced per-neighbor messages go out before any interior
  // work, so they are in flight during it. A message carries the
  // active-rate shared nodes, rate-major, all S lanes each (ku, then dku
  // with Rayleigh damping); a coarse-only edge goes quiet between its
  // updates (zero-length messages are skipped on both sides) ----
  void post(int k, int cap) {
    QUAKE_OBS_SCOPE("exchange");
    exchange_watch.start();
    {
      QUAKE_OBS_SCOPE("post");
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        const std::size_t len = msg_len(nb, cap);
        if (len == 0) continue;
        const Schedule::Edge& ed = rp.edges[nb];
        auto& buf = L.sendbuf[nb];
        const auto& sh = L.neighbors[nb].shared;
        const std::size_t half = len / pack;  // start of the dku section
        std::size_t o = 0;
        for (int lg = 0; lg <= cap; ++lg) {
          for (const int i : ed.sh_of_rate[static_cast<std::size_t>(lg)]) {
            const std::size_t base = at(sh[static_cast<std::size_t>(i)]);
            for (std::size_t t = 0; t < 3 * S; ++t) buf[o + t] = ku[base + t];
            if (rayleigh) {
              for (std::size_t t = 0; t < 3 * S; ++t) {
                buf[half + o + t] = dku[base + t];
              }
            }
            o += 3 * S;
          }
        }
        const std::span<const double> msg(buf.data(), len);
        // Post only to neighbors that have not already consumed this step;
        // log unconditionally so a later recovery can re-serve any span.
        if (rec.may_post(L.neighbors[nb].rank, k)) {
          rank.send(L.neighbors[nb].rank, /*tag=*/0, msg);
        }
        rec.log_post(nb, k, msg);
      }
      // Zero the active shared entries now; interior work never touches
      // them, and the drain re-accumulates in ascending rank order (sendbuf
      // still holds this rank's own partials). Stale-rate entries keep
      // their garbage, which the next full ku zero clears before anyone
      // could read it.
      for (int lg = 0; lg <= cap; ++lg) {
        for (const int li : rp.shared_of_rate[static_cast<std::size_t>(lg)]) {
          const std::size_t base = at(li);
          for (std::size_t t = 0; t < 3 * S; ++t) ku[base + t] = 0.0;
          if (rayleigh) {
            for (std::size_t t = 0; t < 3 * S; ++t) dku[base + t] = 0.0;
          }
        }
      }
    }
    exchange_watch.stop();
  }

  // ---- overlap window: sources, interior elements, interior ABC faces,
  // and interior hanging-node folds, all while the per-neighbor messages
  // are in flight ----
  void compute_interior(int k, int cap) {
    QUAKE_OBS_SCOPE("compute");
    compute_watch.start();
    overlap_watch.start();
    std::fill(f.begin(), f.end(), 0.0);
    for (std::size_t s = 0; s < S; ++s) {
      RankLaneForceSink sink(L.local_of, f, S, s);
      for (const solver::SourceModel* src : job.scenarios[s].sources) {
        src->add_forces(k * im.dt, sink);
      }
    }
    for (const LocalConstraint& c : L.cons) fold(f, c);
    for (int c = 0; c <= cap; ++c) {
      apply_elems(rp.int_elems[static_cast<std::size_t>(c)]);
      apply_faces(rp.int_faces[static_cast<std::size_t>(c)]);
    }
    fold_list(rp.cons_int);
    overlap_watch.stop();
    compute_watch.stop();
  }

  // ---- drain: park each neighbor's payload as it arrives (any order),
  // then accumulate in ascending rank order once every edge has landed, so
  // every copy of a shared node computes the identical floating-point sum
  // no matter which neighbor was slow; the own partial (recovered from the
  // send buffers) is inserted at this rank's position in the order ----
  void drain(int k, int cap) {
    QUAKE_OBS_SCOPE("exchange");
    exchange_watch.start();
    drain_watch.start();
    {
      QUAKE_OBS_SCOPE("drain");
      rank.fault_point(-k - 1);  // mid-exchange fault point (see FaultPlan)
      wait_all(cap);
      for (int s = 0; s < im.R; ++s) {
        if (s == rank.id()) {
          // Own partials: once per node, at its first occurrence across
          // the neighbor lists (precomputed in the schedule).
          for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
            const auto& sh = L.neighbors[nb].shared;
            const std::size_t half = msg_len(nb, cap) / pack;
            for (int lg = 0; lg <= cap; ++lg) {
              for (const auto& [i, slot] :
                   rp.edges[nb].own_of_rate[static_cast<std::size_t>(lg)]) {
                add_node(sh[static_cast<std::size_t>(i)], L.sendbuf[nb],
                         at(slot), half);
              }
            }
          }
          continue;
        }
        const int nbi = L.nb_of_rank[static_cast<std::size_t>(s)];
        if (nbi < 0) continue;
        const auto nb = static_cast<std::size_t>(nbi);
        const auto& sh = L.neighbors[nb].shared;
        const Schedule::Edge& ed = rp.edges[nb];
        const std::size_t half = msg_len(nb, cap) / pack;
        std::size_t o = 0;
        for (int lg = 0; lg <= cap; ++lg) {
          for (const int i : ed.sh_of_rate[static_cast<std::size_t>(lg)]) {
            add_node(sh[static_cast<std::size_t>(i)], L.recvbuf[nb], o, half);
            o += 3 * S;
          }
        }
      }
    }
    drain_watch.stop();
    exchange_watch.stop();
  }

  // Wait phase of the drain: poll every pending edge and park whatever is
  // already there. A fruitless pass yields and re-polls — blocking right
  // away would commit to the lowest pending neighbor and re-serialize the
  // drain on rank order whenever the scheduler simply hadn't run the
  // senders yet. Only after kIdlePassLimit fruitless passes does the drain
  // fall back to a blocking receive: that wait is then genuinely
  // unavoidable, and the blocking receive is what registers this rank in
  // the deadlock detector (diagnosing a stuck exchange, and letting a
  // planned kDelay message flush instead of spinning forever).
  void wait_all(int cap) {
    QUAKE_OBS_SCOPE("wait");
    constexpr int kIdlePassLimit = 64;
    std::size_t n_pending = 0;
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      // Quiet edges (no active shared nodes) are pre-marked arrived.
      const bool quiet = msg_len(nb, cap) == 0;
      L.nb_arrived[nb] = quiet ? 1 : 0;
      n_pending += quiet ? 0 : 1;
    }
    int idle_passes = 0;
    while (n_pending > 0) {
      std::size_t progressed = 0;
      std::size_t first_pending = L.neighbors.size();
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        if (L.nb_arrived[nb] != 0) continue;
        if (rank.try_recv_into(L.neighbors[nb].rank, /*tag=*/0,
                               inbox(nb, cap))) {
          L.nb_arrived[nb] = 1;
          --n_pending;
          ++progressed;
        } else if (first_pending == L.neighbors.size()) {
          first_pending = nb;
        }
      }
      if (n_pending == 0 || progressed > 0) {
        idle_passes = 0;
      } else if (++idle_passes < kIdlePassLimit) {
        // Idle pass: absorb any in-flight buddy donation instead of pure
        // spinning, so the async stream never backs up behind a slow
        // neighbor.
        rec.absorb();
        std::this_thread::yield();
      } else {
        rank.recv_into(L.neighbors[first_pending].rank, /*tag=*/0,
                       inbox(first_pending, cap));
        L.nb_arrived[first_pending] = 1;
        --n_pending;
        idle_passes = 0;
      }
    }
  }

  std::span<double> inbox(std::size_t nb, int cap) {
    return {L.recvbuf[nb].data(), msg_len(nb, cap)};
  }

  // Adds 3 * S doubles of a message at `pos` (and the matching dku section)
  // onto local node li.
  void add_node(int li, const std::vector<double>& msg, std::size_t pos,
                std::size_t half) {
    const std::size_t base = at(li);
    for (std::size_t t = 0; t < 3 * S; ++t) ku[base + t] += msg[pos + t];
    if (rayleigh) {
      for (std::size_t t = 0; t < 3 * S; ++t) {
        dku[base + t] += msg[half + pos + t];
      }
    }
  }

  void update(int k, int cap) {
    QUAKE_OBS_SCOPE("compute");  // diagonalized lumped update (eq. 2.4)
    compute_watch.start();
    // Active rates in place (u_prev <- u, u <- new), lane loop innermost.
    for (int lg = 0; lg <= cap; ++lg) {
      const double dt2 = sched.dt2[static_cast<std::size_t>(lg)];
      const double hdt = sched.hdt[static_cast<std::size_t>(lg)];
      std::size_t n_updated = 0;
      for (const auto& [first, last] :
           rp.node_runs[static_cast<std::size_t>(lg)]) {
        n_updated += last - first;
        for (std::size_t d = 3 * first; d < 3 * last; ++d) {
          const std::size_t b = d * S;
          for (std::size_t s = 0; s < S; ++s) {
            double rhs = 2.0 * L.mass[d] * u[b + s] - dt2 * ku[b + s] +
                         dt2 * f[b + s] +
                         (hdt * L.am[d] - L.mass[d]) * u_prev[b + s] +
                         hdt * L.cab[d] * u_prev[b + s];
            if (rayleigh) {
              rhs -= hdt * (dku[b + s] - L.bk[d] * u[b + s]);
              rhs += hdt * dku_prev[b + s];
            }
            u_prev[b + s] = u[b + s];
            u[b + s] = rhs * rp.inv_lhs[d];
          }
        }
      }
      // Update arithmetic per dof (counted off the expression above): 14
      // flops for the undamped eq. 2.4 rhs + divide-by-lhs, 6 more on the
      // Rayleigh branch.
      flops += S * 3 * n_updated * (rayleigh ? 20ull : 14ull);
      // Per-rate hanging-node expansion: the group shares this cadence, so
      // its masters hold fresh u exactly when the group expands.
      for (const int ci : rp.cons_of_rate[static_cast<std::size_t>(lg)]) {
        expand(u, L.cons[static_cast<std::size_t>(ci)]);
      }
      // Component mask: zero this rate's masked components right after its
      // expansion, hanging nodes included.
      if (im.fixed[0] || im.fixed[1] || im.fixed[2]) {
        for (const auto& [first, last] :
             rp.node_runs[static_cast<std::size_t>(lg)]) {
          for (std::size_t i = first; i < last; ++i) {
            for (std::size_t c = 0; c < 3; ++c) {
              if (!im.fixed[c]) continue;
              for (std::size_t s = 0; s < S; ++s) {
                u[at(i, c) + s] = 0.0;
              }
            }
          }
        }
      }
    }
    if (rayleigh) std::swap(dku_prev, dku);

    // Receivers read the time-(k+1) field through the same bracket (direct
    // u for rate-1 nodes).
    for (const RecvRef& rv : RV) {
      double v[3 * fem::kMaxBatchLanes];
      node_at(static_cast<std::size_t>(rv.ln), k + 1, v);
      const auto s = static_cast<std::size_t>(rv.lane);
      history(rv).push_back({v[s], v[S + s], v[2 * S + s]});
    }
    compute_watch.stop();
  }

  // ---- snapshot hook (one lane, global dt, no fault tolerance): gather
  // the owned nodes' u and (u - u_prev) / dt in global order — local order
  // differs when orphan nodes exist — and let rank 0 call the hook while
  // every rank waits ----
  void snapshot(int k) {
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      for (std::size_t c = 0; c < 3; ++c) {
        job.snap_u[g + c] = u[3 * i + c];
        job.snap_v[g + c] = (u[3 * i + c] - u_prev[3 * i + c]) / im.dt;
      }
    }
    rank.barrier();
    if (rank.id() == 0) {
      job.control.snapshot(k + 1, (k + 1) * im.dt, job.snap_u, job.snap_v);
    }
    rank.barrier();
  }

  void finish(int stop_k) {
    // Gather: each rank writes its owned nodes (owners are unique), every
    // node's bracket evaluated at the stop step.
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      double v[3 * fem::kMaxBatchLanes] = {};
      node_at(i, stop_k, v);
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t c = 0; c < 3; ++c) {
          job.results[s].u_final[g + c] = v[c * S + s];
        }
      }
    }

    // Fraction of the exchange hidden behind interior compute: of the time
    // the messages spend "in flight" plus the time spent waiting for them,
    // how much was spent computing. 0 when there is nothing to overlap.
    const double overlap_s = overlap_watch.total_seconds();
    const double drain_s = drain_watch.total_seconds();
    const double overlap_fraction =
        (L.neighbors.empty() || overlap_s + drain_s <= 0.0)
            ? 0.0
            : overlap_s / (overlap_s + drain_s);

    // Mean exchange volume over the steps taken, from the schedule: the
    // setup volume times S under global dt, less under LTS where quiet
    // rates drop out of most messages.
    const int steps_taken = std::max(1, stop_k);
    std::size_t doubles_sent = 0;
    for (int k = 0; k < steps_taken; ++k) {
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        doubles_sent += msg_len(nb, sched.cap(k));
      }
    }

    // Every lane shares the one execution, so each result carries the same
    // per-rank stats.
    ParallelResult::RankStats st;
    st.n_elems = L.elems.size();
    st.n_boundary_elems = rp.n_boundary_elems;
    st.n_interior_elems = rp.n_interior_elems;
    st.n_local_nodes = L.nodes.size();
    st.n_neighbors = L.neighbors.size();
    st.doubles_sent_per_step =
        doubles_sent / static_cast<std::size_t>(steps_taken);
    st.flops = flops;
    st.element_updates = elem_updates;
    st.compute_seconds = compute_watch.total_seconds();
    st.exchange_seconds = exchange_watch.total_seconds();
    st.overlap_fraction = overlap_fraction;
    for (auto& res : job.results) res.rank_stats[r] = st;

    // Partition-shape gauges; their across-rank min/mean/max in the merged
    // report is the load-imbalance view of Table 2.1.
    obs::gauge_set("par/n_elems", static_cast<double>(L.elems.size()));
    obs::gauge_set("par/n_boundary_elems",
                   static_cast<double>(st.n_boundary_elems));
    obs::gauge_set("par/n_interior_elems",
                   static_cast<double>(st.n_interior_elems));
    obs::gauge_set("par/n_local_nodes", static_cast<double>(L.nodes.size()));
    obs::gauge_set("par/n_neighbors", static_cast<double>(L.neighbors.size()));
    obs::gauge_set("par/doubles_sent_per_step",
                   static_cast<double>(st.doubles_sent_per_step));
    // Global-dt element updates over the ones actually performed, all
    // lanes counted.
    const std::uint64_t global_updates =
        static_cast<std::uint64_t>(std::max(0, stop_k)) * S * L.elems.size();
    obs::gauge_set("par/lts_updates_saved_ratio",
                   elem_updates > 0 ? static_cast<double>(global_updates) /
                                          static_cast<double>(elem_updates)
                                    : 1.0);
    obs::gauge_set("par/compute_seconds", compute_watch.total_seconds());
    obs::gauge_set("par/exchange_seconds", exchange_watch.total_seconds());
    obs::gauge_set("par/overlap_fraction", overlap_fraction);
    rec.report_log();

    // ---- telemetry gather: ship every registry to rank 0 and merge into
    // the first lane's result (the solve ran once; duplicating reports per
    // lane would double-count). Registries are snapshotted/encoded BEFORE
    // the gather messages move, so the reports describe the solve, not the
    // gather itself ----
    if (obs::enabled()) {
      if (rank.id() == 0) {
        std::vector<obs::RankReport> reports;
        reports.reserve(static_cast<std::size_t>(im.R));
        reports.push_back(obs::RankReport{0, job.rank_regs[0]});
        for (int s = 1; s < im.R; ++s) {
          reports.push_back(obs::decode_report(rank.recv(s, kObsGatherTag)));
        }
        job.results[0].obs_summary = obs::merge_reports(reports);
        job.results[0].obs_reports = std::move(reports);
      } else {
        rank.send(0, kObsGatherTag,
                  obs::encode_report(obs::RankReport{rank.id(),
                                                     job.rank_regs[r]}));
      }
    }
  }

  // ---- initial conditions (see RunControl): open every local node's
  // bracket at its own step dt_n from the shared u0 / a0, then expand the
  // local constraints. A restore overwrites this; a full restart re-enters
  // the rank body and so starts from it again. One lane only. ----
  void initial_conditions() {
    const std::span<const double> v0 = job.control.initial_v;
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      const double dtn = std::ldexp(im.dt, rp.node_lg[i]);
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      for (std::size_t c = 0; c < 3; ++c) {
        u[3 * i + c] = job.ic_u[g + c];
        u_prev[3 * i + c] = job.ic_u[g + c] -
                            dtn * (v0.empty() ? 0.0 : v0[g + c]) +
                            0.5 * dtn * dtn * job.ic_a[g + c];
      }
    }
    for (const LocalConstraint& c : L.cons) expand(u_prev, c);
  }

  // Hanging-node fold (B^T) of one constraint group into its masters, and
  // expansion (B) of the masters' values onto the hanging node.
  void fold(std::vector<double>& x, const LocalConstraint& c) {
    for (std::size_t comp = 0; comp < 3; ++comp) {
      const std::size_t hd = at(c.node, comp);
      for (int m = 0; m < c.n; ++m) {
        const std::size_t md = at(c.masters[static_cast<std::size_t>(m)], comp);
        const double w = c.weights[static_cast<std::size_t>(m)];
        for (std::size_t s = 0; s < S; ++s) x[md + s] += w * x[hd + s];
      }
      for (std::size_t s = 0; s < S; ++s) x[hd + s] = 0.0;
    }
  }
  void fold_list(const std::vector<int>& list) {
    for (const int ci : list) {
      const LocalConstraint& c = L.cons[static_cast<std::size_t>(ci)];
      fold(ku, c);
      if (rayleigh) fold(dku, c);
    }
  }
  void expand(std::vector<double>& x, const LocalConstraint& c) {
    for (std::size_t comp = 0; comp < 3; ++comp) {
      const std::size_t hd = at(c.node, comp);
      for (std::size_t s = 0; s < S; ++s) {
        double v = 0.0;
        for (int m = 0; m < c.n; ++m) {
          v += c.weights[static_cast<std::size_t>(m)] *
               x[at(c.masters[static_cast<std::size_t>(m)], comp) + s];
        }
        x[hd + s] = v;
      }
    }
  }

  // Element-kernel sweep over one list: per node the 3 components x S
  // lanes are one contiguous run. One lane takes the solo kernel, several
  // the batch kernel, which runs the solo kernel per lane at stride S;
  // both are per lane bitwise equal to the straight-line test oracle
  // testsupport::hex_apply_ref (tests/support).
  void apply_elems(const std::vector<int>& list) {
    for (const int le_i : list) {
      const std::size_t le = static_cast<std::size_t>(le_i);
      const std::size_t ge = static_cast<std::size_t>(L.elems[le]);
      const auto& c = L.conn[le];
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t base = at(c[i]);
        const std::size_t eb = 3 * i * S;
        for (std::size_t t = 0; t < 3 * S; ++t) ue[eb + t] = uk[base + t];
      }
      std::fill(ye, ye + fem::kHexDofs * S, 0.0);
      if (rayleigh) std::fill(de, de + fem::kHexDofs * S, 0.0);
      const double h = im.mesh.elem_size[ge];
      const vel::Material& mat = im.mesh.elem_mat[ge];
      const double beta = rayleigh ? elem_damping[ge].beta : 0.0;
      if (S == 1) {
        fem::hex_apply(ref, ue, h * mat.lambda, h * mat.mu, ye, beta,
                       rayleigh ? de : nullptr);
      } else {
        fem::hex_apply_batch(ref, ue, static_cast<int>(S), h * mat.lambda,
                             h * mat.mu, ye, beta, rayleigh ? de : nullptr);
      }
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t base = at(c[i]);
        const std::size_t eb = 3 * i * S;
        for (std::size_t t = 0; t < 3 * S; ++t) ku[base + t] += ye[eb + t];
        if (rayleigh) {
          for (std::size_t t = 0; t < 3 * S; ++t) dku[base + t] += de[eb + t];
        }
      }
      flops += S * fem::hex_apply_flops(rayleigh);
    }
    // One element update per lane per element: S lanes advance together.
    elem_updates += S * list.size();
    obs::counter_add("par/elements_processed",
                     static_cast<std::int64_t>(list.size()));
    obs::counter_add("par/element_updates",
                     static_cast<std::int64_t>(S * list.size()));
  }
  // Stacey faces: the face kernel is tiny (4 nodes), so it runs per lane
  // with strided gathers instead of being widened.
  void apply_faces(const std::vector<RankLocal::Face>& list) {
    if (im.op_opt.abc != fem::AbcType::kStacey) return;
    double uf[12], yf[12];
    for (const auto& face : list) {
      if (!im.op_opt.absorbing_sides[static_cast<std::size_t>(face.side)]) {
        continue;
      }
      const std::size_t ge = static_cast<std::size_t>(
          L.elems[static_cast<std::size_t>(face.elem)]);
      const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(face.side)];
      const auto& c = L.conn[static_cast<std::size_t>(face.elem)];
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t base = at(c[static_cast<std::size_t>(fn[i])]);
          uf[3 * i] = uk[base + s];
          uf[3 * i + 1] = uk[base + S + s];
          uf[3 * i + 2] = uk[base + 2 * S + s];
        }
        std::fill(yf, yf + 12, 0.0);
        fem::face_stacey_apply(im.mesh.elem_mat[ge], im.mesh.elem_size[ge],
                               face.side, uf, yf);
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t base = at(c[static_cast<std::size_t>(fn[i])]);
          ku[base + s] += yf[3 * i];
          ku[base + S + s] += yf[3 * i + 1];
          ku[base + 2 * S + s] += yf[3 * i + 2];
        }
        flops += fem::face_stacey_flops();
      }
    }
  }

  // Local node li's bracket (u_prev, u) evaluated at fine step k_target,
  // all 3 * S values. A node of rate p active at k_target holds u =
  // u^{k_target} exactly (m == 0 takes u directly — always, with one
  // class); a stale node interpolates linearly inside its bracket.
  void node_at(std::size_t li, int k_target, double* out) const {
    const int lg = rp.node_lg[li];
    const int m = k_target & ((1 << lg) - 1);
    const std::size_t base = at(li);
    if (m == 0) {
      for (std::size_t t = 0; t < 3 * S; ++t) out[t] = u[base + t];
    } else {
      const double th = static_cast<double>(m) / static_cast<double>(1 << lg);
      for (std::size_t t = 0; t < 3 * S; ++t) {
        out[t] = u_prev[base + t] + th * (u[base + t] - u_prev[base + t]);
      }
    }
  }

  // Doubles in this rank's step message to neighbor nb when rates lg <= cap
  // are active: the ku section, then (Rayleigh) the dku one.
  [[nodiscard]] std::size_t msg_len(std::size_t nb, int cap) const {
    return pack * 3 * rp.edges[nb].count_upto[static_cast<std::size_t>(cap)] *
           S;
  }

  // Index of lane 0 of component comp of local node li in a scenario-major
  // vector; its S lanes, and from comp 0 all 3 * S values, are contiguous.
  [[nodiscard]] std::size_t at(auto li, std::size_t comp = 0) const {
    return (3 * static_cast<std::size_t>(li) + comp) * S;
  }

  History& history(const RecvRef& rv) {
    return job.results[static_cast<std::size_t>(rv.lane)]
        .receiver_histories[static_cast<std::size_t>(rv.ri)];
  }

  // The recovery protocol's view of this rank: its cut (state vectors and
  // owned histories) and, per neighbor, the rank and the widest message
  // (every rate active), which sizes the log ring.
  Recovery make_recovery() {
    std::vector<History*> owned;
    for (const RecvRef& rv : RV) owned.push_back(&history(rv));
    std::vector<int> nbs;
    std::vector<std::size_t> widest;
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      nbs.push_back(L.neighbors[nb].rank);
      widest.push_back(msg_len(nb, sched.n_classes - 1));
    }
    return {rank, job.ft, {u, u_prev, dku_prev, std::move(owned)},
            job.n_steps, std::move(nbs), widest};
  }

  using Vec = std::vector<double>;

  Impl& im;
  Job& job;
  Rank& rank;
  const Lanes S;
  const std::size_t r = static_cast<std::size_t>(rank.id());
  const Schedule& sched = job.sched;
  const bool rayleigh = im.rayleigh;
  const bool multi_rate = sched.n_classes > 1;
  const std::size_t pack = rayleigh ? 2u : 1u;
  RankLocal& L = im.locals[r];
  const Schedule::RankPart& rp = sched.ranks[r];
  const std::vector<RecvRef>& RV = job.recv_of[r];  // this rank's receivers
  const fem::HexReference& ref = fem::HexReference::get();
  const std::span<const fem::RayleighCoeffs> elem_damping =
      im.op.element_damping();

  static Vec& zeroed(Vec& v, std::size_t n) {
    v.assign(n, 0.0);
    return v;
  }

  // State is scenario-major: lane s of local dof d at d * S + s. The
  // vectors are the rank's persistent storage (RankLocal::state), zeroed.
  const std::size_t ns = 3 * L.nodes.size() * S;
  Vec& u = zeroed(L.state.u, ns);
  Vec& u_prev = zeroed(L.state.u_prev, ns);
  Vec& f = zeroed(L.state.f, ns);
  Vec& ku = zeroed(L.state.ku, ns);
  // Rayleigh damping carries the damping partials; checkpoints and
  // donations carry dku_prev (zeros without damping) in their format.
  Vec& dku = zeroed(L.state.dku, rayleigh ? ns : 0);
  Vec& dku_prev =
      zeroed(L.state.dku_prev, rayleigh || !job.ft.dir.empty() ? ns : 0);
  // The time-k field the kernels read: with one class u itself; with
  // several, every node's bracket (u_prev, u) evaluated at step k.
  Vec& un = zeroed(L.state.un, multi_rate ? ns : 0);
  const Vec& uk = multi_rate ? un : u;
  // Element gather/scatter scratch of apply_elems.
  double ue[fem::kHexDofs * fem::kMaxBatchLanes]{};
  double ye[fem::kHexDofs * fem::kMaxBatchLanes]{};
  double de[fem::kHexDofs * fem::kMaxBatchLanes]{};

  // compute: all element/face/update work; exchange: post + drain;
  // overlap: the interior-compute window with messages in flight; drain:
  // the exposed (blocked) tail of the exchange.
  util::StopWatch compute_watch, exchange_watch, overlap_watch, drain_watch;
  std::uint64_t flops = 0;
  std::uint64_t elem_updates = 0;

  Recovery rec = make_recovery();
  int k_done = -1;     // last fully completed step (state + history updated)
  int k_progress = 0;  // last step this rank started (rollback accounting)
};

std::vector<ParallelResult> ParallelSetup::Impl::solve(
    const Schedule& sched, double t_end,
    std::span<const BatchScenario> scenarios, const FaultToleranceOptions& ft,
    const RunControl& control) {
  const std::size_t n_lanes = scenarios.size();
  Job job(sched, scenarios, control, steps_for(t_end));
  const int n_steps = job.n_steps;
  const std::size_t pack = rayleigh ? 2u : 1u;

  // ---- per-run hooks (see RunControl): compose or reject up front ----
  const std::size_t nd_global = op.n_dofs();
  const bool ic_on = !control.initial_u.empty() || !control.initial_v.empty();
  const bool snap_on = static_cast<bool>(control.snapshot);
  const bool ft_on = !ft.checkpoint_dir.empty() || ft.max_retries > 0 ||
                     ft.fault_plan != nullptr;
  if (ic_on && n_lanes > 1) {
    throw std::invalid_argument(
        "initial conditions apply to one scenario, not a batch of " +
        std::to_string(n_lanes));
  }
  for (const auto& field : {control.initial_u, control.initial_v}) {
    if (!field.empty() && field.size() != nd_global) {
      throw std::invalid_argument(
          "initial condition has " + std::to_string(field.size()) +
          " values, expected 3 * n_nodes = " + std::to_string(nd_global));
    }
  }
  if (snap_on && (control.snapshot_every < 1 || ft_on || n_lanes > 1 ||
                  sched.n_classes > 1)) {
    throw std::invalid_argument(
        "the snapshot hook needs snapshot_every >= 1, one scenario, the "
        "global-dt schedule and no fault-tolerance options");
  }

  // Initial state, computed once and serially on the setup's own operator
  // with the projections of eq. 2.5: the expanded u0 and
  // a0 = M^{-1} (f(0) - (K + K^AB) u0). Each rank opens its nodes'
  // brackets from these (see RankRun::initial_conditions).
  if (ic_on) {
    std::vector<double>& ic_u = job.ic_u;
    ic_u.assign(nd_global, 0.0);
    std::copy(control.initial_u.begin(), control.initial_u.end(),
              ic_u.begin());
    op.expand_constraints(ic_u);
    std::vector<double> ku(nd_global, 0.0), f0(nd_global, 0.0);
    op.apply_stiffness(ic_u, ku, {});
    op.accumulate_constraints(ku);
    for (const solver::SourceModel* src : scenarios[0].sources) {
      src->add_forces(0.0, f0);
    }
    op.accumulate_constraints(f0);
    const auto mass = op.lumped_mass();
    job.ic_a.resize(nd_global);
    for (std::size_t d = 0; d < nd_global; ++d) {
      job.ic_a[d] = mass[d] > 0.0 ? (f0[d] - ku[d]) / mass[d] : 0.0;
    }
  }
  // Snapshot gather buffers: each rank writes its owned nodes.
  job.snap_u.assign(snap_on ? nd_global : 0, 0.0);
  job.snap_v.assign(snap_on ? nd_global : 0, 0.0);

  // Per-scenario receiver assignment: each receiver goes to the owner of its
  // nearest node. Kept outside RankLocal so a request's histories cannot
  // leak into the next solve through the shared setup.
  job.results.resize(n_lanes);
  job.recv_of.resize(static_cast<std::size_t>(R));
  const solver::NodeLocator nodes(mesh);
  for (std::size_t s = 0; s < n_lanes; ++s) {
    ParallelResult& res = job.results[s];
    res.dt = dt;
    res.n_steps = n_steps;
    res.steps_completed = n_steps;
    res.u_final.assign(3 * mesh.n_nodes(), 0.0);
    res.rank_stats.assign(static_cast<std::size_t>(R), {});
    res.receiver_histories.assign(scenarios[s].receivers.size(), {});
    for (std::size_t ri = 0; ri < scenarios[s].receivers.size(); ++ri) {
      const mesh::NodeId n = nodes.nearest(scenarios[s].receivers[ri]);
      const int owner = part.node_owner[static_cast<std::size_t>(n)];
      const auto& owner_local = locals[static_cast<std::size_t>(owner)];
      const auto it = owner_local.local_of.find(n);
      if (it == owner_local.local_of.end()) {
        // Only reachable when the nearest node is an orphan (touched by no
        // element): it belongs to no rank's local set and has no dynamics.
        throw std::invalid_argument(
            "run_parallel: scenario " + std::to_string(s) + " receiver " +
            std::to_string(ri) + " snaps to node " + std::to_string(n) +
            ", which no element touches (orphan node)");
      }
      job.recv_of[static_cast<std::size_t>(owner)].push_back(
          {static_cast<int>(s), static_cast<int>(ri), it->second});
      res.receiver_histories[ri].reserve(static_cast<std::size_t>(n_steps));
    }
  }

  // Exchange buffers: the widest message this solve posts (every rate
  // active, all lanes).
  for (auto& L : locals) {
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      const std::size_t len =
          pack * 3 * L.neighbors[nb].shared.size() * n_lanes;
      if (L.sendbuf[nb].size() < len) L.sendbuf[nb].resize(len);
      if (L.recvbuf[nb].size() < len) L.recvbuf[nb].resize(len);
    }
  }

  // ---- SPMD execution ------------------------------------------------------
  Recovery::Policy& policy = job.ft;
  policy.dir = ft.checkpoint_dir;
  policy.every = ft.checkpoint_every;
  const bool ckpt_on = !ft.checkpoint_dir.empty();
  if (ckpt_on) std::filesystem::create_directories(ft.checkpoint_dir);

  // Per-run fault policy on the shared communicator: install THIS run's plan
  // (or clear a previous run's), reset the timeout, and re-arm recovery —
  // comm.run() itself resets mailbox/barrier/poison state, so a request that
  // died last run leaves nothing behind for this one.
  if (ft.fault_plan != nullptr) {
    comm.install_fault_plan(*ft.fault_plan);
  } else {
    comm.clear_fault_plan();
  }
  comm.set_timeout(ft.timeout_seconds > 0.0 ? ft.timeout_seconds : 0.0);
  // In-place recovery needs snapshots to roll back to; without them every
  // failure goes straight to the full-restart supervisor as before.
  policy.in_place = ckpt_on && ft.max_revives > 0;
  comm.set_recovery({policy.in_place, ft.max_revives});
  policy.keep = std::max(1, ft.checkpoint_keep);
  // Tier-1 machinery (see FaultToleranceOptions): buddy-shadow donation and
  // the per-neighbor outbound message log. Both only pay their cost when
  // in-place recovery is armed.
  policy.donate = policy.in_place && ft.state_donation && R > 1;
  // Auto capacity spans TWO checkpoint intervals: delta compression (see
  // util::DeltaRing) keeps the longer ring near the memory cost of one
  // uncompressed interval, and the extra reach keeps tier-1 feasible even
  // when a buddy's held donation generation is one interval stale (its
  // absorb was cut short by the failure itself).
  policy.log_cap = !policy.in_place
                       ? 0
                       : (ft.message_log_steps >= 0
                              ? ft.message_log_steps
                              : 2 * std::max(1, ft.checkpoint_every) + 8);

  // Cancellation/deadline agreement clock (see RunControl).
  job.start = std::chrono::steady_clock::now();

  // Per-rank telemetry registries, kept outside the supervised-retry loop
  // so a retried run accumulates into the same registries (the report of a
  // recovered run then shows the cost of recovery, not just the final
  // successful attempt). Fresh per run: a request's report describes that
  // request only.
  job.rank_regs.resize(static_cast<std::size_t>(R));
  job.agreed_stop = n_steps;

  // The rank body: one RankRun per rank thread (and per attempt), with S
  // fixed at 1 for one lane and read at run time for several.
  const auto body = [&](Rank& rank, auto lanes) {
    const obs::ScopedRegistry obs_install(
        job.rank_regs[static_cast<std::size_t>(rank.id())]);
    RankRun<decltype(lanes)>(*this, job, rank, lanes).run();
  };
  const std::function<void(Rank&)> spmd_body =
      n_lanes == 1 ? std::function<void(Rank&)>([&](Rank& rank) {
        body(rank, std::integral_constant<std::size_t, 1>{});
      })
                   : std::function<void(Rank&)>(
                         [&](Rank& rank) { body(rank, n_lanes); });

  // ---- supervised execution: rewind to the last checkpoint and retry on
  // rank failure; deadlocks are deterministic program errors and surface
  // immediately ----
  int attempt = 0;
  int revives_total = 0;
  for (;;) {
    try {
      comm.run(spmd_body);
      revives_total += comm.revives_used();
      break;
    } catch (const DeadlockError&) {
      throw;
    } catch (const RankFailedError&) {
      revives_total += comm.revives_used();
      if (attempt >= ft.max_retries) throw;
      ++attempt;
    }
  }
  for (auto& res : job.results) {
    res.revives_used = revives_total;
    if (job.agreed_stop < n_steps) {
      res.cancelled = true;
      res.steps_completed = job.agreed_stop;
    }
  }
  // The run completed; its snapshots are obsolete (and would otherwise
  // short-circuit an unrelated future run pointed at the same directory).
  if (ckpt_on) Recovery::remove_cuts(policy, R);

  return std::move(job.results);
}

ParallelSetup::ParallelSetup(const mesh::HexMesh& mesh, const Partition& part,
                             const solver::OperatorOptions& op_opt,
                             const solver::SolverOptions& base)
    : impl_(std::make_unique<Impl>(mesh, part, op_opt, base)) {}

ParallelSetup::~ParallelSetup() = default;

double ParallelSetup::dt() const { return impl_->dt; }

int ParallelSetup::n_ranks() const { return impl_->R; }

const mesh::HexMesh& ParallelSetup::mesh() const { return impl_->mesh; }

std::vector<std::vector<int>> ParallelSetup::neighbor_ranks() const {
  // RankLocal keeps its neighbors in ascending rank order.
  std::vector<std::vector<int>> adj(impl_->locals.size());
  for (std::size_t r = 0; r < adj.size(); ++r) {
    for (const auto& nb : impl_->locals[r].neighbors) {
      adj[r].push_back(nb.rank);
    }
  }
  return adj;
}

int ParallelSetup::n_steps(double t_end) const {
  return impl_->steps_for(t_end);
}

ParallelResult ParallelSetup::run(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft, const RunControl& control) {
  const BatchScenario one{
      {sources.begin(), sources.end()},
      {receiver_positions.begin(), receiver_positions.end()}};
  const std::lock_guard<std::mutex> run_lock(impl_->run_mutex);
  return std::move(
      impl_->solve(impl_->global, t_end, {&one, 1}, ft, control).front());
}

std::vector<ParallelResult> ParallelSetup::run_batch(
    double t_end, std::span<const BatchScenario> scenarios,
    const RunControl& control) {
  if (scenarios.empty() ||
      scenarios.size() > static_cast<std::size_t>(fem::kMaxBatchLanes)) {
    throw std::invalid_argument("run_batch: scenario count must be in [1, " +
                                std::to_string(fem::kMaxBatchLanes) + "]");
  }
  const std::lock_guard<std::mutex> run_lock(impl_->run_mutex);
  return impl_->solve(impl_->global, t_end, scenarios, {}, control);
}

ParallelResult ParallelSetup::run_lts(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const lts::LtsOptions& lts, const RunControl& control) {
  if (!lts.enabled) {
    return run(t_end, sources, receiver_positions, FaultToleranceOptions{},
               control);
  }
  if (impl_->rayleigh) {
    throw std::invalid_argument(
        "run_lts: Rayleigh damping couples u^{k-1} across rates; use the "
        "global-dt path");
  }
  const BatchScenario one{
      {sources.begin(), sources.end()},
      {receiver_positions.begin(), receiver_positions.end()}};
  const std::lock_guard<std::mutex> run_lock(impl_->run_mutex);
  return std::move(impl_->solve(impl_->lts_schedule(lts.max_rate), t_end,
                                {&one, 1}, {}, control)
                       .front());
}

ParallelResult run_parallel(
    const mesh::HexMesh& mesh, const Partition& part,
    const solver::OperatorOptions& op_opt, const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions) {
  return run_parallel(mesh, part, op_opt, so, sources, receiver_positions,
                      FaultToleranceOptions{});
}

ParallelResult run_parallel(
    const mesh::HexMesh& mesh, const Partition& part,
    const solver::OperatorOptions& op_opt, const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft) {
  ParallelSetup setup(mesh, part, op_opt, so);
  return setup.run(so.t_end, sources, receiver_positions, ft);
}

double modeled_efficiency(const ParallelResult& r, const MachineModel& m) {
  if (r.rank_stats.empty() || r.n_steps == 0) return 1.0;
  double total_flops = 0.0;
  double worst = 0.0;
  for (const auto& s : r.rank_stats) {
    total_flops += static_cast<double>(s.flops);
    const double flops_step =
        static_cast<double>(s.flops) / static_cast<double>(r.n_steps);
    const double t = flops_step / m.flops_per_sec +
                     static_cast<double>(s.n_neighbors) * m.latency_sec +
                     static_cast<double>(s.doubles_sent_per_step) * 8.0 /
                         m.bytes_per_sec;
    worst = std::max(worst, t);
  }
  const double t1 =
      total_flops / static_cast<double>(r.n_steps) / m.flops_per_sec;
  const double denom =
      static_cast<double>(r.rank_stats.size()) * worst;
  return denom > 0.0 ? t1 / denom : 1.0;
}

}  // namespace quake::par
