#include "quake/par/parallel_solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "quake/fem/hex_element.hpp"
#include "quake/obs/obs.hpp"
#include "quake/obs/report.hpp"
#include "quake/par/communicator.hpp"
#include "quake/solver/locator.hpp"
#include "quake/util/checkpoint.hpp"
#include "quake/util/delta_codec.hpp"
#include "quake/util/timer.hpp"

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
// exchange buffers) by every solve through that setup. Per-scenario state
// (displacement vectors, receiver assignments, histories) lives in
// ParallelSetup::Impl::run so requests are isolated from each other.
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
  std::vector<double> mass, am, bk, cab, inv_lhs;  // per local dof
  std::vector<std::uint8_t> owned;                 // per local node
  std::vector<Neighbor> neighbors;                 // ascending rank
  std::vector<int> all_shared;                     // union of neighbor lists

  // Communication-hiding split (see the step loop): an element/face/
  // constraint is "boundary" iff it can contribute to a shared-node partial
  // — directly, or through the hanging-node fold into a shared master. The
  // boundary pieces are computed before the exchange is posted; everything
  // interior runs while the messages are in flight. Each list preserves the
  // original relative order, so per-rank partials stay bit-identical to an
  // unsplit sweep.
  std::vector<int> boundary_elems, interior_elems;  // indices into `elems`
  std::vector<Face> boundary_faces, interior_faces;
  std::vector<LocalConstraint> cons_boundary, cons_interior;

  // Persistent exchange storage: send/recv buffers per neighbor and the
  // first-occurrence map for re-inserting this rank's own partials, all
  // sized at setup so the step loop performs no heap allocation. These are
  // the one mutable piece of shared state, which is why runs through a
  // setup are serialized.
  std::vector<std::vector<double>> sendbuf, recvbuf;
  std::vector<std::vector<int>> own_first;  // per neighbor: first-occurrence
                                            // indices into its shared list
  std::vector<int> nb_of_rank;              // rank -> neighbor index or -1
  std::size_t doubles_per_step = 0;         // exchange volume, setup-derived

  // Batched-exchange siblings of sendbuf/recvbuf, sized pack * 3 *
  // shared * S on each run_batch call (S varies per batch; resizing
  // happens under run_mutex before the SPMD launch).
  std::vector<std::vector<double>> sendbuf_b, recvbuf_b;

  // Per-neighbor arrival flags for the arrival-order drain, reset each
  // step; lives here (not on the step-loop stack) so the steady-state step
  // performs no allocation.
  std::vector<std::uint8_t> nb_arrived;
};

// ForceSink that keeps only this rank's nodes.
class RankForceSink final : public solver::ForceSink {
 public:
  RankForceSink(const std::unordered_map<mesh::NodeId, int>& local_of,
                std::vector<double>& f)
      : local_of_(&local_of), f_(&f) {}
  void add(mesh::NodeId node, int comp, double value) override {
    auto it = local_of_->find(node);
    if (it == local_of_->end()) return;
    (*f_)[3 * static_cast<std::size_t>(it->second) +
          static_cast<std::size_t>(comp)] += value;
  }

 private:
  const std::unordered_map<mesh::NodeId, int>* local_of_;
  std::vector<double>* f_;
};

// As RankForceSink, writing one lane of a scenario-major batched force
// vector (lane s of local dof d at index d * n_lanes + s).
class RankLaneForceSink final : public solver::ForceSink {
 public:
  RankLaneForceSink(const std::unordered_map<mesh::NodeId, int>& local_of,
                    std::vector<double>& f, int n_lanes, int lane)
      : local_of_(&local_of),
        f_(&f),
        lanes_(static_cast<std::size_t>(n_lanes)),
        lane_(static_cast<std::size_t>(lane)) {}
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

std::string ckpt_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ckpt";
}

// Communicator tag reserved for the end-of-run telemetry gather (the ghost
// exchange uses tag 0; receiving on a distinct tag keeps the two streams
// from interleaving).
constexpr int kObsGatherTag = 9;

// Communicator tag for survivor state donation: the buddy-capture shift
// exchange at each checkpoint barrier and the donation stream during
// recovery. Distinct from the ghost exchange (0) and the obs gather (9).
constexpr int kDonationTag = 10;

// A snapshot is usable by this rank iff its step is inside the run and its
// state arrays match this rank's dof count and owned receiver set.
bool snapshot_usable(const util::Snapshot& s, std::size_t nd, int n_steps,
                     const std::vector<std::pair<int, int>>& receivers) {
  if (s.step < 1 || s.step >= n_steps) return false;
  if (s.field("u").size() != nd || s.field("u_prev").size() != nd ||
      s.field("dku_prev").size() != nd) {
    return false;
  }
  for (const auto& [ri, ln] : receivers) {
    if (s.field("recv" + std::to_string(ri)).size() !=
        3 * static_cast<std::size_t>(s.step)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParallelSetup: the amortizable half of run_parallel. The constructor is
// the old serial setup phase verbatim (operator, ghost sets with constraint
// closure, neighbor lists, boundary/interior split, exchange buffers); run()
// is the old SPMD execution phase with all per-scenario state hoisted into
// run-local variables.
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
  std::vector<RankLocal> locals;
  Communicator comm;
  std::mutex run_mutex;  // exchange buffers are shared: one solve at a time

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
        comm(part_in.n_ranks) {
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
      L.inv_lhs.resize(3 * nl);
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
          const double lhs =
              L.mass[ld] + 0.5 * dt * (L.am[ld] + L.bk[ld] + L.cab[ld]);
          L.inv_lhs[ld] = lhs > 0.0 ? 1.0 / lhs : 0.0;
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
    }

    // Boundary/interior split and persistent exchange buffers. A node can
    // contribute to a shared-node partial iff it is shared itself, or it is a
    // hanging node with a contributing master (masters are never hanging —
    // constraint chains are resolved at mesh build — so one pass suffices).
    const std::size_t pack = rayleigh ? 2u : 1u;
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      RankLocal& L = locals[r];
      std::vector<std::uint8_t> affects(L.nodes.size(), 0);
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
      std::vector<std::uint8_t> elem_boundary(L.elems.size(), 0);
      for (std::size_t le = 0; le < L.elems.size(); ++le) {
        for (int i = 0; i < 8; ++i) {
          if (affects[static_cast<std::size_t>(
                  L.conn[le][static_cast<std::size_t>(i)])] != 0) {
            elem_boundary[le] = 1;
            break;
          }
        }
        (elem_boundary[le] != 0 ? L.boundary_elems : L.interior_elems)
            .push_back(static_cast<int>(le));
      }
      for (const RankLocal::Face& face : L.faces) {
        (elem_boundary[static_cast<std::size_t>(face.elem)] != 0
             ? L.boundary_faces
             : L.interior_faces)
            .push_back(face);
      }
      for (const LocalConstraint& c : L.cons) {
        (affects[static_cast<std::size_t>(c.node)] != 0 ? L.cons_boundary
                                                        : L.cons_interior)
            .push_back(c);
      }

      L.sendbuf.resize(L.neighbors.size());
      L.recvbuf.resize(L.neighbors.size());
      L.nb_arrived.resize(L.neighbors.size());
      L.own_first.resize(L.neighbors.size());
      L.nb_of_rank.assign(static_cast<std::size_t>(R), -1);
      std::vector<std::uint8_t> seen(L.nodes.size(), 0);
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        const auto& sh = L.neighbors[nb].shared;
        L.sendbuf[nb].resize(pack * 3 * sh.size());
        L.recvbuf[nb].resize(pack * 3 * sh.size());
        L.nb_of_rank[static_cast<std::size_t>(L.neighbors[nb].rank)] =
            static_cast<int>(nb);
        L.doubles_per_step += pack * 3 * sh.size();
        for (std::size_t i = 0; i < sh.size(); ++i) {
          const std::size_t li = static_cast<std::size_t>(sh[i]);
          if (seen[li] != 0) continue;
          seen[li] = 1;
          L.own_first[nb].push_back(static_cast<int>(i));
        }
      }
    }
  }

  ParallelResult run(double t_end,
                     std::span<const solver::SourceModel* const> sources,
                     std::span<const std::array<double, 3>> receiver_positions,
                     const FaultToleranceOptions& ft,
                     const RunControl& control);

  std::vector<ParallelResult> run_batch(double t_end,
                                        std::span<const BatchScenario> scenarios,
                                        const RunControl& control);

  ParallelResult run_lts(double t_end,
                         std::span<const solver::SourceModel* const> sources,
                         std::span<const std::array<double, 3>> receiver_positions,
                         const lts::LtsOptions& lts, const RunControl& control);

  // Lazily-built LTS plan (clustering + per-rank sweep/exchange sublists),
  // cached across run_lts calls with the same max_rate. Guarded by run_mutex.
  struct LtsPlan;
  std::unique_ptr<LtsPlan> lts_plan;
  int lts_plan_max_rate = 0;
  const LtsPlan& get_lts_plan(int max_rate);
};

ParallelResult ParallelSetup::Impl::run(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft, const RunControl& control) {
  const std::lock_guard<std::mutex> run_lock(run_mutex);
  const int n_steps = static_cast<int>(std::ceil(t_end / dt));

  // Per-scenario receiver assignment: each receiver goes to the owner of its
  // nearest node. Kept outside RankLocal so a request's histories cannot
  // leak into the next solve through the shared setup.
  ParallelResult result;
  result.dt = dt;
  result.n_steps = n_steps;
  result.steps_completed = n_steps;
  result.receiver_histories.assign(receiver_positions.size(), {});
  std::vector<std::vector<std::pair<int, int>>> recv_of(
      static_cast<std::size_t>(R));
  const solver::NodeLocator nodes(mesh);
  for (std::size_t ri = 0; ri < receiver_positions.size(); ++ri) {
    const mesh::NodeId n = nodes.nearest(receiver_positions[ri]);
    const int owner = part.node_owner[static_cast<std::size_t>(n)];
    const auto it = locals[static_cast<std::size_t>(owner)].local_of.find(n);
    if (it == locals[static_cast<std::size_t>(owner)].local_of.end()) {
      // Only reachable when the nearest node is an orphan (touched by no
      // element): it belongs to no rank's local set and has no dynamics.
      throw std::invalid_argument(
          "run_parallel: receiver " + std::to_string(ri) + " snaps to node " +
          std::to_string(n) + ", which no element touches (orphan node)");
    }
    recv_of[static_cast<std::size_t>(owner)].emplace_back(static_cast<int>(ri),
                                                          it->second);
    result.receiver_histories[ri].reserve(static_cast<std::size_t>(n_steps));
  }

  result.u_final.assign(3 * mesh.n_nodes(), 0.0);
  result.rank_stats.assign(static_cast<std::size_t>(R), {});

  const fem::HexReference& ref = fem::HexReference::get();
  const auto elem_damping = op.element_damping();

  // ---- SPMD execution ------------------------------------------------------
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
  const bool in_place = ckpt_on && ft.max_revives > 0;
  comm.set_recovery({in_place, ft.max_revives});
  const int ckpt_keep = std::max(1, ft.checkpoint_keep);
  // Tier-1 machinery (see FaultToleranceOptions): buddy-shadow donation and
  // the per-neighbor outbound message log. Both only pay their cost when
  // in-place recovery is armed.
  const bool donate_on = in_place && ft.state_donation && R > 1;
  const bool donate_async = donate_on && ft.async_donation;
  // Auto capacity spans TWO checkpoint intervals: delta compression (see
  // util::DeltaRing) keeps the longer ring near the memory cost of one
  // uncompressed interval, and the extra reach keeps tier-1 feasible even
  // when a buddy's held donation generation is one interval stale (its
  // absorb was cut short by the failure itself).
  const int log_cap =
      !in_place ? 0
                : (ft.message_log_steps >= 0
                       ? ft.message_log_steps
                       : 2 * std::max(1, ft.checkpoint_every) + 8);
  const bool log_on = log_cap > 0;

  // Cancellation/deadline agreement cadence (see RunControl).
  const bool ctl_active = control.active();
  const int ctl_every = std::max(1, control.check_every);
  const auto run_start = std::chrono::steady_clock::now();

  // Per-rank telemetry registries, declared outside the supervised-retry
  // loop so a retried run accumulates into the same registries (the report
  // of a recovered run then shows the cost of recovery, not just the final
  // successful attempt). Fresh per run: a request's report describes that
  // request only.
  std::vector<obs::Registry> rank_regs(static_cast<std::size_t>(R));

  const auto spmd_body = [&](Rank& rank) {
    const std::size_t r = static_cast<std::size_t>(rank.id());
    const obs::ScopedRegistry obs_install(rank_regs[r]);
    obs::counter_add("ft/attempts", 1);
    if (rank.revived()) obs::counter_add("par/ranks_revived", 1);
    obs::gauge_set("par/epoch", static_cast<double>(rank.epoch()));
    RankLocal& L = locals[r];
    const auto& RV = recv_of[r];  // this rank's (receiver, local node) pairs
    const std::size_t nd = 3 * L.nodes.size();
    std::vector<double> u(nd, 0.0), u_prev(nd, 0.0), u_next(nd, 0.0);
    std::vector<double> f(nd, 0.0), ku(nd, 0.0), dku(nd, 0.0),
        dku_prev(nd, 0.0);

    // compute: all element/face/update work; exchange: post + drain;
    // overlap: the interior-compute window with messages in flight; drain:
    // the exposed (blocked) tail of the exchange.
    util::StopWatch compute_watch, exchange_watch, overlap_watch, drain_watch;
    std::uint64_t flops = 0;
    std::uint64_t elem_updates = 0;
    obs::gauge_set("par/dt", dt);
    // Seed the comm counters so every rank's registry (and hence every
    // merged report row, including 1-rank runs) carries them explicitly.
    obs::counter_add("comm/msgs_sent", 0);
    obs::counter_add("comm/bytes_sent", 0);

    // In-memory rollback target: a copy of the state vectors taken at each
    // checkpoint barrier. On an in-place recovery, survivors roll back from
    // this shadow without touching disk — only the revived rank (whose
    // thread, and hence shadow, died with it) reads its snapshot back.
    struct Shadow {
      std::int64_t step = -1;  // -1 = nothing captured yet
      std::vector<double> u, u_prev, dku_prev;
    } shadow;
    const std::string path = ckpt_path(ft.checkpoint_dir, rank.id());

    // Buddy-held donation state: at each checkpoint barrier rank r streams
    // [step | u | u_prev | dku_prev | flattened owned histories] to rank
    // (r+1)%R, which holds it HERE — in this thread's frame, so a buddy
    // that dies loses what it held, exactly like remote node memory. On
    // revival the buddy donates it back and the revived rank restores the
    // newest checkpoint without touching disk. With async donation the
    // stream is posted fire-and-forget and absorbed non-blockingly (the
    // barrier bracketing the capture guarantees it has landed); the step
    // header is what lets the absorber date a payload it did not wait for,
    // and the communicator's epoch fence discards any donation posted
    // before a revival, so a stale pre-failure generation can never be
    // absorbed after one (the absorb falls back to the previous absorbed
    // generation, which the two-interval log ring still covers).
    struct BuddyHeld {
      std::int64_t step = -1;  // -1 = holding nothing
      std::vector<double> state;  // headered payload, streamed back as-is
    } held;
    const int buddy = (rank.id() + 1) % R;          // I donate to buddy
    const int pred = (rank.id() + R - 1) % R;       // I hold pred's state
    const auto rv_count = static_cast<std::size_t>(RV.size());

    // Non-blocking absorb of any donation parked on the pred edge; keeps
    // the newest by header step. Returns true if something was absorbed.
    std::vector<double> donation_buf;
    const auto absorb_donations = [&]() -> bool {
      bool got = false;
      try {
        while (rank.try_recv(pred, kDonationTag, donation_buf)) {
          if (donation_buf.empty()) continue;
          const auto step = static_cast<std::int64_t>(donation_buf[0]);
          if (step > held.step) {
            held.step = step;
            held.state = std::move(donation_buf);
            donation_buf.clear();
          }
          got = true;
        }
      } catch (const RankFailedError&) {
        // The absorb is opportunistic, never a failure-detection point:
        // with a peer already down, simultaneous planned kills must still
        // reach their own fault points, and survivors' next REAL comm op
        // sees the poison anyway. Whatever was absorbed stands.
      }
      return got;
    };

    // Tier-1 outbound message log: per neighbor, the last `log_cap` posted
    // coalesced exchange payloads, keyed by step, delta-compressed against
    // the previous step on the same edge (util::DeltaRing — XOR + zero-run
    // coding, bit-exact). During a replay recovery survivors re-serve
    // these so only the revived ranks re-execute steps.
    std::vector<util::DeltaRing> msg_log;
    msg_log.reserve(L.neighbors.size());
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      msg_log.emplace_back(L.sendbuf[nb].size(), log_cap);
    }

    // Per-rank resume points of the last recovery agreement: rank s will
    // re-enter the step loop at start_of[s]; frontier = max(start_of). A
    // rank only posts step k to a neighbor that will consume it (k >=
    // start_of[nb]), and step-loop collectives (cancel agreement,
    // checkpoint barriers) are suppressed below the frontier, where ranks
    // execute different step ranges. On a normal run every entry equals
    // k0, so every post and collective happens as before.
    std::vector<int> start_of(static_cast<std::size_t>(R), 0);
    int frontier = 0;
    int k_done = -1;  // last fully completed step (state + history updated)

    // True once this rank's state vectors describe a definite step (fresh
    // zeros or a completed restore). A freshly respawned victim has no
    // state until recovery gives it some.
    bool has_state = false;

    // Retained disk generations that load and fit this rank, newest first,
    // with the corruption flag the generation-fallback counter needs.
    struct DiskCands {
      std::vector<std::pair<int, util::Snapshot>> snaps;  // (gen, snapshot)
      bool newest_corrupt = false;
    };
    const auto load_disk_candidates = [&]() -> DiskCands {
      DiskCands d;
      for (int gen = 0; gen < ckpt_keep; ++gen) {
        util::Snapshot s;
        const util::SnapshotLoadStatus st = util::load_snapshot_status(
            util::snapshot_generation_path(path, gen), &s);
        if (gen == 0 && st == util::SnapshotLoadStatus::kCorrupt) {
          d.newest_corrupt = true;
        }
        if (st == util::SnapshotLoadStatus::kOk &&
            snapshot_usable(s, nd, n_steps, RV)) {
          d.snaps.emplace_back(gen, std::move(s));
        }
      }
      return d;
    };

    // Restore this rank's vectors and owned histories from a full disk
    // snapshot, seeding the rollback shadow with the restored cut.
    const auto restore_from_snapshot = [&](const util::Snapshot& s) {
      const int k0 = static_cast<int>(s.step);
      const auto su = s.field("u");
      const auto sp = s.field("u_prev");
      const auto sd = s.field("dku_prev");
      std::copy(su.begin(), su.end(), u.begin());
      std::copy(sp.begin(), sp.end(), u_prev.begin());
      std::copy(sd.begin(), sd.end(), dku_prev.begin());
      for (const auto& [ri, ln] : RV) {
        const auto flat = s.field("recv" + std::to_string(ri));
        auto& hist = result.receiver_histories[static_cast<std::size_t>(ri)];
        hist.assign(static_cast<std::size_t>(k0), {});
        for (std::size_t i = 0; i < hist.size(); ++i) {
          hist[i] = {flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]};
        }
      }
      shadow.step = k0;
      shadow.u = u;
      shadow.u_prev = u_prev;
      shadow.dku_prev = dku_prev;
    };

    // Receive the donated buddy snapshot from rank (r+1)%R and restore
    // state + owned histories from it. The payload layout mirrors the
    // capture in the checkpoint block: [step | u | u_prev | dku_prev |
    // flattened owned histories]. The wait is a non-blocking poll with a
    // deadline rather than a blocking recv: a donor that dies mid-stream
    // poisons the communicator and the poll throws RankFailedError, while
    // a donor whose stream silently never arrives (dropped message, donor
    // wedged) runs the poll into the deadline — the victim can no longer
    // hang here. The deadline and any size/step mismatch throw
    // DonationError, which the recovery agreement's confirmation round
    // turns into a collective tier-2 fallback instead of aborting the
    // recovery outright.
    const auto restore_from_donation = [&](int step) {
      constexpr double kDonationWaitSeconds = 2.0;
      constexpr int kDonationYieldPasses = 64;
      std::vector<double> pay;
      const auto t0 = std::chrono::steady_clock::now();
      int passes = 0;
      for (;;) {
        if (rank.try_recv(buddy, kDonationTag, pay)) {
          if (!pay.empty() && static_cast<std::int64_t>(pay[0]) == step) {
            break;
          }
          // A leftover generation on this edge (the epoch fence already
          // dropped anything from before the revival): discard, keep
          // draining — the donor streams the advertised step behind it.
          continue;
        }
        const double waited =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (waited > kDonationWaitSeconds) {
          obs::scope_record("recover/donate/wait", waited);
          throw DonationError(
              "state donation to rank " + std::to_string(rank.id()) +
              " from donor " + std::to_string(buddy) + " missed the " +
              std::to_string(kDonationWaitSeconds) + " s recovery deadline");
        }
        if (++passes < kDonationYieldPasses) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      obs::scope_record(
          "recover/donate/wait",
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
      const std::size_t want =
          1 + 3 * nd + 3 * static_cast<std::size_t>(step) * rv_count;
      if (pay.size() != want) {
        throw DonationError(
            "state donation payload mismatch on rank " +
            std::to_string(rank.id()) + ": got " +
            std::to_string(pay.size()) + " doubles, expected " +
            std::to_string(want));
      }
      const auto b = pay.begin() + 1;
      const auto n = static_cast<std::ptrdiff_t>(nd);
      std::copy(b, b + n, u.begin());
      std::copy(b + n, b + 2 * n, u_prev.begin());
      std::copy(b + 2 * n, b + 3 * n, dku_prev.begin());
      std::size_t off = 1 + 3 * nd;
      for (const auto& [ri, ln] : RV) {
        auto& hist = result.receiver_histories[static_cast<std::size_t>(ri)];
        hist.assign(static_cast<std::size_t>(step), {});
        for (std::size_t i = 0; i < hist.size(); ++i) {
          hist[i] = {pay[off], pay[off + 1], pay[off + 2]};
          off += 3;
        }
      }
      shadow.step = step;
      shadow.u = u;
      shadow.u_prev = u_prev;
      shadow.dku_prev = dku_prev;
      obs::counter_add("par/donation_restores", 1);
    };

    // ---- checkpoint restore: agree on a common restart step --------------
    // Each rank proposes its newest usable state — the in-memory shadow if
    // it has one, a donated buddy snapshot offered by the caller, or the
    // newest usable snapshot among its retained generations; the collective
    // restart step is the minimum proposal, and a second round confirms
    // every rank can serve it. On a fresh start a disagreement falls back
    // to from-scratch (always correct, at worst wasteful); during an
    // in-place recovery it throws UnrecoverableError instead, handing the
    // failure to the full-restart supervisor (an in-place from-scratch
    // "resume" would silently discard survivors' progress).
    const auto attempt_restore = [&](bool recovering,
                                     std::int64_t donated) -> int {
      int k0 = 0;
      if (ckpt_on) {
        std::optional<obs::ScopeTimer> agree_scope;
        if (recovering) agree_scope.emplace("agree");
        const DiskCands disk = load_disk_candidates();
        double proposal =
            shadow.step >= 1 ? static_cast<double>(shadow.step) : -1.0;
        if (donated >= 1) {
          proposal = std::max(proposal, static_cast<double>(donated));
        }
        for (const auto& [gen, s] : disk.snaps) {
          proposal = std::max(proposal, static_cast<double>(s.step));
        }
        const double agreed = rank.allreduce_min(proposal);
        const bool from_shadow =
            shadow.step >= 1 && static_cast<double>(shadow.step) == agreed;
        const bool from_donation = !from_shadow && donated >= 1 &&
                                   static_cast<double>(donated) == agreed;
        const util::Snapshot* chosen = nullptr;
        int chosen_gen = 0;
        if (!from_shadow && !from_donation) {
          for (const auto& [gen, s] : disk.snaps) {
            if (static_cast<double>(s.step) == agreed) {
              chosen = &s;
              chosen_gen = gen;
              break;
            }
          }
        }
        const double all_can = rank.allreduce_min(
            agreed >= 1.0 && (from_shadow || from_donation || chosen != nullptr)
                ? 1.0
                : 0.0);
        if (all_can == 1.0 && recovering) {
          // Donors need to know which revived ranks restore by donation:
          // rank (v+1)%R streams what it holds when v asks for it.
          const std::vector<double> wants =
              rank.allgather(from_donation ? 1.0 : 0.0);
          if (donate_on && wants[static_cast<std::size_t>(pred)] == 1.0) {
            rank.send(pred, kDonationTag, held.state);
            obs::counter_add("par/donations_served", 1);
          }
        }
        agree_scope.reset();
        if (all_can == 1.0) {
          std::optional<obs::ScopeTimer> restore_scope;
          if (recovering) restore_scope.emplace("restore");
          k0 = static_cast<int>(agreed);
          if (from_shadow) {
            std::copy(shadow.u.begin(), shadow.u.end(), u.begin());
            std::copy(shadow.u_prev.begin(), shadow.u_prev.end(),
                      u_prev.begin());
            std::copy(shadow.dku_prev.begin(), shadow.dku_prev.end(),
                      dku_prev.begin());
            // Histories are append-only and bit-identical across replays:
            // rolling back is a truncation.
            for (const auto& [ri, ln] : RV) {
              result.receiver_histories[static_cast<std::size_t>(ri)].resize(
                  static_cast<std::size_t>(k0));
            }
          } else if (from_donation) {
            try {
              restore_from_donation(k0);
            } catch (const DonationError& e) {
              // Tier 2 already is the fallback: with the donation agreed on
              // as the only common state, losing it leaves nothing to roll
              // back to — hand the failure to the full-restart supervisor.
              throw UnrecoverableError(std::string("rollback restore: ") +
                                       e.what());
            }
          } else {
            restore_from_snapshot(*chosen);
            if (disk.newest_corrupt && chosen_gen > 0) {
              // The newest generation existed but failed its CRC; the
              // rotation chain carried an older intact cut instead.
              obs::counter_add("checkpoint/generation_fallbacks", 1);
            }
          }
        } else if (recovering) {
          throw UnrecoverableError(
              "in-place recovery: no usable common checkpoint (agreed step " +
              std::to_string(static_cast<long long>(agreed)) +
              "), falling back to full restart");
        }
      } else if (recovering) {
        throw UnrecoverableError(
            "in-place recovery without checkpointing, falling back");
      }
      if (k0 > 0) {
        obs::counter_add("ckpt/restores", 1);
        obs::counter_add("ckpt/restored_steps", k0);
      } else {
        // Fresh (or retried-from-scratch) start: drop any partial histories
        // a failed attempt appended to this rank's owned receivers.
        for (const auto& [ri, ln] : RV) {
          result.receiver_histories[static_cast<std::size_t>(ri)].clear();
        }
      }
      has_state = true;
      return k0;
    };

    // ---- three-tier recovery agreement (see DESIGN.md "Localized
    // recovery"). Tier 1: the victim restores a donated (or disk) snapshot
    // and replays forward on logged messages while survivors keep their
    // state — zero survivor rollback. Tier 2: the log cannot cover the
    // replay span, so everyone rolls back to the newest common state via
    // attempt_restore (the victim's proposal still includes the donated
    // step). Tier 3 is attempt_restore throwing UnrecoverableError into
    // the full-restart supervisor. Returns this rank's resume step and
    // fills start_of / frontier. ----
    const auto attempt_recover = [&]() -> int {
      const bool victim = !has_state;
      // A donation posted before the failure may still sit unabsorbed on
      // the pred edge: absorb it now — try_recv's epoch fence discards
      // anything stamped before the revival, so only a cut donated in this
      // epoch (i.e. by a surviving pred re-streaming) can land here, and
      // the inventory round below advertises whatever newest generation
      // this rank actually holds.
      if (donate_on) absorb_donations();
      std::optional<obs::ScopeTimer> agree_scope(std::in_place, "agree");
      // Round 1: donation inventory. Every rank advertises the step it
      // holds for its predecessor; victim v reads slot (v+1)%R.
      const std::vector<double> held_steps =
          rank.allgather(donate_on ? static_cast<double>(held.step) : -1.0);
      std::int64_t donated = -1;
      if (victim && held_steps[static_cast<std::size_t>(buddy)] >= 1.0) {
        donated = static_cast<std::int64_t>(
            held_steps[static_cast<std::size_t>(buddy)]);
      }

      // Each victim picks its replay source: the donated snapshot if one
      // is held (a victim whose buddy died with it falls to disk — the
      // buddy's fresh thread advertises -1), else its newest full disk
      // generation. Survivors resume where they stopped (k_done + 1)
      // without touching their state.
      std::int64_t my_start = -1;
      bool use_donation = false;
      std::optional<util::Snapshot> disk_pick;
      bool disk_gen_fallback = false;
      if (!victim) {
        my_start = k_done + 1;
      } else if (log_on) {
        use_donation = donated >= 1;
        my_start = donated;
        if (!use_donation) {
          DiskCands disk = load_disk_candidates();
          for (auto& [gen, s] : disk.snaps) {
            if (s.step > my_start) {
              my_start = s.step;
              disk_gen_fallback = disk.newest_corrupt && gen > 0;
              disk_pick = std::move(s);
            }
          }
        }
      }

      // Round 2: roles (0 = survivor, 1 = victim restoring by donation —
      // its buddy must stream — 2 = victim restoring from disk). Round 3:
      // per-rank resume points. With simultaneous multi-rank failures
      // every rank learns the whole victim set here, so survivors serve
      // each victim's replay span independently.
      const std::vector<double> roles =
          rank.allgather(victim ? (use_donation ? 1.0 : 2.0) : 0.0);
      const std::vector<double> starts =
          rank.allgather(static_cast<double>(my_start));
      int n_victims = 0;
      for (const double role : roles) {
        if (role != 0.0) ++n_victims;
      }

      // Tier-1 feasibility: every rank must be able to re-serve, from its
      // outbound log, every step a behind neighbor will re-consume (steps
      // [start_of[neighbor], my resume point) per edge). This is also
      // what gates OVERLAPPING victims: a ghost edge between two victims
      // at the SAME resume step has an empty span on both sides (they
      // regenerate each other's messages live while marching forward
      // together), but victims at different resume steps would need a
      // span no fresh thread's empty log can serve, so those degrade to
      // tier-2 rollback.
      bool ok = log_on && my_start >= 0;
      for (std::size_t s = 0; ok && s < starts.size(); ++s) {
        ok = starts[s] >= 0.0;
      }
      for (std::size_t nb = 0; ok && nb < L.neighbors.size(); ++nb) {
        const int m = L.neighbors[nb].rank;
        const int lo = static_cast<int>(starts[static_cast<std::size_t>(m)]);
        for (int k = lo; ok && k < static_cast<int>(my_start); ++k) {
          ok = msg_log[nb].contains(k);
        }
      }
      const bool all_ok = rank.allreduce_min(ok ? 1.0 : 0.0) == 1.0;

      if (!all_ok) {
        // Tier 2: donation-aware rollback.
        agree_scope.reset();
        obs::counter_add("par/replay_fallbacks", 1);
        const int k0 = attempt_restore(/*recovering=*/true, donated);
        for (auto& ring : msg_log) ring.clear();
        std::fill(start_of.begin(), start_of.end(), k0);
        frontier = k0;
        return k0;
      }

      // Tier 1. Donors stream what they hold; victims restore; survivors
      // keep their current state.
      if (donate_on && roles[static_cast<std::size_t>(pred)] == 1.0) {
        rank.send(pred, kDonationTag, held.state);
        obs::counter_add("par/donations_served", 1);
      }
      agree_scope.reset();
      bool restore_ok = true;
      {
        std::optional<obs::ScopeTimer> restore_scope(std::in_place,
                                                     "restore");
        if (victim) {
          try {
            if (use_donation) {
              restore_from_donation(static_cast<int>(my_start));
            } else {
              restore_from_snapshot(*disk_pick);
              if (disk_gen_fallback) {
                obs::counter_add("checkpoint/generation_fallbacks", 1);
              }
            }
            obs::counter_add("ckpt/restores", 1);
            obs::counter_add("ckpt/restored_steps",
                             static_cast<std::int64_t>(my_start));
            has_state = true;
          } catch (const DonationError& e) {
            // Broken donation (missed deadline, bad size/step): vote the
            // restore down instead of aborting — every rank degrades to
            // tier-2 together in the confirmation round below.
            std::fprintf(stderr, "[quake::par] rank %d: %s\n", rank.id(),
                         e.what());
            restore_ok = false;
          }
        }
      }
      // Confirmation round, BEFORE any log is served: had a victim's
      // restore failed after survivors already re-served their logs, the
      // replayed messages would sit in FIFO order ahead of the tier-2
      // resume's live traffic and corrupt it. Only a unanimous restore
      // lets replay proceed.
      if (rank.allreduce_min(restore_ok ? 1.0 : 0.0) != 1.0) {
        obs::counter_add("par/replay_fallbacks", 1);
        const int k0 = attempt_restore(/*recovering=*/true, /*donated=*/-1);
        for (auto& ring : msg_log) ring.clear();
        std::fill(start_of.begin(), start_of.end(), k0);
        frontier = k0;
        return k0;
      }
      {
        std::optional<obs::ScopeTimer> replay_scope(std::in_place, "replay");
        for (std::size_t s = 0; s < starts.size(); ++s) {
          start_of[s] = static_cast<int>(starts[s]);
        }
        frontier = 0;
        for (const int s : start_of) frontier = std::max(frontier, s);
        // Re-serve the log in ascending step order per edge, before any
        // live post of this epoch: tagged FIFO delivery plus the epoch
        // fence hands each behind rank exactly the message sequence it
        // would have received from an undisturbed peer. With several
        // victims each edge's span is decoded and served independently.
        for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
          const int m = L.neighbors[nb].rank;
          msg_log[nb].for_each(
              start_of[static_cast<std::size_t>(m)],
              static_cast<int>(my_start),
              [&](int /*step*/, std::span<const double> payload) {
                rank.send(m, /*tag=*/0, payload);
              });
        }
        if (victim) {
          obs::counter_add("par/steps_replayed",
                           frontier - static_cast<int>(my_start));
        }
        // Counted once per recovery event (rank 0 speaks for the
        // agreement), not per rank, so the summed counter reads as "how
        // many times did a single tier-1 pass repair several ranks".
        if (n_victims >= 2 && rank.id() == 0) {
          obs::counter_add("par/multi_victim_replays", 1);
        }
      }
      return static_cast<int>(my_start);
    };

    auto expand = [&](std::vector<double>& x) {
      for (const LocalConstraint& c : L.cons) {
        for (int comp = 0; comp < 3; ++comp) {
          double v = 0.0;
          for (int m = 0; m < c.n; ++m) {
            v += c.weights[static_cast<std::size_t>(m)] *
                 x[3 * static_cast<std::size_t>(
                          c.masters[static_cast<std::size_t>(m)]) +
                   static_cast<std::size_t>(comp)];
          }
          x[3 * static_cast<std::size_t>(c.node) +
            static_cast<std::size_t>(comp)] = v;
        }
      }
    };
    auto accumulate = [&](std::vector<double>& x,
                          const std::vector<LocalConstraint>& cons) {
      for (const LocalConstraint& c : cons) {
        for (int comp = 0; comp < 3; ++comp) {
          const std::size_t hd = 3 * static_cast<std::size_t>(c.node) +
                                 static_cast<std::size_t>(comp);
          for (int m = 0; m < c.n; ++m) {
            x[3 * static_cast<std::size_t>(
                     c.masters[static_cast<std::size_t>(m)]) +
              static_cast<std::size_t>(comp)] +=
                c.weights[static_cast<std::size_t>(m)] * x[hd];
          }
          x[hd] = 0.0;
        }
      }
    };

    // One element-kernel application, shared by both phases of the split.
    double ue[fem::kHexDofs], ye[fem::kHexDofs], de[fem::kHexDofs];
    auto apply_elems = [&](const std::vector<int>& list) {
      for (const int le_i : list) {
        const std::size_t le = static_cast<std::size_t>(le_i);
        const std::size_t ge = static_cast<std::size_t>(L.elems[le]);
        const auto& c = L.conn[le];
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ue[3 * i] = u[base];
          ue[3 * i + 1] = u[base + 1];
          ue[3 * i + 2] = u[base + 2];
        }
        std::fill(ye, ye + fem::kHexDofs, 0.0);
        if (rayleigh) std::fill(de, de + fem::kHexDofs, 0.0);
        const double h = mesh.elem_size[ge];
        const vel::Material& mat = mesh.elem_mat[ge];
        fem::hex_apply(ref, ue, h * mat.lambda, h * mat.mu, ye,
                       rayleigh ? elem_damping[ge].beta : 0.0,
                       rayleigh ? de : nullptr);
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ku[base] += ye[3 * i];
          ku[base + 1] += ye[3 * i + 1];
          ku[base + 2] += ye[3 * i + 2];
          if (rayleigh) {
            dku[base] += de[3 * i];
            dku[base + 1] += de[3 * i + 1];
            dku[base + 2] += de[3 * i + 2];
          }
        }
        flops += fem::hex_apply_flops(rayleigh);
      }
      elem_updates += list.size();
      obs::counter_add("par/elements_processed",
                       static_cast<std::int64_t>(list.size()));
      obs::counter_add("par/element_updates",
                       static_cast<std::int64_t>(list.size()));
    };
    auto apply_faces = [&](const std::vector<RankLocal::Face>& list) {
      if (op_opt.abc != fem::AbcType::kStacey) return;
      double uf[12], yf[12];
      for (const auto& face : list) {
        if (!op_opt.absorbing_sides[static_cast<std::size_t>(face.side)]) {
          continue;
        }
        const std::size_t ge = static_cast<std::size_t>(
            L.elems[static_cast<std::size_t>(face.elem)]);
        const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(face.side)];
        const auto& c = L.conn[static_cast<std::size_t>(face.elem)];
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          uf[3 * i] = u[base];
          uf[3 * i + 1] = u[base + 1];
          uf[3 * i + 2] = u[base + 2];
        }
        std::fill(yf, yf + 12, 0.0);
        fem::face_stacey_apply(mesh.elem_mat[ge], mesh.elem_size[ge],
                               face.side, uf, yf);
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          ku[base] += yf[3 * i];
          ku[base + 1] += yf[3 * i + 1];
          ku[base + 2] += yf[3 * i + 2];
        }
        flops += fem::face_stacey_flops();
      }
    };

    int k_progress = 0;  // last step this rank started (rollback accounting)
    // Runs the steps [k0, n_steps); returns the first step NOT taken —
    // n_steps on a full run, or the collectively-agreed stop step when the
    // run's RunControl cancelled it (all ranks return the same value).
    const auto step_loop = [&](int k0) -> int {
    for (int k = k0; k < n_steps; ++k) {
      QUAKE_OBS_SCOPE("step");
      k_progress = k;

      // ---- cancellation/deadline agreement (service workloads): each rank
      // evaluates its local stop condition and the max-reduction makes the
      // decision collective, so every rank leaves at the same step. The
      // agreement is suppressed below the replay frontier: during tier-1
      // catch-up ranks execute different step ranges, and the anonymous
      // count-based collective must only be issued at steps all of them
      // reach (frontier == k0 on an undisturbed run, so nothing changes
      // there) ----
      if (ctl_active && k >= frontier && k % ctl_every == 0) {
        double want_stop = 0.0;
        if (control.cancel != nullptr &&
            control.cancel->load(std::memory_order_relaxed)) {
          want_stop = 1.0;
        }
        if (control.deadline_seconds > 0.0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_start)
                    .count() >= control.deadline_seconds) {
          want_stop = 1.0;
        }
        if (rank.allreduce_max(want_stop) > 0.0) {
          obs::counter_add("par/steps_cancelled", n_steps - k);
          return k;
        }
      }

      rank.fault_point(k);
      const double t_k = k * dt;

      {
      QUAKE_OBS_SCOPE("compute");  // boundary elements + boundary ABC faces
      compute_watch.start();
      std::fill(ku.begin(), ku.end(), 0.0);
      if (rayleigh) std::fill(dku.begin(), dku.end(), 0.0);
      apply_elems(L.boundary_elems);
      apply_faces(L.boundary_faces);
      // Fold the hanging-node partials that reach shared masters BEFORE the
      // exchange (B^T is linear, so projecting partials and summing
      // commutes with summing and projecting) — this keeps ghost sets
      // surface-sized. Every element feeding these folds is a boundary
      // element, so the posted partials are complete.
      accumulate(ku, L.cons_boundary);
      if (rayleigh) accumulate(dku, L.cons_boundary);
      compute_watch.stop();
      }

      // ---- post: coalesced (ku [+ dku]) per-neighbor messages go out
      // before any interior work, so they are in flight during it ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      {
      QUAKE_OBS_SCOPE("post");
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        auto& buf = L.sendbuf[nb];
        const auto& sh = L.neighbors[nb].shared;
        for (std::size_t i = 0; i < sh.size(); ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(sh[i]);
          buf[3 * i] = ku[base];
          buf[3 * i + 1] = ku[base + 1];
          buf[3 * i + 2] = ku[base + 2];
          if (rayleigh) {
            const std::size_t off = 3 * sh.size();
            buf[off + 3 * i] = dku[base];
            buf[off + 3 * i + 1] = dku[base + 1];
            buf[off + 3 * i + 2] = dku[base + 2];
          }
        }
        // Post only to neighbors that have not already consumed this step
        // (a catching-up rank must not pollute an ahead neighbor's FIFO);
        // log unconditionally so a later recovery can re-serve any span.
        if (k >= start_of[static_cast<std::size_t>(L.neighbors[nb].rank)]) {
          rank.send(L.neighbors[nb].rank, /*tag=*/0, buf);
        }
        if (log_on) msg_log[nb].push(k, buf);
      }
      // Zero the shared entries now; interior work never touches them, and
      // the drain re-accumulates in ascending rank order (sendbuf still
      // holds this rank's own partials).
      for (int li : L.all_shared) {
        const std::size_t base = 3 * static_cast<std::size_t>(li);
        ku[base] = ku[base + 1] = ku[base + 2] = 0.0;
        if (rayleigh) dku[base] = dku[base + 1] = dku[base + 2] = 0.0;
      }
      }
      exchange_watch.stop();
      }

      // ---- overlap window: sources, interior elements, interior ABC
      // faces, and interior hanging-node folds, all while the per-neighbor
      // messages are in flight ----
      {
      QUAKE_OBS_SCOPE("compute");
      compute_watch.start();
      overlap_watch.start();
      std::fill(f.begin(), f.end(), 0.0);
      RankForceSink sink(L.local_of, f);
      for (const solver::SourceModel* s : sources) s->add_forces(t_k, sink);
      accumulate(f, L.cons);
      apply_elems(L.interior_elems);
      apply_faces(L.interior_faces);
      accumulate(ku, L.cons_interior);
      if (rayleigh) accumulate(dku, L.cons_interior);
      overlap_watch.stop();
      compute_watch.stop();
      }

      // ---- drain: park each neighbor's payload as it arrives (any
      // order), then accumulate in ascending rank order once every edge
      // has landed, so every copy of a shared node computes the identical
      // floating-point sum no matter which neighbor was slow; the own
      // partial (recovered from the send buffers) is inserted at this
      // rank's position in the order ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      drain_watch.start();
      {
        QUAKE_OBS_SCOPE("drain");
        rank.fault_point(-k - 1);  // mid-exchange fault point (see FaultPlan)
        {
          // Wait phase: poll every pending edge and park whatever is
          // already there. A fruitless pass yields and re-polls — blocking
          // right away would commit to the lowest pending neighbor and
          // re-serialize the drain on rank order whenever the scheduler
          // simply hadn't run the senders yet. Only after kIdlePassLimit
          // fruitless passes does the drain fall back to a blocking
          // receive: that wait is then genuinely unavoidable, and the
          // blocking receive is what registers this rank in the deadlock
          // detector (diagnosing a stuck exchange, and letting a planned
          // kDelay message flush instead of spinning forever).
          QUAKE_OBS_SCOPE("wait");
          constexpr int kIdlePassLimit = 64;
          std::fill(L.nb_arrived.begin(), L.nb_arrived.end(), 0);
          std::size_t n_pending = L.neighbors.size();
          int idle_passes = 0;
          while (n_pending > 0) {
            std::size_t progressed = 0;
            std::size_t first_pending = L.neighbors.size();
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              if (L.nb_arrived[nb] != 0) continue;
              if (rank.try_recv_into(L.neighbors[nb].rank, /*tag=*/0,
                                     L.recvbuf[nb])) {
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
              // Idle pass: absorb any in-flight buddy donation instead of
              // pure spinning, so the async stream never backs up behind
              // a slow neighbor.
              if (donate_async) absorb_donations();
              std::this_thread::yield();
            } else {
              rank.recv_into(L.neighbors[first_pending].rank, /*tag=*/0,
                             L.recvbuf[first_pending]);
              L.nb_arrived[first_pending] = 1;
              --n_pending;
              idle_passes = 0;
            }
          }
        }
        for (int s = 0; s < R; ++s) {
          if (s == rank.id()) {
            // Own partials: first occurrence across the neighbor lists,
            // precomputed at setup.
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              const auto& sh = L.neighbors[nb].shared;
              const auto& buf = L.sendbuf[nb];
              for (const int i_first : L.own_first[nb]) {
                const std::size_t i = static_cast<std::size_t>(i_first);
                const std::size_t base = 3 * static_cast<std::size_t>(sh[i]);
                ku[base] += buf[3 * i];
                ku[base + 1] += buf[3 * i + 1];
                ku[base + 2] += buf[3 * i + 2];
                if (rayleigh) {
                  const std::size_t off = 3 * sh.size();
                  dku[base] += buf[off + 3 * i];
                  dku[base + 1] += buf[off + 3 * i + 1];
                  dku[base + 2] += buf[off + 3 * i + 2];
                }
              }
            }
            continue;
          }
          const int nbi = L.nb_of_rank[static_cast<std::size_t>(s)];
          if (nbi < 0) continue;
          const auto& msg = L.recvbuf[static_cast<std::size_t>(nbi)];
          const auto& sh = L.neighbors[static_cast<std::size_t>(nbi)].shared;
          for (std::size_t i = 0; i < sh.size(); ++i) {
            const std::size_t base = 3 * static_cast<std::size_t>(sh[i]);
            ku[base] += msg[3 * i];
            ku[base + 1] += msg[3 * i + 1];
            ku[base + 2] += msg[3 * i + 2];
            if (rayleigh) {
              const std::size_t off = 3 * sh.size();
              dku[base] += msg[off + 3 * i];
              dku[base + 1] += msg[off + 3 * i + 1];
              dku[base + 2] += msg[off + 3 * i + 2];
            }
          }
        }
      }
      drain_watch.stop();
      exchange_watch.stop();
      }

      {
      QUAKE_OBS_SCOPE("compute");  // diagonalized lumped update (eq. 2.4)
      compute_watch.start();
      const double dt2 = dt * dt;
      const double hdt = 0.5 * dt;
      for (std::size_t d = 0; d < nd; ++d) {
        double rhs = 2.0 * L.mass[d] * u[d] - dt2 * ku[d] + dt2 * f[d] +
                     (hdt * L.am[d] - L.mass[d]) * u_prev[d] +
                     hdt * L.cab[d] * u_prev[d];
        if (rayleigh) {
          rhs -= hdt * (dku[d] - L.bk[d] * u[d]);
          rhs += hdt * dku_prev[d];
        }
        u_next[d] = rhs * L.inv_lhs[d];
      }
      expand(u_next);
      // Update arithmetic per dof (counted off the expression above):
      // 14 flops for the undamped eq. 2.4 rhs + divide-by-lhs, 6 more on
      // the Rayleigh branch.
      flops += nd * (rayleigh ? 20ull : 14ull);

      std::swap(dku_prev, dku);
      std::swap(u_prev, u);
      std::swap(u, u_next);

      for (const auto& [ri, ln] : RV) {
        const std::size_t base = 3 * static_cast<std::size_t>(ln);
        result.receiver_histories[static_cast<std::size_t>(ri)].push_back(
            {u[base], u[base + 1], u[base + 2]});
      }
      compute_watch.stop();
      }
      // State and histories now fully describe step k: this is the resume
      // point a survivor advertises in recovery agreement (k_done + 1).
      k_done = k;

      // ---- periodic snapshot, barrier-bracketed so the per-rank files of
      // a checkpoint generation form a consistent cut. Suppressed below the
      // replay frontier: a catching-up rank re-crosses checkpoint steps the
      // ahead ranks already took, and the barriers only match once all
      // ranks reach the step together ----
      if (ckpt_on && ft.checkpoint_every > 0 &&
          (k + 1) % ft.checkpoint_every == 0 && k + 1 < n_steps &&
          k >= frontier) {
        QUAKE_OBS_SCOPE("checkpoint");
        rank.barrier();
        util::Snapshot snap;
        snap.step = k + 1;
        snap.add("u", u);
        snap.add("u_prev", u_prev);
        snap.add("dku_prev", dku_prev);
        std::size_t ckpt_doubles = u.size() + u_prev.size() + dku_prev.size();
        for (const auto& [ri, ln] : RV) {
          const auto& hist =
              result.receiver_histories[static_cast<std::size_t>(ri)];
          std::vector<double> flat;
          flat.reserve(3 * hist.size());
          for (const auto& s : hist) flat.insert(flat.end(), s.begin(), s.end());
          ckpt_doubles += flat.size();
          snap.add("recv" + std::to_string(ri), std::move(flat));
        }
        std::string ckpt_err;
        bool saved = false;
        // Transient disk pressure often clears within milliseconds; retry
        // the write twice with a short backoff before declaring it failed.
        for (int a = 0; a < 3 && !saved; ++a) {
          if (a > 0) {
            obs::counter_add("checkpoint/write_retries", 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1 << (a - 1)));
          }
          saved = util::save_snapshot_rotating(path, snap, ckpt_keep, &ckpt_err);
        }
        if (saved) {
          obs::counter_add("ckpt/writes", 1);
          obs::counter_add("ckpt/bytes_written",
                           static_cast<std::int64_t>(8 * ckpt_doubles));
        } else {
          // Persistent disk pressure (ENOSPC, permissions) is survivable:
          // the rotation left the previous generation intact as the restore
          // target, so count it, say so, and keep solving.
          obs::counter_add("checkpoint/write_failures", 1);
          std::fprintf(stderr,
                       "[quake::par] rank %d: checkpoint write at step %d "
                       "failed (%s); continuing on previous snapshot\n",
                       rank.id(), k + 1, ckpt_err.c_str());
        }
        // The in-memory rollback shadow tracks the snapshot cadence even
        // when the disk write fails — survivors roll back from memory, disk
        // only serves the revived rank.
        shadow.step = k + 1;
        shadow.u = u;
        shadow.u_prev = u_prev;
        shadow.dku_prev = dku_prev;
        // ---- survivor state donation: every rank streams this cut
        // ([step | state | owned histories], self-contained for a restore)
        // to its buddy (r+1)%R and holds its predecessor's in thread-local
        // memory. Sends are mailbox posts, so the ring-shift exchange
        // cannot deadlock; both barriers bracketing this block guarantee
        // the capture either completes on every rank or on none ----
        if (donate_on) {
          std::vector<double> pay;
          pay.reserve(1 + 3 * nd +
                      3 * static_cast<std::size_t>(k + 1) * rv_count);
          pay.push_back(static_cast<double>(k + 1));
          pay.insert(pay.end(), u.begin(), u.end());
          pay.insert(pay.end(), u_prev.begin(), u_prev.end());
          pay.insert(pay.end(), dku_prev.begin(), dku_prev.end());
          for (const auto& [ri, ln] : RV) {
            const auto& hist =
                result.receiver_histories[static_cast<std::size_t>(ri)];
            for (const auto& s : hist) {
              pay.insert(pay.end(), s.begin(), s.end());
            }
          }
          rank.send(buddy, kDonationTag, pay);
          if (donate_async) {
            // Asynchronous absorb: the closing barrier below proves pred's
            // send already landed in this rank's mailbox, so the post-
            // barrier drain is non-blocking and the measured wait is ~0.
            // (Absorbing may also have happened opportunistically in the
            // drain's idle passes.)
            rank.barrier();
            util::StopWatch w;
            w.start();
            absorb_donations();
            w.stop();
            obs::scope_record("recover/donate/wait", w.total_seconds());
          } else {
            // Synchronous baseline (A/B reference): block on the stream
            // before releasing the barrier, charging the full ring-shift
            // latency to the checkpoint.
            util::StopWatch w;
            w.start();
            std::vector<double> got = rank.recv(pred, kDonationTag);
            w.stop();
            obs::scope_record("recover/donate/wait", w.total_seconds());
            if (!got.empty()) {
              held.step = static_cast<std::int64_t>(got[0]);
              held.state = std::move(got);
            }
            rank.barrier();
          }
        } else {
          rank.barrier();
        }
        // Message-log ring reset point: everything before this cut can be
        // restored by donation or disk, so only steps >= k+1 ever need
        // replaying. (The ring capacity already enforces the bound; no
        // explicit trim is needed for correctness.)
      }
    }
    return n_steps;
    };  // step_loop

    const auto finish = [&] {
    // Gather: each rank writes its owned nodes (owners are unique).
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      result.u_final[g] = u[3 * i];
      result.u_final[g + 1] = u[3 * i + 1];
      result.u_final[g + 2] = u[3 * i + 2];
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

    auto& st = result.rank_stats[r];
    st.n_elems = L.elems.size();
    st.n_boundary_elems = L.boundary_elems.size();
    st.n_interior_elems = L.interior_elems.size();
    st.n_local_nodes = L.nodes.size();
    st.n_neighbors = L.neighbors.size();
    st.doubles_sent_per_step = L.doubles_per_step;
    st.flops = flops;
    st.element_updates = elem_updates;
    st.compute_seconds = compute_watch.total_seconds();
    st.exchange_seconds = exchange_watch.total_seconds();
    st.overlap_fraction = overlap_fraction;

    // Partition-shape gauges; their across-rank min/mean/max in the merged
    // report is the load-imbalance view of Table 2.1.
    obs::gauge_set("par/n_elems", static_cast<double>(L.elems.size()));
    obs::gauge_set("par/n_boundary_elems",
                   static_cast<double>(L.boundary_elems.size()));
    obs::gauge_set("par/n_interior_elems",
                   static_cast<double>(L.interior_elems.size()));
    obs::gauge_set("par/n_local_nodes", static_cast<double>(L.nodes.size()));
    obs::gauge_set("par/n_neighbors", static_cast<double>(L.neighbors.size()));
    obs::gauge_set("par/doubles_sent_per_step",
                   static_cast<double>(L.doubles_per_step));
    obs::gauge_set("par/compute_seconds", compute_watch.total_seconds());
    obs::gauge_set("par/exchange_seconds", exchange_watch.total_seconds());
    obs::gauge_set("par/overlap_fraction", overlap_fraction);
    if (log_on) {
      // Compressed vs raw footprint of the tier-1 message-log rings:
      // stored = delta-encoded bytes actually held, raw = what the same
      // span would cost uncompressed. The ratio is the compression the
      // doubled ring capacity is funded by.
      std::size_t stored = 0, raw = 0;
      for (const auto& ring : msg_log) {
        stored += ring.stored_bytes();
        raw += ring.raw_bytes();
      }
      obs::gauge_set("par/log_bytes", static_cast<double>(stored));
      obs::gauge_set("par/log_raw_bytes", static_cast<double>(raw));
    }

    // ---- telemetry gather: ship every registry to rank 0 and merge ------
    // Registries are snapshotted/encoded BEFORE the gather messages move,
    // so the reports describe the solve, not the gather itself.
    if (obs::enabled()) {
      if (rank.id() == 0) {
        std::vector<obs::RankReport> reports;
        reports.reserve(static_cast<std::size_t>(R));
        reports.push_back(obs::RankReport{0, rank_regs[0]});
        for (int s = 1; s < R; ++s) {
          reports.push_back(obs::decode_report(rank.recv(s, kObsGatherTag)));
        }
        result.obs_summary = obs::merge_reports(reports);
        result.obs_reports = std::move(reports);
      } else {
        rank.send(0, kObsGatherTag,
                  obs::encode_report(obs::RankReport{rank.id(), rank_regs[r]}));
      }
    }
    };  // finish

    // ---- epoch loop: solve; on a rank failure (in-place recovery armed)
    // park until the communicator is repaired, then roll back and replay.
    // Survivors keep their partition, ghost plans, and exchange buffers —
    // nothing above this loop is re-run on a recovery. ----
    int last_fail_step = -1;  // k_progress at the most recent local failure
    bool recovering = rank.revived();  // respawned ranks join mid-recovery
    for (;;) {
      try {
        int k0 = 0;
        if (recovering) {
          QUAKE_OBS_SCOPE("recover");
          obs::gauge_set("par/epoch", static_cast<double>(rank.epoch()));
          // Recovery-phase fault point: a planned Kill with step =
          // INT_MIN + epoch dies during this recovery (see FaultPlan).
          rank.fault_point(std::numeric_limits<int>::min() +
                           static_cast<int>(rank.epoch()));
          k0 = attempt_recover();
          {
            // Rendezvous before re-entering the step loop; this scope's
            // time is the wait for the slowest rank's restore (usually the
            // revived rank taking its donated snapshot off the wire).
            QUAKE_OBS_SCOPE("resume");
            rank.barrier();
          }
          if (last_fail_step >= 0) {
            // Zero on the tier-1 replay path by construction: a survivor
            // resumes at k_done + 1, exactly where it stopped.
            obs::counter_add("par/steps_rolled_back",
                             std::max(0, last_fail_step - k0));
          }
          recovering = false;
        } else {
          k0 = attempt_restore(/*recovering=*/false, /*donated=*/-1);
          std::fill(start_of.begin(), start_of.end(), k0);
          frontier = k0;
        }
        k_done = k0 - 1;
        k_progress = k0;
        const int stop_k = step_loop(k0);
        finish();
        // The cancel agreement guarantees every rank stops at the same
        // step; rank 0 records it (threads are joined before run()
        // returns, so this write is visible to the caller).
        if (rank.id() == 0 && stop_k < n_steps) {
          result.cancelled = true;
          result.steps_completed = stop_k;
        }
        break;
      } catch (const RankFailedError&) {
        // A peer died. With in-place recovery armed, park this thread —
        // state intact — until run()'s monitor revives the dead rank, then
        // take another lap through the restore agreement. Otherwise (or
        // when recovery is abandoned) rethrow into the full-restart
        // supervisor.
        if (!in_place) throw;
        last_fail_step = k_progress;
        if (!rank.await_recovery()) throw;
        obs::counter_add("par/recoveries", 1);
        recovering = true;
      }
    }
  };

  // ---- supervised execution: rewind to the last checkpoint and retry on
  // rank failure, with exponential backoff; deadlocks are deterministic
  // program errors and surface immediately ----
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
      if (ft.backoff_base_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            ft.backoff_base_seconds * std::ldexp(1.0, attempt)));
      }
      ++attempt;
    }
  }
  result.revives_used = revives_total;
  if (ckpt_on) {
    // The run completed; its snapshots are obsolete (and would otherwise
    // short-circuit an unrelated future run pointed at the same directory).
    for (int rr = 0; rr < R; ++rr) {
      const std::string path = ckpt_path(ft.checkpoint_dir, rr);
      for (int gen = 0; gen <= ckpt_keep; ++gen) {
        std::remove(util::snapshot_generation_path(path, gen).c_str());
      }
      std::remove((path + ".tmp").c_str());
    }
  }

  return result;
}

// ---------------------------------------------------------------------------
// run_batch: S scenarios through one SPMD step loop. The structure is run()
// with every per-dof array widened to S lanes (scenario-major) and all
// fault-tolerance machinery removed — batched requests carry no FT by the
// serving layer's coalescing contract (see docs/BATCHING.md). Lane s of
// every array takes exactly the floating-point operation sequence run()
// would apply to scenario s alone (lane loops are innermost everywhere, and
// the drain keeps its ascending-rank order), which is what makes batch
// results bitwise identical to sequential ones.
// ---------------------------------------------------------------------------

std::vector<ParallelResult> ParallelSetup::Impl::run_batch(
    double t_end, std::span<const BatchScenario> scenarios,
    const RunControl& control) {
  const std::lock_guard<std::mutex> run_lock(run_mutex);
  const int S_i = static_cast<int>(scenarios.size());
  if (S_i < 1 || S_i > fem::kMaxBatchLanes) {
    throw std::invalid_argument("run_batch: scenario count must be in [1, " +
                                std::to_string(fem::kMaxBatchLanes) + "]");
  }
  const std::size_t S = scenarios.size();
  const int n_steps = static_cast<int>(std::ceil(t_end / dt));

  std::vector<ParallelResult> results(S);
  for (std::size_t s = 0; s < S; ++s) {
    results[s].dt = dt;
    results[s].n_steps = n_steps;
    results[s].steps_completed = n_steps;
    results[s].u_final.assign(3 * mesh.n_nodes(), 0.0);
    results[s].rank_stats.assign(static_cast<std::size_t>(R), {});
    results[s].receiver_histories.assign(scenarios[s].receivers.size(), {});
  }

  // Per-rank receiver assignment, now (lane, receiver, local node) triples.
  struct RecvRef {
    int lane;
    int ri;
    int ln;
  };
  std::vector<std::vector<RecvRef>> recv_of(static_cast<std::size_t>(R));
  const solver::NodeLocator nodes(mesh);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t ri = 0; ri < scenarios[s].receivers.size(); ++ri) {
      const mesh::NodeId n = nodes.nearest(scenarios[s].receivers[ri]);
      const int owner = part.node_owner[static_cast<std::size_t>(n)];
      const auto it = locals[static_cast<std::size_t>(owner)].local_of.find(n);
      if (it == locals[static_cast<std::size_t>(owner)].local_of.end()) {
        throw std::invalid_argument(
            "run_batch: scenario " + std::to_string(s) + " receiver " +
            std::to_string(ri) + " snaps to node " + std::to_string(n) +
            ", which no element touches (orphan node)");
      }
      recv_of[static_cast<std::size_t>(owner)].push_back(
          {static_cast<int>(s), static_cast<int>(ri), it->second});
      results[s].receiver_histories[ri].reserve(
          static_cast<std::size_t>(n_steps));
    }
  }

  // Batched exchange buffers: the scalar buffers' layout with every entry
  // widened to S lanes — ku section at [(3*i + c) * S + s], dku (when
  // Rayleigh damping is on) at offset 3 * shared * S.
  const std::size_t pack = rayleigh ? 2u : 1u;
  for (auto& L : locals) {
    L.sendbuf_b.resize(L.neighbors.size());
    L.recvbuf_b.resize(L.neighbors.size());
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      const std::size_t n_sh = L.neighbors[nb].shared.size();
      L.sendbuf_b[nb].assign(pack * 3 * n_sh * S, 0.0);
      L.recvbuf_b[nb].assign(pack * 3 * n_sh * S, 0.0);
    }
  }

  // Plain-communicator policy: no injected faults, no deadline on blocking
  // ops, no in-place recovery. A rank failure surfaces to the caller.
  comm.clear_fault_plan();
  comm.set_timeout(0.0);
  comm.set_recovery({false, 0});

  const bool ctl_active = control.active();
  const int ctl_every = std::max(1, control.check_every);
  const auto run_start = std::chrono::steady_clock::now();

  const fem::HexReference& ref = fem::HexReference::get();
  const auto elem_damping = op.element_damping();
  std::vector<obs::Registry> rank_regs(static_cast<std::size_t>(R));
  int agreed_stop = n_steps;  // written by rank 0, read after join

  const auto spmd_body = [&](Rank& rank) {
    const std::size_t r = static_cast<std::size_t>(rank.id());
    const obs::ScopedRegistry obs_install(rank_regs[r]);
    RankLocal& L = locals[r];
    const auto& RV = recv_of[r];
    const std::size_t nd = 3 * L.nodes.size();
    const std::size_t nb_len = nd * S;
    std::vector<double> u(nb_len, 0.0), u_prev(nb_len, 0.0),
        u_next(nb_len, 0.0);
    std::vector<double> f(nb_len, 0.0), ku(nb_len, 0.0), dku(nb_len, 0.0),
        dku_prev(nb_len, 0.0);

    util::StopWatch compute_watch, exchange_watch, overlap_watch, drain_watch;
    std::uint64_t flops = 0;
    std::uint64_t elem_updates = 0;
    obs::counter_add("comm/msgs_sent", 0);
    obs::counter_add("comm/bytes_sent", 0);
    obs::gauge_set("par/dt", dt);
    obs::gauge_set("par/batch_width", static_cast<double>(S));

    auto expand_b = [&](std::vector<double>& x) {
      for (const LocalConstraint& c : L.cons) {
        for (int comp = 0; comp < 3; ++comp) {
          const std::size_t hd =
              (3 * static_cast<std::size_t>(c.node) +
               static_cast<std::size_t>(comp)) *
              S;
          for (std::size_t s = 0; s < S; ++s) {
            double v = 0.0;
            for (int m = 0; m < c.n; ++m) {
              v += c.weights[static_cast<std::size_t>(m)] *
                   x[(3 * static_cast<std::size_t>(
                            c.masters[static_cast<std::size_t>(m)]) +
                      static_cast<std::size_t>(comp)) *
                         S +
                     s];
            }
            x[hd + s] = v;
          }
        }
      }
    };
    auto accumulate_b = [&](std::vector<double>& x,
                            const std::vector<LocalConstraint>& cons) {
      for (const LocalConstraint& c : cons) {
        for (int comp = 0; comp < 3; ++comp) {
          const std::size_t hd =
              (3 * static_cast<std::size_t>(c.node) +
               static_cast<std::size_t>(comp)) *
              S;
          for (int m = 0; m < c.n; ++m) {
            const std::size_t md =
                (3 * static_cast<std::size_t>(
                         c.masters[static_cast<std::size_t>(m)]) +
                 static_cast<std::size_t>(comp)) *
                S;
            const double w = c.weights[static_cast<std::size_t>(m)];
            for (std::size_t s = 0; s < S; ++s) x[md + s] += w * x[hd + s];
          }
          for (std::size_t s = 0; s < S; ++s) x[hd + s] = 0.0;
        }
      }
    };

    double ue[fem::kHexDofs * fem::kMaxBatchLanes];
    double ye[fem::kHexDofs * fem::kMaxBatchLanes];
    double de[fem::kHexDofs * fem::kMaxBatchLanes];
    auto apply_elems_b = [&](const std::vector<int>& list) {
      for (const int le_i : list) {
        const std::size_t le = static_cast<std::size_t>(le_i);
        const std::size_t ge = static_cast<std::size_t>(L.elems[le]);
        const auto& c = L.conn[le];
        for (int i = 0; i < 8; ++i) {
          // Per node the 3 components x S lanes are one contiguous run.
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]) * S;
          std::copy(u.begin() + static_cast<std::ptrdiff_t>(base),
                    u.begin() + static_cast<std::ptrdiff_t>(base + 3 * S),
                    ue + 3 * static_cast<std::size_t>(i) * S);
        }
        std::fill(ye, ye + fem::kHexDofs * S, 0.0);
        if (rayleigh) std::fill(de, de + fem::kHexDofs * S, 0.0);
        const double h = mesh.elem_size[ge];
        const vel::Material& mat = mesh.elem_mat[ge];
        fem::hex_apply_batch(ref, ue, S_i, h * mat.lambda, h * mat.mu, ye,
                             rayleigh ? elem_damping[ge].beta : 0.0,
                             rayleigh ? de : nullptr);
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]) * S;
          const std::size_t eb = 3 * static_cast<std::size_t>(i) * S;
          for (std::size_t t = 0; t < 3 * S; ++t) ku[base + t] += ye[eb + t];
          if (rayleigh) {
            for (std::size_t t = 0; t < 3 * S; ++t) {
              dku[base + t] += de[eb + t];
            }
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
    };
    auto apply_faces_b = [&](const std::vector<RankLocal::Face>& list) {
      if (op_opt.abc != fem::AbcType::kStacey) return;
      double uf[12], yf[12];
      for (const auto& face : list) {
        if (!op_opt.absorbing_sides[static_cast<std::size_t>(face.side)]) {
          continue;
        }
        const std::size_t ge = static_cast<std::size_t>(
            L.elems[static_cast<std::size_t>(face.elem)]);
        const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(face.side)];
        const auto& c = L.conn[static_cast<std::size_t>(face.elem)];
        // The face kernel is tiny (4 nodes); run it per lane with strided
        // gathers instead of widening it. Per-lane op order is the scalar
        // kernel's, trivially.
        for (std::size_t s = 0; s < S; ++s) {
          for (int i = 0; i < 4; ++i) {
            const std::size_t base =
                3 *
                static_cast<std::size_t>(
                    c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]) *
                S;
            uf[3 * i] = u[base + s];
            uf[3 * i + 1] = u[base + S + s];
            uf[3 * i + 2] = u[base + 2 * S + s];
          }
          std::fill(yf, yf + 12, 0.0);
          fem::face_stacey_apply(mesh.elem_mat[ge], mesh.elem_size[ge],
                                 face.side, uf, yf);
          for (int i = 0; i < 4; ++i) {
            const std::size_t base =
                3 *
                static_cast<std::size_t>(
                    c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]) *
                S;
            ku[base + s] += yf[3 * i];
            ku[base + S + s] += yf[3 * i + 1];
            ku[base + 2 * S + s] += yf[3 * i + 2];
          }
          flops += fem::face_stacey_flops();
        }
      }
    };

    int stop_k = n_steps;
    for (int k = 0; k < n_steps; ++k) {
      QUAKE_OBS_SCOPE("step");

      // Whole-batch cancellation/deadline agreement, as in run().
      if (ctl_active && k % ctl_every == 0) {
        double want_stop = 0.0;
        if (control.cancel != nullptr &&
            control.cancel->load(std::memory_order_relaxed)) {
          want_stop = 1.0;
        }
        if (control.deadline_seconds > 0.0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_start)
                    .count() >= control.deadline_seconds) {
          want_stop = 1.0;
        }
        if (rank.allreduce_max(want_stop) > 0.0) {
          obs::counter_add("par/steps_cancelled", n_steps - k);
          stop_k = k;
          break;
        }
      }

      const double t_k = k * dt;

      {
      QUAKE_OBS_SCOPE("compute");  // boundary elements + boundary ABC faces
      compute_watch.start();
      std::fill(ku.begin(), ku.end(), 0.0);
      if (rayleigh) std::fill(dku.begin(), dku.end(), 0.0);
      apply_elems_b(L.boundary_elems);
      apply_faces_b(L.boundary_faces);
      accumulate_b(ku, L.cons_boundary);
      if (rayleigh) accumulate_b(dku, L.cons_boundary);
      compute_watch.stop();
      }

      // ---- post: one coalesced message per neighbor carries all S lanes --
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      {
      QUAKE_OBS_SCOPE("post");
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        auto& buf = L.sendbuf_b[nb];
        const auto& sh = L.neighbors[nb].shared;
        for (std::size_t i = 0; i < sh.size(); ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(sh[i]) * S;
          std::copy(ku.begin() + static_cast<std::ptrdiff_t>(base),
                    ku.begin() + static_cast<std::ptrdiff_t>(base + 3 * S),
                    buf.begin() + static_cast<std::ptrdiff_t>(3 * i * S));
          if (rayleigh) {
            const std::size_t off = 3 * sh.size() * S;
            std::copy(dku.begin() + static_cast<std::ptrdiff_t>(base),
                      dku.begin() + static_cast<std::ptrdiff_t>(base + 3 * S),
                      buf.begin() +
                          static_cast<std::ptrdiff_t>(off + 3 * i * S));
          }
        }
        rank.send(L.neighbors[nb].rank, /*tag=*/0, buf);
      }
      for (int li : L.all_shared) {
        const std::size_t base = 3 * static_cast<std::size_t>(li) * S;
        for (std::size_t t = 0; t < 3 * S; ++t) ku[base + t] = 0.0;
        if (rayleigh) {
          for (std::size_t t = 0; t < 3 * S; ++t) dku[base + t] = 0.0;
        }
      }
      }
      exchange_watch.stop();
      }

      // ---- overlap window: per-lane sources, interior work ----
      {
      QUAKE_OBS_SCOPE("compute");
      compute_watch.start();
      overlap_watch.start();
      std::fill(f.begin(), f.end(), 0.0);
      for (std::size_t s = 0; s < S; ++s) {
        RankLaneForceSink sink(L.local_of, f, S_i, static_cast<int>(s));
        for (const solver::SourceModel* src : scenarios[s].sources) {
          src->add_forces(t_k, sink);
        }
      }
      accumulate_b(f, L.cons);
      apply_elems_b(L.interior_elems);
      apply_faces_b(L.interior_faces);
      accumulate_b(ku, L.cons_interior);
      if (rayleigh) accumulate_b(dku, L.cons_interior);
      overlap_watch.stop();
      compute_watch.stop();
      }

      // ---- drain: park payloads in arrival order, then accumulate in
      // ascending rank order, 3*S contiguous doubles per shared node, so
      // each lane's shared sum takes the scalar path's order ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      drain_watch.start();
      {
        QUAKE_OBS_SCOPE("drain");
        {
          // Wait phase: identical protocol to run()'s drain (poll all
          // pending edges, park arrivals, yield and re-poll on a fruitless
          // pass, block on the lowest pending neighbor only after
          // kIdlePassLimit passes in a row made no progress).
          QUAKE_OBS_SCOPE("wait");
          constexpr int kIdlePassLimit = 64;
          std::fill(L.nb_arrived.begin(), L.nb_arrived.end(), 0);
          std::size_t n_pending = L.neighbors.size();
          int idle_passes = 0;
          while (n_pending > 0) {
            std::size_t progressed = 0;
            std::size_t first_pending = L.neighbors.size();
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              if (L.nb_arrived[nb] != 0) continue;
              if (rank.try_recv_into(L.neighbors[nb].rank, /*tag=*/0,
                                     L.recvbuf_b[nb])) {
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
              std::this_thread::yield();
            } else {
              rank.recv_into(L.neighbors[first_pending].rank, /*tag=*/0,
                             L.recvbuf_b[first_pending]);
              L.nb_arrived[first_pending] = 1;
              --n_pending;
              idle_passes = 0;
            }
          }
        }
        for (int s = 0; s < R; ++s) {
          if (s == rank.id()) {
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              const auto& sh = L.neighbors[nb].shared;
              const auto& buf = L.sendbuf_b[nb];
              for (const int i_first : L.own_first[nb]) {
                const std::size_t i = static_cast<std::size_t>(i_first);
                const std::size_t base =
                    3 * static_cast<std::size_t>(sh[i]) * S;
                const std::size_t bb = 3 * i * S;
                for (std::size_t t = 0; t < 3 * S; ++t) {
                  ku[base + t] += buf[bb + t];
                }
                if (rayleigh) {
                  const std::size_t off = 3 * sh.size() * S;
                  for (std::size_t t = 0; t < 3 * S; ++t) {
                    dku[base + t] += buf[off + bb + t];
                  }
                }
              }
            }
            continue;
          }
          const int nbi = L.nb_of_rank[static_cast<std::size_t>(s)];
          if (nbi < 0) continue;
          const auto& msg = L.recvbuf_b[static_cast<std::size_t>(nbi)];
          const auto& sh = L.neighbors[static_cast<std::size_t>(nbi)].shared;
          for (std::size_t i = 0; i < sh.size(); ++i) {
            const std::size_t base = 3 * static_cast<std::size_t>(sh[i]) * S;
            const std::size_t bb = 3 * i * S;
            for (std::size_t t = 0; t < 3 * S; ++t) {
              ku[base + t] += msg[bb + t];
            }
            if (rayleigh) {
              const std::size_t off = 3 * sh.size() * S;
              for (std::size_t t = 0; t < 3 * S; ++t) {
                dku[base + t] += msg[off + bb + t];
              }
            }
          }
        }
      }
      drain_watch.stop();
      exchange_watch.stop();
      }

      {
      QUAKE_OBS_SCOPE("compute");  // eq. 2.4, lane loop innermost
      compute_watch.start();
      const double dt2 = dt * dt;
      const double hdt = 0.5 * dt;
      for (std::size_t d = 0; d < nd; ++d) {
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
          u_next[b + s] = rhs * L.inv_lhs[d];
        }
      }
      expand_b(u_next);
      // Same per-dof update count as run(), times the S lanes.
      flops += S * nd * (rayleigh ? 20ull : 14ull);

      std::swap(dku_prev, dku);
      std::swap(u_prev, u);
      std::swap(u, u_next);

      for (const RecvRef& rv : RV) {
        const std::size_t base = 3 * static_cast<std::size_t>(rv.ln) * S;
        const std::size_t s = static_cast<std::size_t>(rv.lane);
        results[s].receiver_histories[static_cast<std::size_t>(rv.ri)]
            .push_back({u[base + s], u[base + S + s], u[base + 2 * S + s]});
      }
      compute_watch.stop();
      }
    }

    // ---- finish: scatter each lane's owned nodes into its result ----
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      const std::size_t base = 3 * i * S;
      for (std::size_t s = 0; s < S; ++s) {
        results[s].u_final[g] = u[base + s];
        results[s].u_final[g + 1] = u[base + S + s];
        results[s].u_final[g + 2] = u[base + 2 * S + s];
      }
    }

    const double overlap_s = overlap_watch.total_seconds();
    const double drain_s = drain_watch.total_seconds();
    const double overlap_fraction =
        (L.neighbors.empty() || overlap_s + drain_s <= 0.0)
            ? 0.0
            : overlap_s / (overlap_s + drain_s);
    // Every lane shares the one batched execution, so each result carries
    // the same per-rank stats; the exchange volume is the batched message
    // size (S times the scalar volume, for one message round).
    ParallelResult::RankStats st;
    st.n_elems = L.elems.size();
    st.n_boundary_elems = L.boundary_elems.size();
    st.n_interior_elems = L.interior_elems.size();
    st.n_local_nodes = L.nodes.size();
    st.n_neighbors = L.neighbors.size();
    st.doubles_sent_per_step = L.doubles_per_step * S;
    st.flops = flops;
    st.element_updates = elem_updates;
    st.compute_seconds = compute_watch.total_seconds();
    st.exchange_seconds = exchange_watch.total_seconds();
    st.overlap_fraction = overlap_fraction;
    for (std::size_t s = 0; s < S; ++s) results[s].rank_stats[r] = st;

    obs::gauge_set("par/n_elems", static_cast<double>(L.elems.size()));
    obs::gauge_set("par/doubles_sent_per_step",
                   static_cast<double>(L.doubles_per_step * S));
    obs::gauge_set("par/compute_seconds", compute_watch.total_seconds());
    obs::gauge_set("par/exchange_seconds", exchange_watch.total_seconds());
    obs::gauge_set("par/overlap_fraction", overlap_fraction);

    // Telemetry gather to rank 0, attached to the first lane's result (the
    // batch ran once; duplicating reports per lane would double-count).
    if (obs::enabled()) {
      if (rank.id() == 0) {
        std::vector<obs::RankReport> reports;
        reports.reserve(static_cast<std::size_t>(R));
        reports.push_back(obs::RankReport{0, rank_regs[0]});
        for (int s = 1; s < R; ++s) {
          reports.push_back(obs::decode_report(rank.recv(s, kObsGatherTag)));
        }
        results[0].obs_summary = obs::merge_reports(reports);
        results[0].obs_reports = std::move(reports);
      } else {
        rank.send(0, kObsGatherTag,
                  obs::encode_report(obs::RankReport{rank.id(), rank_regs[r]}));
      }
    }
    if (rank.id() == 0) agreed_stop = stop_k;
  };

  comm.run(spmd_body);
  if (agreed_stop < n_steps) {
    for (auto& res : results) {
      res.cancelled = true;
      res.steps_completed = agreed_stop;
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// run_lts: one solve under clustered local time stepping. The structure is
// run() with the fault-tolerance machinery removed and every sweep list
// replaced by its per-class (element/face) or per-rate (node/constraint/
// exchange) sublists; at fine step k the classes/rates with lg <=
// countr_zero(k) are active, visited in ascending lg order. A mesh that
// clusters into a single class takes every list whole and in the original
// order, so the run is bitwise identical to run() — the anchor lts_test
// pins. See src/lts/include/quake/lts/lts_solver.hpp for the scheme (state
// convention, interpolation bracket, scheduling invariant); docs/LTS.md for
// the correctness argument.
// ---------------------------------------------------------------------------

// The clustering plus everything per-rank that derives from it. Built once
// per max_rate (under run_mutex) and reused across run_lts calls on this
// setup, like RankLocal is across run() calls.
struct ParallelSetup::Impl::LtsPlan {
  lts::Clustering cl;

  struct NbPlan {
    // Positions into the neighbor's `shared` list, grouped by node rate.
    // A step-k message is the rate-major concatenation over active rates
    // (lg ascending) of 3 doubles per listed node — both sides derive the
    // same layout from the same global rates, so lengths and node order
    // agree without any handshake.
    std::vector<std::vector<int>> sh_of_rate;
    // Of own_first (this rank's once-only own-partial positions), the
    // entries of each rate, as {position in shared, slot in the concat}.
    std::vector<std::vector<std::array<int, 2>>> own_of_rate;
    // Shared-node count over rates <= lg: the step-k message holds
    // 3 * count_upto[min(C_k, n-1)] doubles; zero-length edges skip the
    // send and the drain entirely.
    std::vector<std::size_t> count_upto;
  };

  struct RankPlan {
    // Per-class sublists of the boundary/interior split, original order.
    std::vector<std::vector<int>> bnd_elems, int_elems;
    std::vector<std::vector<RankLocal::Face>> bnd_faces, int_faces;
    // Per-rate update lists: local node indices (ascending) and the
    // constraint groups whose nodes carry that rate (a group shares one
    // rate by the clustering fold), in L.cons order.
    std::vector<std::vector<int>> nodes_of_rate;
    std::vector<std::vector<LocalConstraint>> cons_of_rate;
    // all_shared filtered by rate: the entries to re-zero after a post.
    std::vector<std::vector<int>> shared_of_rate;
    std::vector<NbPlan> nbs;
    // Per-local-dof update coefficients for dt_n = 2^lg * dt (ldexp is
    // exact, so lg = 0 dofs reproduce run()'s coefficients bitwise).
    std::vector<double> dt2n, hdtn, inv_lhs;
    std::vector<std::uint8_t> node_lg;  // per local node
  };
  std::vector<RankPlan> ranks;
};

const ParallelSetup::Impl::LtsPlan& ParallelSetup::Impl::get_lts_plan(
    int max_rate) {
  if (lts_plan != nullptr && lts_plan_max_rate == max_rate) return *lts_plan;
  auto plan = std::make_unique<LtsPlan>();
  plan->cl = lts::cluster_elements(mesh, dt, cfl, max_rate);
  const lts::Clustering& cl = plan->cl;
  const std::size_t nc = static_cast<std::size_t>(cl.n_classes);

  plan->ranks.resize(static_cast<std::size_t>(R));
  for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
    const RankLocal& L = locals[r];
    LtsPlan::RankPlan& rp = plan->ranks[r];

    const auto elem_class = [&](int le) {
      return cl.elem_class_log2[static_cast<std::size_t>(
          L.elems[static_cast<std::size_t>(le)])];
    };
    rp.bnd_elems.resize(nc);
    rp.int_elems.resize(nc);
    rp.bnd_faces.resize(nc);
    rp.int_faces.resize(nc);
    for (const int le : L.boundary_elems) rp.bnd_elems[elem_class(le)].push_back(le);
    for (const int le : L.interior_elems) rp.int_elems[elem_class(le)].push_back(le);
    for (const RankLocal::Face& face : L.boundary_faces) {
      rp.bnd_faces[elem_class(face.elem)].push_back(face);
    }
    for (const RankLocal::Face& face : L.interior_faces) {
      rp.int_faces[elem_class(face.elem)].push_back(face);
    }

    const std::size_t nl = L.nodes.size();
    rp.node_lg.resize(nl);
    rp.nodes_of_rate.resize(nc);
    for (std::size_t i = 0; i < nl; ++i) {
      rp.node_lg[i] =
          cl.node_rate_log2[static_cast<std::size_t>(L.nodes[i])];
      rp.nodes_of_rate[rp.node_lg[i]].push_back(static_cast<int>(i));
    }
    rp.cons_of_rate.resize(nc);
    for (const LocalConstraint& c : L.cons) {
      rp.cons_of_rate[rp.node_lg[static_cast<std::size_t>(c.node)]].push_back(
          c);
    }
    rp.shared_of_rate.resize(nc);
    for (const int li : L.all_shared) {
      rp.shared_of_rate[rp.node_lg[static_cast<std::size_t>(li)]].push_back(li);
    }

    rp.dt2n.resize(3 * nl);
    rp.hdtn.resize(3 * nl);
    rp.inv_lhs.resize(3 * nl);
    for (std::size_t i = 0; i < nl; ++i) {
      const double dtn = std::ldexp(dt, rp.node_lg[i]);
      for (int c = 0; c < 3; ++c) {
        const std::size_t d = 3 * i + static_cast<std::size_t>(c);
        rp.dt2n[d] = dtn * dtn;
        rp.hdtn[d] = 0.5 * dtn;
        const double lhs =
            L.mass[d] + 0.5 * dtn * (L.am[d] + L.bk[d] + L.cab[d]);
        rp.inv_lhs[d] = lhs > 0.0 ? 1.0 / lhs : 0.0;
      }
    }

    rp.nbs.resize(L.neighbors.size());
    for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
      const auto& sh = L.neighbors[nb].shared;
      LtsPlan::NbPlan& np = rp.nbs[nb];
      np.sh_of_rate.resize(nc);
      np.own_of_rate.resize(nc);
      np.count_upto.assign(nc, 0);
      for (std::size_t i = 0; i < sh.size(); ++i) {
        np.sh_of_rate[rp.node_lg[static_cast<std::size_t>(sh[i])]].push_back(
            static_cast<int>(i));
      }
      // Concat slot of each position, rate-major — fixed across steps
      // because active rates always form the prefix lg <= C_k.
      std::vector<int> slot_of(sh.size(), 0);
      int slot = 0;
      for (std::size_t lg = 0; lg < nc; ++lg) {
        for (const int i : np.sh_of_rate[lg]) {
          slot_of[static_cast<std::size_t>(i)] = slot++;
        }
        np.count_upto[lg] =
            static_cast<std::size_t>(slot);
      }
      for (const int i : L.own_first[nb]) {
        const std::uint8_t lg =
            rp.node_lg[static_cast<std::size_t>(sh[static_cast<std::size_t>(i)])];
        np.own_of_rate[lg].push_back(
            {i, slot_of[static_cast<std::size_t>(i)]});
      }
    }
  }

  lts_plan = std::move(plan);
  lts_plan_max_rate = max_rate;
  return *lts_plan;
}

ParallelResult ParallelSetup::Impl::run_lts(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const lts::LtsOptions& lts, const RunControl& control) {
  if (!lts.enabled) {
    // Global-dt path, untouched: same code, same bits as before LTS existed.
    return run(t_end, sources, receiver_positions, FaultToleranceOptions{},
               control);
  }
  if (rayleigh) {
    throw std::invalid_argument(
        "run_lts: Rayleigh damping couples u^{k-1} across rates; use the "
        "global-dt path");
  }
  const std::lock_guard<std::mutex> run_lock(run_mutex);
  const LtsPlan& plan = get_lts_plan(lts.max_rate);
  const lts::Clustering& cl = plan.cl;
  const int n_classes = cl.n_classes;
  const int n_steps = static_cast<int>(std::ceil(t_end / dt));

  ParallelResult result;
  result.dt = dt;
  result.n_steps = n_steps;
  result.steps_completed = n_steps;
  result.u_final.assign(3 * mesh.n_nodes(), 0.0);
  result.rank_stats.assign(static_cast<std::size_t>(R), {});
  result.receiver_histories.assign(receiver_positions.size(), {});

  std::vector<std::vector<std::pair<int, int>>> recv_of(
      static_cast<std::size_t>(R));
  const solver::NodeLocator nodes(mesh);
  for (std::size_t ri = 0; ri < receiver_positions.size(); ++ri) {
    const mesh::NodeId n = nodes.nearest(receiver_positions[ri]);
    const int owner = part.node_owner[static_cast<std::size_t>(n)];
    const auto it = locals[static_cast<std::size_t>(owner)].local_of.find(n);
    if (it == locals[static_cast<std::size_t>(owner)].local_of.end()) {
      throw std::invalid_argument(
          "run_lts: receiver " + std::to_string(ri) + " snaps to node " +
          std::to_string(n) + ", which no element touches (orphan node)");
    }
    recv_of[static_cast<std::size_t>(owner)].push_back(
        {static_cast<int>(ri), it->second});
    result.receiver_histories[ri].reserve(static_cast<std::size_t>(n_steps));
  }

  // Plain-communicator policy, as in run_batch: no injected faults, no
  // deadline on blocking ops, no in-place recovery.
  comm.clear_fault_plan();
  comm.set_timeout(0.0);
  comm.set_recovery({false, 0});

  const bool ctl_active = control.active();
  const int ctl_every = std::max(1, control.check_every);
  const auto run_start = std::chrono::steady_clock::now();

  const fem::HexReference& ref = fem::HexReference::get();
  std::vector<obs::Registry> rank_regs(static_cast<std::size_t>(R));
  int agreed_stop = n_steps;  // written by rank 0, read after join

  const auto spmd_body = [&](Rank& rank) {
    const std::size_t r = static_cast<std::size_t>(rank.id());
    const obs::ScopedRegistry obs_install(rank_regs[r]);
    RankLocal& L = locals[r];
    const LtsPlan::RankPlan& rp = plan.ranks[r];
    const auto& RV = recv_of[r];
    const std::size_t nd = 3 * L.nodes.size();
    // un is the time-k field the kernels read: the interpolation bracket
    // (u_prev, u) of every node evaluated at the current fine step.
    std::vector<double> u(nd, 0.0), u_prev(nd, 0.0), un(nd, 0.0);
    std::vector<double> f(nd, 0.0), ku(nd, 0.0);

    util::StopWatch compute_watch, exchange_watch, overlap_watch, drain_watch;
    std::uint64_t flops = 0;
    std::uint64_t elem_updates = 0;
    std::uint64_t doubles_sent = 0;
    obs::counter_add("comm/msgs_sent", 0);
    obs::counter_add("comm/bytes_sent", 0);
    obs::gauge_set("par/dt", dt);
    obs::gauge_set("par/lts_n_classes", static_cast<double>(n_classes));

    // Active-cadence cap at fine step k: rates/classes lg <= cap(k) run.
    const auto active_cap = [&](int k) {
      return k == 0 ? n_classes - 1
                    : std::min(n_classes - 1,
                               std::countr_zero(static_cast<unsigned>(k)));
    };

    auto accumulate = [&](std::vector<double>& x,
                          const std::vector<LocalConstraint>& cons) {
      for (const LocalConstraint& c : cons) {
        for (int comp = 0; comp < 3; ++comp) {
          const std::size_t hd = 3 * static_cast<std::size_t>(c.node) +
                                 static_cast<std::size_t>(comp);
          for (int m = 0; m < c.n; ++m) {
            x[3 * static_cast<std::size_t>(
                     c.masters[static_cast<std::size_t>(m)]) +
              static_cast<std::size_t>(comp)] +=
                c.weights[static_cast<std::size_t>(m)] * x[hd];
          }
          x[hd] = 0.0;
        }
      }
    };

    double ue[fem::kHexDofs], ye[fem::kHexDofs];
    auto apply_elems = [&](const std::vector<int>& list) {
      for (const int le_i : list) {
        const std::size_t le = static_cast<std::size_t>(le_i);
        const std::size_t ge = static_cast<std::size_t>(L.elems[le]);
        const auto& c = L.conn[le];
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ue[3 * i] = un[base];
          ue[3 * i + 1] = un[base + 1];
          ue[3 * i + 2] = un[base + 2];
        }
        std::fill(ye, ye + fem::kHexDofs, 0.0);
        const double h = mesh.elem_size[ge];
        const vel::Material& mat = mesh.elem_mat[ge];
        fem::hex_apply(ref, ue, h * mat.lambda, h * mat.mu, ye, 0.0, nullptr);
        for (int i = 0; i < 8; ++i) {
          const std::size_t base =
              3 * static_cast<std::size_t>(c[static_cast<std::size_t>(i)]);
          ku[base] += ye[3 * i];
          ku[base + 1] += ye[3 * i + 1];
          ku[base + 2] += ye[3 * i + 2];
        }
        flops += fem::hex_apply_flops(false);
      }
      elem_updates += list.size();
      obs::counter_add("par/elements_processed",
                       static_cast<std::int64_t>(list.size()));
      obs::counter_add("par/element_updates",
                       static_cast<std::int64_t>(list.size()));
    };
    auto apply_faces = [&](const std::vector<RankLocal::Face>& list) {
      if (op_opt.abc != fem::AbcType::kStacey) return;
      double uf[12], yf[12];
      for (const auto& face : list) {
        if (!op_opt.absorbing_sides[static_cast<std::size_t>(face.side)]) {
          continue;
        }
        const std::size_t ge = static_cast<std::size_t>(
            L.elems[static_cast<std::size_t>(face.elem)]);
        const auto& fn = mesh::kFaceNodes[static_cast<std::size_t>(face.side)];
        const auto& c = L.conn[static_cast<std::size_t>(face.elem)];
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          uf[3 * i] = un[base];
          uf[3 * i + 1] = un[base + 1];
          uf[3 * i + 2] = un[base + 2];
        }
        std::fill(yf, yf + 12, 0.0);
        fem::face_stacey_apply(mesh.elem_mat[ge], mesh.elem_size[ge],
                               face.side, uf, yf);
        for (int i = 0; i < 4; ++i) {
          const std::size_t base = 3 * static_cast<std::size_t>(
              c[static_cast<std::size_t>(fn[static_cast<std::size_t>(i)])]);
          ku[base] += yf[3 * i];
          ku[base + 1] += yf[3 * i + 1];
          ku[base + 2] += yf[3 * i + 2];
        }
        flops += fem::face_stacey_flops();
      }
    };

    // The node's bracket (u_prev, u) evaluated at fine step k_target, for
    // one node. A node of rate p active at k_target holds u = u^{k_target}
    // exactly (m == 0 takes u directly — bitwise for rate-1 nodes); a stale
    // node interpolates linearly inside its bracket.
    const auto node_at = [&](std::size_t li, int k_target, double* out) {
      const int lg = rp.node_lg[li];
      const int m = k_target & ((1 << lg) - 1);
      const std::size_t base = 3 * li;
      if (m == 0) {
        out[0] = u[base];
        out[1] = u[base + 1];
        out[2] = u[base + 2];
      } else {
        const double th =
            static_cast<double>(m) / static_cast<double>(1 << lg);
        for (int c = 0; c < 3; ++c) {
          out[c] = u_prev[base + static_cast<std::size_t>(c)] +
                   th * (u[base + static_cast<std::size_t>(c)] -
                         u_prev[base + static_cast<std::size_t>(c)]);
        }
      }
    };

    int stop_k = n_steps;
    for (int k = 0; k < n_steps; ++k) {
      QUAKE_OBS_SCOPE("step");

      if (ctl_active && k % ctl_every == 0) {
        double want_stop = 0.0;
        if (control.cancel != nullptr &&
            control.cancel->load(std::memory_order_relaxed)) {
          want_stop = 1.0;
        }
        if (control.deadline_seconds > 0.0 &&
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_start)
                    .count() >= control.deadline_seconds) {
          want_stop = 1.0;
        }
        if (rank.allreduce_max(want_stop) > 0.0) {
          obs::counter_add("par/steps_cancelled", n_steps - k);
          stop_k = k;
          break;
        }
      }

      const double t_k = k * dt;
      const int cap = active_cap(k);

      {
      QUAKE_OBS_SCOPE("compute");  // time-k gather + boundary classes
      compute_watch.start();
      for (std::size_t i = 0; i < L.nodes.size(); ++i) {
        node_at(i, k, un.data() + 3 * i);
      }
      std::fill(ku.begin(), ku.end(), 0.0);
      for (int c = 0; c <= cap; ++c) {
        apply_elems(rp.bnd_elems[static_cast<std::size_t>(c)]);
        apply_faces(rp.bnd_faces[static_cast<std::size_t>(c)]);
      }
      // Full boundary fold, active or not: an inactive constraint group
      // shares one (inactive) cadence, so its garbage partials land only on
      // inactive masters — never sent (compacted out of the message) and
      // never read (the update skips them). Active groups fold complete
      // partials by the scheduling invariant. Keeping the fold whole is
      // what keeps the single-class run on run()'s exact operation order.
      accumulate(ku, L.cons_boundary);
      compute_watch.stop();
      }

      // ---- post: per-neighbor messages carry only active-rate shared
      // nodes, rate-major; a coarse-only edge goes quiet between its
      // updates (zero-length messages are skipped on both sides) ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      {
      QUAKE_OBS_SCOPE("post");
      for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
        const LtsPlan::NbPlan& np = rp.nbs[nb];
        const std::size_t len =
            3 * np.count_upto[static_cast<std::size_t>(cap)];
        if (len == 0) continue;
        auto& buf = L.sendbuf[nb];
        const auto& sh = L.neighbors[nb].shared;
        std::size_t o = 0;
        for (int lg = 0; lg <= cap; ++lg) {
          for (const int i : np.sh_of_rate[static_cast<std::size_t>(lg)]) {
            const std::size_t base = 3 * static_cast<std::size_t>(
                sh[static_cast<std::size_t>(i)]);
            buf[o] = ku[base];
            buf[o + 1] = ku[base + 1];
            buf[o + 2] = ku[base + 2];
            o += 3;
          }
        }
        rank.send(L.neighbors[nb].rank, /*tag=*/0,
                  std::span<const double>(buf.data(), len));
        doubles_sent += len;
      }
      // Re-zero the active shared entries (the drain rebuilds them in
      // ascending rank order); stale-rate entries keep their garbage, which
      // the next full ku zero clears before anyone could read it.
      for (int lg = 0; lg <= cap; ++lg) {
        for (const int li : rp.shared_of_rate[static_cast<std::size_t>(lg)]) {
          const std::size_t base = 3 * static_cast<std::size_t>(li);
          ku[base] = ku[base + 1] = ku[base + 2] = 0.0;
        }
      }
      }
      exchange_watch.stop();
      }

      // ---- overlap window: sources, interior classes ----
      {
      QUAKE_OBS_SCOPE("compute");
      compute_watch.start();
      overlap_watch.start();
      std::fill(f.begin(), f.end(), 0.0);
      RankForceSink sink(L.local_of, f);
      for (const solver::SourceModel* s : sources) s->add_forces(t_k, sink);
      accumulate(f, L.cons);
      for (int c = 0; c <= cap; ++c) {
        apply_elems(rp.int_elems[static_cast<std::size_t>(c)]);
        apply_faces(rp.int_faces[static_cast<std::size_t>(c)]);
      }
      accumulate(ku, L.cons_interior);
      overlap_watch.stop();
      compute_watch.stop();
      }

      // ---- drain: run()'s protocol over the edges that sent this step ----
      {
      QUAKE_OBS_SCOPE("exchange");
      exchange_watch.start();
      drain_watch.start();
      {
        QUAKE_OBS_SCOPE("drain");
        {
          QUAKE_OBS_SCOPE("wait");
          constexpr int kIdlePassLimit = 64;
          std::size_t n_pending = 0;
          for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
            // Quiet edges (no active shared nodes) are pre-marked arrived.
            const std::size_t len =
                3 * rp.nbs[nb].count_upto[static_cast<std::size_t>(cap)];
            L.nb_arrived[nb] = len == 0 ? 1 : 0;
            n_pending += len == 0 ? 0 : 1;
          }
          int idle_passes = 0;
          while (n_pending > 0) {
            std::size_t progressed = 0;
            std::size_t first_pending = L.neighbors.size();
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              if (L.nb_arrived[nb] != 0) continue;
              const std::size_t len =
                  3 * rp.nbs[nb].count_upto[static_cast<std::size_t>(cap)];
              if (rank.try_recv_into(
                      L.neighbors[nb].rank, /*tag=*/0,
                      std::span<double>(L.recvbuf[nb].data(), len))) {
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
              std::this_thread::yield();
            } else {
              const std::size_t len =
                  3 * rp.nbs[first_pending]
                          .count_upto[static_cast<std::size_t>(cap)];
              rank.recv_into(
                  L.neighbors[first_pending].rank, /*tag=*/0,
                  std::span<double>(L.recvbuf[first_pending].data(), len));
              L.nb_arrived[first_pending] = 1;
              --n_pending;
              idle_passes = 0;
            }
          }
        }
        for (int s = 0; s < R; ++s) {
          if (s == rank.id()) {
            for (std::size_t nb = 0; nb < L.neighbors.size(); ++nb) {
              const auto& sh = L.neighbors[nb].shared;
              const auto& buf = L.sendbuf[nb];
              const LtsPlan::NbPlan& np = rp.nbs[nb];
              for (int lg = 0; lg <= cap; ++lg) {
                for (const auto& [i, slot] :
                     np.own_of_rate[static_cast<std::size_t>(lg)]) {
                  const std::size_t base = 3 * static_cast<std::size_t>(
                      sh[static_cast<std::size_t>(i)]);
                  const std::size_t bb = 3 * static_cast<std::size_t>(slot);
                  ku[base] += buf[bb];
                  ku[base + 1] += buf[bb + 1];
                  ku[base + 2] += buf[bb + 2];
                }
              }
            }
            continue;
          }
          const int nbi = L.nb_of_rank[static_cast<std::size_t>(s)];
          if (nbi < 0) continue;
          const auto& msg = L.recvbuf[static_cast<std::size_t>(nbi)];
          const auto& sh = L.neighbors[static_cast<std::size_t>(nbi)].shared;
          const LtsPlan::NbPlan& np = rp.nbs[static_cast<std::size_t>(nbi)];
          std::size_t o = 0;
          for (int lg = 0; lg <= cap; ++lg) {
            for (const int i : np.sh_of_rate[static_cast<std::size_t>(lg)]) {
              const std::size_t base = 3 * static_cast<std::size_t>(
                  sh[static_cast<std::size_t>(i)]);
              ku[base] += msg[o];
              ku[base + 1] += msg[o + 1];
              ku[base + 2] += msg[o + 2];
              o += 3;
            }
          }
        }
      }
      drain_watch.stop();
      exchange_watch.stop();
      }

      {
      QUAKE_OBS_SCOPE("compute");  // eq. 2.4 over active rates, in place
      compute_watch.start();
      for (int lg = 0; lg <= cap; ++lg) {
        const auto& list = rp.nodes_of_rate[static_cast<std::size_t>(lg)];
        for (const int li : list) {
          const std::size_t base = 3 * static_cast<std::size_t>(li);
          for (int c = 0; c < 3; ++c) {
            const std::size_t d = base + static_cast<std::size_t>(c);
            const double rhs = 2.0 * L.mass[d] * u[d] - rp.dt2n[d] * ku[d] +
                               rp.dt2n[d] * f[d] +
                               (rp.hdtn[d] * L.am[d] - L.mass[d]) * u_prev[d] +
                               rp.hdtn[d] * L.cab[d] * u_prev[d];
            const double u_new = rhs * rp.inv_lhs[d];
            u_prev[d] = u[d];
            u[d] = u_new;
          }
        }
        flops += 3ull * list.size() * 14ull;
        // Per-rate hanging-node expansion: the group shares this cadence,
        // so its masters hold fresh u exactly when the group expands.
        for (const LocalConstraint& c :
             rp.cons_of_rate[static_cast<std::size_t>(lg)]) {
          for (int comp = 0; comp < 3; ++comp) {
            double v = 0.0;
            for (int m = 0; m < c.n; ++m) {
              v += c.weights[static_cast<std::size_t>(m)] *
                   u[3 * static_cast<std::size_t>(
                            c.masters[static_cast<std::size_t>(m)]) +
                     static_cast<std::size_t>(comp)];
            }
            u[3 * static_cast<std::size_t>(c.node) +
              static_cast<std::size_t>(comp)] = v;
          }
        }
      }

      // Receivers read the time-(k+1) field through the same bracket
      // (direct u for rate-1 nodes — bitwise against run()).
      for (const auto& [ri, ln] : RV) {
        double s[3];
        node_at(static_cast<std::size_t>(ln), k + 1, s);
        result.receiver_histories[static_cast<std::size_t>(ri)].push_back(
            {s[0], s[1], s[2]});
      }
      compute_watch.stop();
      }
    }

    // ---- finish: every node's bracket evaluated at the stop step (direct
    // u on a class-1 run or wherever the rate divides stop_k) ----
    for (std::size_t i = 0; i < L.nodes.size(); ++i) {
      if (L.owned[i] == 0) continue;
      double s[3];
      node_at(i, stop_k, s);
      const std::size_t g = 3 * static_cast<std::size_t>(L.nodes[i]);
      result.u_final[g] = s[0];
      result.u_final[g + 1] = s[1];
      result.u_final[g + 2] = s[2];
    }

    const double overlap_s = overlap_watch.total_seconds();
    const double drain_s = drain_watch.total_seconds();
    const double overlap_fraction =
        (L.neighbors.empty() || overlap_s + drain_s <= 0.0)
            ? 0.0
            : overlap_s / (overlap_s + drain_s);

    auto& st = result.rank_stats[r];
    st.n_elems = L.elems.size();
    st.n_boundary_elems = L.boundary_elems.size();
    st.n_interior_elems = L.interior_elems.size();
    st.n_local_nodes = L.nodes.size();
    st.n_neighbors = L.neighbors.size();
    st.doubles_sent_per_step =
        doubles_sent / static_cast<std::size_t>(std::max(1, stop_k));
    st.flops = flops;
    st.element_updates = elem_updates;
    st.compute_seconds = compute_watch.total_seconds();
    st.exchange_seconds = exchange_watch.total_seconds();
    st.overlap_fraction = overlap_fraction;

    const std::uint64_t global_updates =
        static_cast<std::uint64_t>(std::max(0, stop_k)) *
        static_cast<std::uint64_t>(L.elems.size());
    obs::gauge_set("par/n_elems", static_cast<double>(L.elems.size()));
    obs::gauge_set("par/doubles_sent_per_step",
                   static_cast<double>(st.doubles_sent_per_step));
    obs::gauge_set("par/lts_updates_saved_ratio",
                   elem_updates > 0 ? static_cast<double>(global_updates) /
                                          static_cast<double>(elem_updates)
                                    : 1.0);
    obs::gauge_set("par/compute_seconds", compute_watch.total_seconds());
    obs::gauge_set("par/exchange_seconds", exchange_watch.total_seconds());
    obs::gauge_set("par/overlap_fraction", overlap_fraction);

    if (obs::enabled()) {
      if (rank.id() == 0) {
        std::vector<obs::RankReport> reports;
        reports.reserve(static_cast<std::size_t>(R));
        reports.push_back(obs::RankReport{0, rank_regs[0]});
        for (int s = 1; s < R; ++s) {
          reports.push_back(obs::decode_report(rank.recv(s, kObsGatherTag)));
        }
        result.obs_summary = obs::merge_reports(reports);
        result.obs_reports = std::move(reports);
      } else {
        rank.send(0, kObsGatherTag,
                  obs::encode_report(obs::RankReport{rank.id(), rank_regs[r]}));
      }
    }
    if (rank.id() == 0) agreed_stop = stop_k;
  };

  comm.run(spmd_body);
  if (agreed_stop < n_steps) {
    result.cancelled = true;
    result.steps_completed = agreed_stop;
  }
  return result;
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
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(impl_->R));
  for (int r = 0; r < impl_->R; ++r) {
    const auto& nbs = impl_->locals[static_cast<std::size_t>(r)].neighbors;
    adj[static_cast<std::size_t>(r)].reserve(nbs.size());
    for (const auto& nb : nbs) {
      adj[static_cast<std::size_t>(r)].push_back(nb.rank);
    }
    std::sort(adj[static_cast<std::size_t>(r)].begin(),
              adj[static_cast<std::size_t>(r)].end());
  }
  return adj;
}

int ParallelSetup::n_steps(double t_end) const {
  return static_cast<int>(std::ceil(t_end / impl_->dt));
}

ParallelResult ParallelSetup::run(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft, const RunControl& control) {
  return impl_->run(t_end, sources, receiver_positions, ft, control);
}

std::vector<ParallelResult> ParallelSetup::run_batch(
    double t_end, std::span<const BatchScenario> scenarios,
    const RunControl& control) {
  return impl_->run_batch(t_end, scenarios, control);
}

ParallelResult ParallelSetup::run_lts(
    double t_end, std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const lts::LtsOptions& lts, const RunControl& control) {
  return impl_->run_lts(t_end, sources, receiver_positions, lts, control);
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
