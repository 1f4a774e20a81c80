#pragma once

// SPMD explicit wave propagation: the serial update of eq. 2.4 run on a
// partitioned mesh. Each rank owns a contiguous SFC chunk of elements,
// holds copies of every node its elements touch (plus hanging-constraint
// masters as ghosts), computes element-local partial stiffness products,
// and exchanges partial sums on shared nodes each step — the communication
// pattern of the paper's MPI solver.
//
// Communication hiding: each rank's elements are split at setup into a
// boundary set (touching any shared node, directly or through a hanging-
// node constraint) and an interior set. A step computes boundary partials
// first, posts the coalesced per-neighbor messages, computes everything
// interior while those messages are in flight, and only then drains and
// sums — the classic interior/halo overlap of the paper's MPI solver.
//
// One step loop serves every mode and every rank count — a serial run is
// this loop at one rank (partition_sfc(mesh, 1)), where there is no
// exchange. It is parameterized by a per-rank rate schedule — global dt is
// the schedule with one rate class, clustered local time stepping one with
// several — and by a lane count S, the number of scenarios advanced in
// lockstep (S = 1 is the solo layout). ParallelSetup::solve is its one
// entry point: its LtsOptions choose the schedule, its scenario count S,
// and its fault tolerance composes with both. Three per-run hooks ride on
// every mode they compose with (see RunControl): initial conditions, the
// component mask (SolverOptions::fixed_components), and a snapshot
// callback every k steps.
//
// Determinism: the full sum at a shared node is accumulated in ascending
// rank order on every copy, so all copies of a node compute bit-identical
// updates, a run at a given rank count is exactly repeatable, and the
// parallel run matches the serial run to rounding (not bitwise: each rank
// pre-folds its own elements' contributions before the exchange, which
// regroups the floating-point sum relative to the serial element order;
// at one rank there is no exchange and the match is bitwise).

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "quake/lts/clustering.hpp"
#include "quake/mesh/hex_mesh.hpp"
#include "quake/obs/report.hpp"
#include "quake/par/partition.hpp"
#include "quake/solver/elastic_operator.hpp"
#include "quake/solver/source.hpp"

namespace quake::par {

struct FaultPlan;  // communicator.hpp

struct ParallelResult {
  std::vector<double> u_final;  // gathered full-length displacement
  int n_steps = 0;
  double dt = 0.0;

  // Cooperative early stop (see RunControl): true when the run agreed to
  // stop at a step boundary before n_steps; steps_completed is the agreed
  // stop step (== n_steps on a full run). State and receiver histories
  // cover exactly steps_completed steps.
  bool cancelled = false;
  int steps_completed = 0;

  // In-place revival rounds this run consumed, summed across supervised
  // restarts (0 on a clean run). Always populated, independent of the obs
  // enable flag — the service health snapshot reads it.
  int revives_used = 0;

  struct RankStats {
    std::size_t n_elems = 0;
    std::size_t n_boundary_elems = 0;  // touch a shared node (sent early)
    std::size_t n_interior_elems = 0;  // computed while messages fly
    std::size_t n_local_nodes = 0;
    std::size_t n_neighbors = 0;
    std::size_t doubles_sent_per_step = 0;  // communication volume
    std::uint64_t flops = 0;                // total over the run
    // Element-kernel applications over the run (the `par/element_updates`
    // counter's value): steps x elements under global dt, less under LTS
    // where coarse clusters skip steps — summed over ranks and divided
    // into n_steps * total elements it yields the updates-saved ratio.
    std::uint64_t element_updates = 0;
    double compute_seconds = 0.0;
    double exchange_seconds = 0.0;
    // Fraction of the exchange hidden behind interior compute:
    // overlap_window / (overlap_window + drain_wait); 0 with no neighbors.
    double overlap_fraction = 0.0;
  };
  std::vector<RankStats> rank_stats;

  // Telemetry (populated, in the first lane's result only, when quake::obs
  // is enabled after the rank threads join): each rank's metric registry,
  // obs_reports[r] for rank r, plus their min/mean/max-across-ranks merge.
  // Supervised retries accumulate into the same per-rank registries, so a
  // recovered run's report includes the work of its failed attempts.
  std::vector<obs::RankReport> obs_reports;
  obs::MergedReport obs_summary;

  // One history per requested receiver (displacement per step).
  std::vector<std::vector<std::array<double, 3>>> receiver_histories;
};

// Fault-tolerance policy of a solve (see DESIGN.md "Fault tolerance &
// checkpointing" and "Localized recovery"). With a checkpoint directory
// set, each rank writes a CRC32-verified snapshot of its state (u, u_prev,
// dku_prev, step counter, owned receiver histories) every
// `checkpoint_every` steps, retaining the last two generations per rank; a
// snapshot that fails to write (e.g. ENOSPC) is logged and counted
// (`checkpoint/write_failures`) and the solve continues with the previous
// generation as the restore target. A batch's cut holds all of its lanes,
// so every tier below recovers a batch as it does one scenario.
//
// Recovery is three-tiered (see DESIGN.md "Localized recovery"). With
// `max_revives` > 0 a rank failure is first repaired IN PLACE — surviving
// rank threads park with their partition, ghost plans, and exchange
// buffers intact; only the dead rank's thread is respawned. When no rank
// survives (a one-rank solve, or every rank dead at one step) every rank
// is respawned and restores its newest cut, so the in-place tiers need no
// survivor:
//
//  * Tier 1 (replay, the common path): each revived rank restores the
//    newest donated buddy snapshot (or its newest disk generation) and
//    replays forward using the delta-compressed per-neighbor outbound
//    message logs the survivors kept. Survivors keep their current state,
//    re-serve the log, and roll back ZERO steps. Several simultaneously
//    failed ranks recover concurrently on this tier as long as no two
//    victims share a ghost edge (disjoint victims — survivors serve each
//    victim's log independently; `par/multi_victim_replays` counts these).
//    Donation is on whenever in-place recovery is armed on more than one
//    rank: each cut is posted fire-and-forget to buddy rank (r+1)%R, which
//    absorbs it without blocking, holds it in memory and donates it back on
//    revival, so the victim restores without touching disk and the step
//    loop gains no synchronous wait (`recover/donate/wait` times the
//    absorb).
//  * Tier 2 (donation + rollback): when the log cannot cover the replay
//    span (ring overflow, overlapping victims, a donation that timed out
//    or failed its integrity check), every rank rolls back to the newest
//    common state — in-memory shadows for survivors, the donated buddy
//    snapshot or a disk generation for the revived rank.
//  * Tier 3 (full restart): when no common state exists or the revival
//    budget is spent, the supervisor rewinds every rank to the last
//    agreed snapshot and re-runs, up to `max_retries` times. Detected
//    deadlocks are never retried (they are deterministic program errors).
//
// All tiers resume bit-identically to an uninterrupted run.
struct FaultToleranceOptions {
  std::string checkpoint_dir;         // empty = checkpointing off
  int checkpoint_every = 0;           // steps between snapshots (0 = off)
  int max_retries = 0;                // supervised restarts on rank failure
  int max_revives = 0;                // in-place rank revivals before full
                                      // restart (0 = always full-restart)
  const FaultPlan* fault_plan = nullptr;  // injected faults (testing)

  // Outbound message log retained per neighbor for tier-1 replay, in steps:
  // -1 = auto (2 * checkpoint_every + 8: two checkpoint intervals plus
  // exchange slack — the delta-compressed rings make the longer span cost
  // about what one uncompressed interval did, and it keeps replay feasible
  // when a donation generation is lost with the thread holding it), 0 =
  // logging off (every in-place recovery falls back to tier-2 rollback),
  // > 0 = explicit ring capacity. The log is armed when in-place recovery
  // is (a checkpoint directory and max_revives > 0) and this is not 0; an
  // LTS solve rejects an armed log, since its step messages change length
  // with the active rate classes.
  int message_log_steps = -1;
};

// Per-run control of a solve, in every mode. With none of its fields set
// the step loop allocates nothing for it and does no extra per-dof work.
//
// Cooperative stop (service workloads): a cancel flag and a wall-clock
// deadline, both checked at step boundaries. At every step each rank
// evaluates its local stop condition and the ranks agree by all-reduce, so
// all of them leave the step loop at the same step and the exchange
// pattern never tears. With no flag and no deadline the step loop carries
// zero extra synchronization.
//
// Initial conditions: full-length (3 * n_nodes) displacement and velocity
// at t = 0; an empty span is a quiescent field. The start is second order:
// u^0 = B u0 and u^{-1} = u^0 - dt_n v0 + dt_n^2 / 2 a0, with
// a0 = M^{-1} (f(0) - (K + K^AB) u^0) (damping is left out of a0; its
// effect on the start is O(dt^3)) and dt_n each node's own step (dt under
// global dt, 2^rate dt under LTS). They compose with every schedule and
// with fault tolerance: a full restart starts over from them. A wrong
// length, or initial conditions on a batch of more than one scenario,
// throw std::invalid_argument.
//
// Snapshot: called every `snapshot_every` steps (after steps every,
// 2 * every, ...) with the step index, t = step * dt, the displacement
// u^step and the velocity (u^step - u^{step-1}) / dt, both gathered to
// full length in global node order (views valid during the call only). It
// runs on rank 0's thread between two barriers, so every rank waits for it. Supported under global dt with one
// scenario at any rank count, together with cancel/deadline. It throws
// std::invalid_argument with snapshot_every < 1, with fault-tolerance
// options (checkpoint directory, retries or a fault plan: a replayed step
// would fire twice), with more than one scenario, or on a multi-class LTS
// schedule.
struct RunControl {
  const std::atomic<bool>* cancel = nullptr;  // set by another thread
  double deadline_seconds = 0.0;  // wall-clock budget from run start; 0 = none

  std::span<const double> initial_u, initial_v;  // empty = quiescent

  using SnapshotFn =
      std::function<void(int step, double t, std::span<const double> u,
                         std::span<const double> v)>;
  SnapshotFn snapshot;     // empty = no snapshots
  int snapshot_every = 0;  // steps between snapshot calls

  // Whether the cooperative stop is armed.
  [[nodiscard]] bool active() const {
    return cancel != nullptr || deadline_seconds > 0.0;
  }
};

// One scenario of a solve (see ParallelSetup::solve and docs/BATCHING.md):
// its sources and receiver positions. Sources are non-owning and must
// outlive the solve.
struct BatchScenario {
  std::vector<const solver::SourceModel*> sources;
  std::vector<std::array<double, 3>> receivers;
};

// The reusable setup phase of the parallel solver — everything run_parallel
// builds before the SPMD launch, amortized across many solves (the paper's
// point: mesh/setup is expensive, each solve is O(N) per step). Holds the
// ElasticOperator, the per-rank ghost plans, the global-dt schedule (with
// the communication-hiding element split), the persistent exchange
// buffers, and the communicator; `solve` executes scenarios (sources,
// receivers, duration) on that fixed discretization. The referenced mesh
// and partition must outlive the setup.
//
// dt is part of the shared discretization: it is fixed at construction
// (from `base.dt` or the CFL bound), so every scenario through one setup
// integrates on the same time axis and a warm run is bit-identical to a
// cold run with the same options. So is the component mask
// `base.fixed_components`. The constructor throws std::invalid_argument
// when that dt is not positive and finite (e.g. cfl_fraction <= 0); solve
// and n_steps throw it for a t_end that is not positive and finite, or
// that would take more than INT_MAX steps.
//
// Runs are serialized internally (the exchange buffers are part of the
// shared state); concurrent callers queue on a mutex.
class ParallelSetup {
 public:
  ParallelSetup(const mesh::HexMesh& mesh, const Partition& part,
                const solver::OperatorOptions& op_opt,
                const solver::SolverOptions& base);
  ~ParallelSetup();
  ParallelSetup(const ParallelSetup&) = delete;
  ParallelSetup& operator=(const ParallelSetup&) = delete;

  [[nodiscard]] double dt() const;
  [[nodiscard]] int n_ranks() const;
  [[nodiscard]] const mesh::HexMesh& mesh() const;
  // The nearest-node locator over mesh(), built once with the setup: the
  // solves snap receivers through it, and sources built against it
  // (solver::PointSource / FaultSource's locator overloads) skip building
  // their own.
  [[nodiscard]] const solver::NodeLocator& node_locator() const;
  // Steps a scenario of duration `t_end` will take on the shared dt.
  [[nodiscard]] int n_steps(double t_end) const;

  // The ghost-exchange adjacency: neighbor_ranks()[r] lists the ranks rank
  // r exchanges shared-node partials with each step (sorted ascending).
  // This is the edge set the multi-victim recovery agreement calls
  // "disjoint" over — fault-injection tests and the fault-sweep bench use
  // it to pick victim sets that provably do or do not share an edge.
  [[nodiscard]] std::vector<std::vector<int>> neighbor_ranks() const;

  // The forward solve on the shared setup: the one step loop on the rate
  // schedule `lts` picks, with S = scenarios.size() lanes in lockstep.
  //
  //  * Schedule: global dt, or with `lts.enabled` the schedule of the LTS
  //    clustering (docs/LTS.md; built on first use per max_rate and
  //    cached), where each node advances at its own power-of-two rate and
  //    a step-k message carries only the shared nodes whose rate divides
  //    k. `rank_stats[r].element_updates` counts the work actually done. A
  //    one-class clustering is bitwise the global-dt solve; multi-rate
  //    solves agree with it within the tolerance tier of docs/LTS.md.
  //  * Lanes: one element sweep, constraint fold and ghost-exchange round
  //    per step serve every scenario (state scenario-major: lane s of dof d
  //    at d * S + s). Scenario s's result is bitwise that scenario solved
  //    alone on the same schedule (docs/BATCHING.md).
  //  * Fault tolerance composes with both (a cut holds every lane). A
  //    failed solve (retries exhausted) throws as run_parallel does and
  //    leaves the setup reusable. RunControl's stop applies to the whole
  //    batch: all scenarios stop at the same step.
  //
  // Mode limits, checked before any rank thread starts, throw
  // std::invalid_argument: a scenario count outside [1,
  // fem::kMaxBatchLanes]; a bad t_end; LTS with Rayleigh damping (it
  // couples u^{k-1} across rates; rejected even with one class); LTS with
  // an armed message log (see message_log_steps); RunControl's limits.
  std::vector<ParallelResult> solve(double t_end,
                                    std::span<const BatchScenario> scenarios,
                                    const lts::LtsOptions& lts = {},
                                    const FaultToleranceOptions& ft = {},
                                    const RunControl& control = {});

  // solve() of one scenario on the global-dt schedule.
  ParallelResult run(double t_end,
                     std::span<const solver::SourceModel* const> sources,
                     std::span<const std::array<double, 3>> receiver_positions,
                     const FaultToleranceOptions& ft = {},
                     const RunControl& control = {});

  // solve() of one scenario on the schedule `lts` picks, without fault
  // tolerance.
  ParallelResult run_lts(double t_end,
                         std::span<const solver::SourceModel* const> sources,
                         std::span<const std::array<double, 3>> receiver_positions,
                         const lts::LtsOptions& lts,
                         const RunControl& control = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Runs the partitioned simulation with `part.n_ranks` in-process ranks:
// ParallelSetup::run on a setup built for this one solve, with fault
// tolerance `ft` (supervised retry on rank failure, checkpoint/restart,
// in-place recovery, deterministic fault injection).
ParallelResult run_parallel(
    const mesh::HexMesh& mesh, const Partition& part,
    const solver::OperatorOptions& op_opt, const solver::SolverOptions& so,
    std::span<const solver::SourceModel* const> sources,
    std::span<const std::array<double, 3>> receiver_positions,
    const FaultToleranceOptions& ft = {});

// Analytic machine model used to translate measured per-rank work and
// communication volumes into the parallel-efficiency column of Table 2.1
// (this host has one core, so thread wall-clock speedup is not meaningful;
// the model is evaluated with AlphaServer-class parameters — see DESIGN.md).
struct MachineModel {
  double flops_per_sec = 5.0e8;   // ~ Alpha EV68 sustained on this kernel
  double bytes_per_sec = 2.0e8;   // Quadrics-class per-link bandwidth
  double latency_sec = 5.0e-6;    // per message
};

// Modeled parallel efficiency: serial time / (R * slowest rank time).
double modeled_efficiency(const ParallelResult& r, const MachineModel& m);

}  // namespace quake::par
