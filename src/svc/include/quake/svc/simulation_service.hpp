#pragma once

// quake::svc — the serving layer over the parallel solver (see
// docs/SERVICE.md and docs/BATCHING.md). The paper's cost split is: mesh
// generation and solver setup are expensive, each explicit step is O(N) —
// so the production shape of this workload is MANY forward solves over ONE
// fixed discretization (earthquake-sequence simulation, the GN–CG
// inversion's hundreds of forward/adjoint solves per inversion).
// SimulationService builds the immutable shared state once per worker lane
// (a par::ParallelSetup: ElasticOperator, ghost plans, boundary/interior
// split, exchange buffers, communicator) and serves a stream of
// ScenarioRequests through a sharded, bounded admission queue: one shard
// and one worker per lane, requests routed to the shallowest shard. A lane
// may additionally coalesce up to `max_batch` compatible waiting requests
// into one scenario-batched solve so S requests share one element sweep
// and one ghost-exchange round per step — with results bitwise identical
// to running them one at a time. Every pickup, solo or batched, is one
// ParallelSetup::solve.
//
// Isolation semantics: all mutable solver state (displacement vectors,
// receiver histories, telemetry registries, fault-plan cursors) is
// per-request inside ParallelSetup::solve. A request that dies — e.g. via an
// injected FaultPlan with its restart budget spent — completes with kFailed
// and the service keeps serving; the communicator resets itself at the
// start of the next run.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "quake/obs/obs.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/solver/source.hpp"

namespace quake::svc {

// Typed load-shedding rejection: thrown by submit() when `queue_bound`
// requests are already waiting. Callers distinguish "try later" from
// programming errors by catching this type.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(const std::string& what)
      : std::runtime_error(what) {}
};

// Point source parameters (a Ricker-wavelet force at the nearest node);
// resolved against the service's mesh at execution time.
struct PointSourceSpec {
  std::array<double, 3> position{};
  std::array<double, 3> direction{0.0, 0.0, 1.0};
  double amplitude = 1.0;
  double fp = 1.0;  // Ricker peak frequency [Hz]
  double tc = 1.0;  // Ricker center time [s]
};

// One forward-solve scenario on the service's fixed discretization. The
// time axis (dt) is part of the shared setup; a request chooses only how
// long to integrate, what drives the run, and where to record.
struct ScenarioRequest {
  std::vector<PointSourceSpec> point_sources;
  std::vector<solver::FaultSource::Spec> fault_sources;
  std::vector<std::array<double, 3>> receivers;  // station positions
  double t_end = 1.0;

  double deadline_seconds = 0.0;  // end-to-end budget from admission; 0=none
  int priority = 0;               // higher drains first; FIFO within a level

  // Per-request fault tolerance (checkpointing, revivals, restarts,
  // injected faults — the FaultPlan pointer must outlive the request).
  // `ft.max_retries` is the request's restart budget: the solve's
  // supervisor restarts within one install of the plan, so a fired fault
  // stays fired, and it never restarts a deadlock. A request whose
  // recovery budget is exhausted fails alone; the service stays up.
  par::FaultToleranceOptions ft;
};

enum class RequestStatus {
  kCompleted,         // ran to t_end
  kCancelled,         // cancel(id) hit it, queued or at a step boundary
  kDeadlineExceeded,  // end-to-end deadline expired, queued or mid-solve
  kFailed,            // a source could not be built or the solve threw;
                      // see `error`
};

struct ScenarioResult {
  std::uint64_t id = 0;
  RequestStatus status = RequestStatus::kCompleted;
  std::string error;  // set when status == kFailed

  // The full solver result: seismograms (receiver_histories), final field,
  // per-rank stats, and the per-request obs report (obs_reports /
  // obs_summary, populated when obs is enabled). On kCancelled /
  // kDeadlineExceeded this is partial: solve.cancelled is true and
  // histories cover solve.steps_completed steps. Empty on kFailed and on
  // requests cancelled while still queued.
  par::ParallelResult solve;

  std::uint64_t exec_index = 0;  // 1-based worker pickup order; 0 = never ran
  int attempts = 0;              // 1 = the pickup ran its solve, 0 = it did not
  double queue_seconds = 0.0;    // admission -> worker pickup
  double solve_seconds = 0.0;    // wall-clock of the solve
  double total_seconds = 0.0;    // admission -> completion (end-to-end)
};

// Point-in-time health snapshot (see health()): queue pressure, the
// degraded flag, and the recovery footprint of the last executed request
// (the last pickup that ran a solve; a batch's head member stands for it) —
// what an operator polls to decide whether the service is riding out
// faults or needs intervention.
struct ServiceHealth {
  std::size_t queue_depth = 0;   // waiting requests (in-flight not counted)
  bool in_flight = false;
  // True exactly when the last pickup that ran a solve failed, so a
  // completed pickup clears it.
  bool degraded = false;
  std::int64_t failed_total = 0;  // svc/requests_failed counter

  // Last executed request's recovery footprint. A batch reports its head's
  // id and solve time, and no recovery (it carries no fault tolerance).
  std::uint64_t last_id = 0;          // 0 = nothing executed yet
  int last_revives_used = 0;          // in-place revivals its solve consumed
  int last_revives_budget = 0;        // its ft.max_revives
  int last_revives_remaining = 0;     // budget - used (never negative)
  double last_recoveries = 0.0;       // par/recoveries (obs-enabled runs)
  double last_steps_rolled_back = 0.0;  // par/steps_rolled_back, summed
  double last_steps_replayed = 0.0;     // par/steps_replayed, summed
  // Tier-1 detail: how many victims restored straight from a buddy's
  // donated snapshot, and whether any recovery replayed several
  // simultaneously failed ranks at once.
  double last_donation_restores = 0.0;   // par/donation_restores, summed
  double last_multi_victim_replays = 0.0;  // par/multi_victim_replays
  double last_solve_seconds = 0.0;
};

struct ServiceOptions {
  std::size_t queue_bound = 16;  // waiting requests admitted PER SHARD
                                 // before shedding (each lane has its own
                                 // shard of the admission queue)
  bool start_paused = false;     // admit but hold execution until resume()

  // Worker lanes. Each lane owns a full ParallelSetup replica (operator,
  // ghost plans, exchange buffers, communicator) and drains its own shard
  // of the admission queue, so `lanes` solves proceed concurrently.
  // submit() routes each request to the shallowest shard (ties to the
  // lowest lane index).
  int lanes = 1;

  // Scenario batching (see docs/BATCHING.md): a lane picking up a
  // batchable request coalesces up to `max_batch` compatible waiting
  // requests from its shard into one solve. A request is batchable iff it
  // carries no deadline and no fault tolerance; batch partners must share
  // t_end. 1 = batching off. Must not exceed fem::kMaxBatchLanes.
  int max_batch = 1;

  // Aggregation window: with max_batch > 1, how long a lane holds an
  // underfull batch open for more coalescible arrivals before solving.
  // 0 = solve immediately with whatever is already waiting.
  double batch_window_seconds = 0.0;
};

class SimulationService {
 public:
  using Options = ServiceOptions;

  // Builds each lane's setup (the expensive phase) synchronously and starts
  // the workers. `mesh` and `part` must outlive the service.
  SimulationService(const mesh::HexMesh& mesh, const par::Partition& part,
                    const solver::OperatorOptions& op_opt,
                    const solver::SolverOptions& base, Options opt = {});

  // Shuts down: completes still-queued requests with kCancelled, requests
  // cooperative cancellation of the in-flight solve, joins the worker.
  // Call wait_idle() first to let outstanding work finish instead.
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  struct Ticket {
    std::uint64_t id = 0;
    std::future<ScenarioResult> result;
  };

  // Admission: enqueues the request and returns its id + future. Throws
  // QueueFullError when `queue_bound` requests are already waiting (the
  // in-flight request does not count against the bound).
  Ticket submit(ScenarioRequest req);

  // Cooperative cancellation. A queued request completes immediately with
  // kCancelled; a running one stops at its next step-boundary agreement.
  // Returns false when the id is unknown or already finished.
  bool cancel(std::uint64_t id);

  // Deterministic queue control (tests; maintenance windows): pause() holds
  // the worker after the in-flight request, resume() releases it.
  void pause();
  void resume();

  // Blocks until the queue is empty and nothing is in flight. While the
  // service is paused with work queued this waits for resume().
  void wait_idle();

  // Waiting requests summed across every shard (in-flight not counted).
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] int lanes() const { return opt_.lanes; }
  // The shared time step (every lane's setup has the same).
  [[nodiscard]] double dt() const;

  // Point-in-time service metrics snapshot: the svc/requests_* counters,
  // the svc/batches and svc/batched_requests counters, the
  // svc/queue_depth (all shards summed), svc/lanes, svc/batch_size (width
  // of the last solve launched), and svc/degraded gauges, the per-lane
  // svc/lane<k>/queue_depth gauges and svc/lane<k>/requests|batches|
  // rejected counters, and the svc/latency|queue|solve_seconds series are
  // always live; scope timings (svc/request/setup|solve|extract) accumulate
  // only while quake::obs is enabled. See docs/OBSERVABILITY.md.
  [[nodiscard]] obs::Registry metrics() const;

  // Structured health snapshot: queue depth, degraded flag, and the last
  // executed request's recovery footprint (revival budget consumed and
  // remaining, recoveries, rolled-back/replayed steps). A pickup settled
  // without a solve (cancelled or out of budget) leaves it unchanged.
  [[nodiscard]] ServiceHealth health() const;

 private:
  struct Pending;
  struct Lane;

  void worker_loop(Lane& lane);
  // One pickup: a solo request or a coalesced batch, run as one solve.
  void execute(Lane& lane, std::vector<std::unique_ptr<Pending>> group);

  const Options opt_;

  mutable std::mutex mu_;             // guards every shard + running state
  std::condition_variable work_cv_;   // worker wakeups
  std::condition_variable idle_cv_;   // wait_idle wakeups
  std::vector<std::unique_ptr<Lane>> lanes_;
  bool paused_ = false;
  bool shutdown_ = false;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> exec_counter_{0};
  std::atomic<std::int64_t> last_batch_width_{0};  // svc/batch_size gauge

  // Live counters (ISSUE taxonomy); atomics so submit-side rejections are
  // counted without taking the queue lock's contention into metrics().
  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> batches_{0};           // width > 1 solves launched
  std::atomic<std::int64_t> batched_requests_{0};  // requests they carried

  // Degradation state + last executed request's recovery footprint, written
  // by the worker after each pickup that ran a solve, read by
  // health()/metrics().
  mutable std::mutex health_mu_;
  bool degraded_ = false;
  ServiceHealth last_exec_;

  // Per-request scope/series telemetry, merged from the worker's request-
  // local registry after each request (so metrics() never races the
  // recording thread).
  mutable std::mutex agg_mu_;
  obs::Registry agg_;
};

}  // namespace quake::svc
