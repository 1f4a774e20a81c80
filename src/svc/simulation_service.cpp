#include "quake/svc/simulation_service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "quake/fem/hex_element.hpp"

namespace quake::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Across-rank sum of a merged counter; 0 when the key is absent (obs
// disabled, or the solve never touched it).
double counter_sum(const obs::MergedReport& m, const std::string& key) {
  const auto it = m.counters.find(key);
  return it == m.counters.end() ? 0.0 : it->second.sum;
}

// A request may join a scenario batch only when it carries nothing that is
// per solve: a batch is one solve, so its members would share one fault-
// tolerance policy (restart budget included) and one deadline. So: no
// end-to-end deadline and no fault tolerance of any kind (see
// docs/BATCHING.md for the coalescing contract). Batch partners must
// additionally share t_end.
bool batchable(const ScenarioRequest& r) {
  return r.deadline_seconds == 0.0 && r.ft.checkpoint_dir.empty() &&
         r.ft.fault_plan == nullptr && r.ft.max_retries == 0 &&
         r.ft.max_revives == 0;
}

}  // namespace

struct SimulationService::Pending {
  std::uint64_t id = 0;
  int priority = 0;
  std::uint64_t seq = 0;  // admission order; FIFO tiebreak within a priority
  ScenarioRequest req;
  Clock::time_point admitted;
  std::promise<ScenarioResult> promise;
  std::shared_ptr<std::atomic<bool>> cancel_flag;
};

// One worker lane: its own ParallelSetup, its shard of the admission queue,
// and what it is currently running. `queue` and the running_* state are
// guarded by the service-wide mu_; the counters are atomics so metrics()
// reads them without blocking admission.
struct SimulationService::Lane {
  Lane(int index, const mesh::HexMesh& mesh, const par::Partition& part,
       const solver::OperatorOptions& op_opt,
       const solver::SolverOptions& base)
      : index(index), setup(mesh, part, op_opt, base) {}

  const int index;
  par::ParallelSetup setup;
  std::deque<std::unique_ptr<Pending>> queue;

  // In-flight request ids and their per-request cancel flags (parallel
  // vectors; empty = idle). For a batch, batch_cancel is a separate flag
  // that fires only when EVERY member has been cancelled — the batch
  // advances in lockstep, so stopping it early on one member's cancel
  // would kill its partners' solves too. For a single run, batch_cancel
  // aliases the member's own flag.
  std::vector<std::uint64_t> running_ids;
  std::vector<std::shared_ptr<std::atomic<bool>>> running_flags;
  std::shared_ptr<std::atomic<bool>> running_batch_cancel;

  std::atomic<std::int64_t> requests{0};  // requests this lane picked up
  std::atomic<std::int64_t> batches{0};   // width > 1 solves it launched
  std::atomic<std::int64_t> rejected{0};  // shed at admission to this shard

  std::thread worker;
};

SimulationService::SimulationService(const mesh::HexMesh& mesh,
                                     const par::Partition& part,
                                     const solver::OperatorOptions& op_opt,
                                     const solver::SolverOptions& base,
                                     Options opt)
    : opt_(opt) {
  if (opt_.lanes < 1) {
    throw std::invalid_argument("SimulationService: lanes must be >= 1");
  }
  if (opt_.max_batch < 1 || opt_.max_batch > fem::kMaxBatchLanes) {
    throw std::invalid_argument(
        "SimulationService: max_batch must be in [1, " +
        std::to_string(fem::kMaxBatchLanes) + "]");
  }
  paused_ = opt_.start_paused;
  lanes_.reserve(static_cast<std::size_t>(opt_.lanes));
  for (int k = 0; k < opt_.lanes; ++k) {
    lanes_.push_back(std::make_unique<Lane>(k, mesh, part, op_opt, base));
  }
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    l->worker = std::thread([this, l] { worker_loop(*l); });
  }
}

SimulationService::~SimulationService() {
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    for (auto& lane : lanes_) {
      for (auto& p : lane->queue) orphans.push_back(std::move(p));
      lane->queue.clear();
      // Cancel whatever is in flight: every member flag, then the
      // whole-batch flag (the all-members-cancelled invariant holds).
      for (auto& f : lane->running_flags) {
        f->store(true, std::memory_order_relaxed);
      }
      if (lane->running_batch_cancel) {
        lane->running_batch_cancel->store(true, std::memory_order_relaxed);
      }
    }
  }
  work_cv_.notify_all();
  for (auto& p : orphans) {
    ScenarioResult r;
    r.id = p->id;
    r.status = RequestStatus::kCancelled;
    r.total_seconds = seconds_between(p->admitted, Clock::now());
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    p->promise.set_value(std::move(r));
  }
  for (auto& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
}

SimulationService::Ticket SimulationService::submit(ScenarioRequest req) {
  auto p = std::make_unique<Pending>();
  p->req = std::move(req);
  p->priority = p->req.priority;
  p->cancel_flag = std::make_shared<std::atomic<bool>>(false);
  std::future<ScenarioResult> fut = p->promise.get_future();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) {
      throw std::runtime_error("SimulationService: submit after shutdown");
    }
    // Route to the shallowest shard, ties to the lowest lane index. The
    // bound is per shard; because routing picks the minimum, admission only
    // sheds when every shard is full.
    Lane* shard = lanes_.front().get();
    for (auto& lane : lanes_) {
      if (lane->queue.size() < shard->queue.size()) shard = lane.get();
    }
    if (shard->queue.size() >= opt_.queue_bound) {
      shard->rejected.fetch_add(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      throw QueueFullError("SimulationService: admission queue full (" +
                           std::to_string(opt_.queue_bound) +
                           " requests waiting on shard " +
                           std::to_string(shard->index) + ")");
    }
    id = next_id_.fetch_add(1, std::memory_order_relaxed);
    p->id = id;
    p->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    p->admitted = Clock::now();
    admitted_.fetch_add(1, std::memory_order_relaxed);
    shard->queue.push_back(std::move(p));
  }
  work_cv_.notify_all();
  return Ticket{id, std::move(fut)};
}

bool SimulationService::cancel(std::uint64_t id) {
  std::unique_ptr<Pending> victim;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    for (auto& lane : lanes_) {
      // In flight on this lane: flip the member's cooperative flag. A solo
      // run stops at its next step-boundary agreement (batch_cancel aliases
      // the member flag); a batch stops early only once every member has
      // been cancelled.
      for (std::size_t i = 0; i < lane->running_ids.size(); ++i) {
        if (lane->running_ids[i] != id) continue;
        lane->running_flags[i]->store(true, std::memory_order_relaxed);
        bool all = true;
        for (const auto& f : lane->running_flags) {
          if (!f->load(std::memory_order_relaxed)) {
            all = false;
            break;
          }
        }
        if (all && lane->running_batch_cancel) {
          lane->running_batch_cancel->store(true, std::memory_order_relaxed);
        }
        return true;
      }
      const auto it = std::find_if(
          lane->queue.begin(), lane->queue.end(),
          [id](const std::unique_ptr<Pending>& p) { return p->id == id; });
      if (it != lane->queue.end()) {
        victim = std::move(*it);
        lane->queue.erase(it);
        break;
      }
    }
    if (!victim) return false;
  }
  ScenarioResult r;
  r.id = id;
  r.status = RequestStatus::kCancelled;
  r.total_seconds = seconds_between(victim->admitted, Clock::now());
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  victim->promise.set_value(std::move(r));
  idle_cv_.notify_all();
  return true;
}

void SimulationService::resume() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void SimulationService::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] {
    for (const auto& lane : lanes_) {
      if (!lane->queue.empty() || !lane->running_ids.empty()) return false;
    }
    return true;
  });
}

double SimulationService::dt() const { return lanes_.front()->setup.dt(); }

std::size_t SimulationService::queue_depth() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->queue.size();
  return depth;
}

obs::Registry SimulationService::metrics() const {
  obs::Registry m;
  {
    const std::lock_guard<std::mutex> lk(agg_mu_);
    m = agg_;
  }
  m.counters["svc/requests_admitted"] =
      admitted_.load(std::memory_order_relaxed);
  m.counters["svc/requests_completed"] =
      completed_.load(std::memory_order_relaxed);
  m.counters["svc/requests_rejected"] =
      rejected_.load(std::memory_order_relaxed);
  m.counters["svc/requests_cancelled"] =
      cancelled_.load(std::memory_order_relaxed);
  m.counters["svc/requests_deadline_exceeded"] =
      deadline_exceeded_.load(std::memory_order_relaxed);
  m.counters["svc/requests_failed"] = failed_.load(std::memory_order_relaxed);
  m.counters["svc/batches"] = batches_.load(std::memory_order_relaxed);
  m.counters["svc/batched_requests"] =
      batched_requests_.load(std::memory_order_relaxed);
  m.gauges["svc/lanes"] = static_cast<double>(opt_.lanes);
  m.gauges["svc/batch_size"] =
      static_cast<double>(last_batch_width_.load(std::memory_order_relaxed));
  {
    const std::lock_guard<std::mutex> lk(mu_);
    std::size_t depth = 0;
    for (const auto& lane : lanes_) {
      const std::string prefix = "svc/lane" + std::to_string(lane->index);
      m.gauges[prefix + "/queue_depth"] =
          static_cast<double>(lane->queue.size());
      m.counters[prefix + "/requests"] =
          lane->requests.load(std::memory_order_relaxed);
      m.counters[prefix + "/batches"] =
          lane->batches.load(std::memory_order_relaxed);
      m.counters[prefix + "/rejected"] =
          lane->rejected.load(std::memory_order_relaxed);
      depth += lane->queue.size();
    }
    m.gauges["svc/queue_depth"] = static_cast<double>(depth);
  }
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    m.gauges["svc/degraded"] = degraded_ ? 1.0 : 0.0;
  }
  return m;
}

ServiceHealth SimulationService::health() const {
  ServiceHealth h;
  {
    const std::lock_guard<std::mutex> lk(health_mu_);
    h = last_exec_;
    h.degraded = degraded_;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    h.queue_depth = 0;
    h.in_flight = false;
    for (const auto& lane : lanes_) {
      h.queue_depth += lane->queue.size();
      if (!lane->running_ids.empty()) h.in_flight = true;
    }
  }
  h.failed_total = failed_.load(std::memory_order_relaxed);
  return h;
}

void SimulationService::worker_loop(Lane& lane) {
  // Shard order: higher priority first, admission order within a level.
  const auto precedes = [](const std::unique_ptr<Pending>& a,
                           const std::unique_ptr<Pending>& b) {
    return a->priority > b->priority ||
           (a->priority == b->priority && a->seq < b->seq);
  };
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(
          lk, [&] { return shutdown_ || (!paused_ && !lane.queue.empty()); });
      if (shutdown_) return;
      auto it = std::min_element(lane.queue.begin(), lane.queue.end(),
                                 precedes);
      std::unique_ptr<Pending> head = std::move(*it);
      lane.queue.erase(it);
      const bool can_batch = opt_.max_batch > 1 && batchable(head->req);
      const double head_t_end = head->req.t_end;
      // The head is in flight from this point — registering it before any
      // aggregation wait keeps cancel() able to reach it.
      lane.running_ids = {head->id};
      lane.running_flags = {head->cancel_flag};
      lane.running_batch_cancel = head->cancel_flag;
      batch.push_back(std::move(head));

      if (can_batch) {
        const auto gather = [&] {
          while (batch.size() < static_cast<std::size_t>(opt_.max_batch)) {
            auto best = lane.queue.end();
            for (auto qi = lane.queue.begin(); qi != lane.queue.end(); ++qi) {
              if (!batchable((*qi)->req) || (*qi)->req.t_end != head_t_end) {
                continue;
              }
              if (best == lane.queue.end() || precedes(*qi, *best)) best = qi;
            }
            if (best == lane.queue.end()) break;
            lane.running_ids.push_back((*best)->id);
            lane.running_flags.push_back((*best)->cancel_flag);
            batch.push_back(std::move(*best));
            lane.queue.erase(best);
          }
        };
        gather();
        if (batch.size() < static_cast<std::size_t>(opt_.max_batch) &&
            opt_.batch_window_seconds > 0.0) {
          // Hold the underfull batch open for late arrivals. Spurious and
          // submit() wakeups re-gather; the window closes on time or when
          // the batch fills.
          const auto window_end =
              Clock::now() +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt_.batch_window_seconds));
          while (batch.size() < static_cast<std::size_t>(opt_.max_batch) &&
                 !shutdown_) {
            if (work_cv_.wait_until(lk, window_end) ==
                std::cv_status::timeout) {
              gather();
              break;
            }
            gather();
          }
        }
        if (batch.size() > 1) {
          // The whole-batch flag: a fresh atomic that fires only when every
          // member is cancelled. Members flagged during the window count.
          auto bc = std::make_shared<std::atomic<bool>>(false);
          bool all = true;
          for (const auto& f : lane.running_flags) {
            if (!f->load(std::memory_order_relaxed)) {
              all = false;
              break;
            }
          }
          if (all || shutdown_) bc->store(true, std::memory_order_relaxed);
          lane.running_batch_cancel = bc;
        }
      }
    }

    execute(lane, std::move(batch));

    {
      const std::lock_guard<std::mutex> lk(mu_);
      lane.running_ids.clear();
      lane.running_flags.clear();
      lane.running_batch_cancel.reset();
    }
    idle_cv_.notify_all();
  }
}

// One worker pickup: a group of 1..max_batch requests, run as one
// ParallelSetup::solve with the head's fault tolerance and remaining
// budget. The members of a larger group advance in lockstep, each bitwise
// identical to a solo run (docs/BATCHING.md), and are batchable(): no
// deadline, no fault tolerance.
void SimulationService::execute(Lane& lane,
                                std::vector<std::unique_ptr<Pending>> group) {
  const std::size_t B = group.size();
  const Pending& head = *group.front();
  par::ParallelSetup& setup = lane.setup;
  const std::uint64_t exec_base =
      exec_counter_.fetch_add(B, std::memory_order_relaxed) + 1;
  lane.requests.fetch_add(static_cast<std::int64_t>(B),
                          std::memory_order_relaxed);
  if (B > 1) {
    lane.batches.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(static_cast<std::int64_t>(B),
                                std::memory_order_relaxed);
  }
  last_batch_width_.store(static_cast<std::int64_t>(B),
                          std::memory_order_relaxed);

  const Clock::time_point picked = Clock::now();
  std::vector<ScenarioResult> results(B);
  for (std::size_t i = 0; i < B; ++i) {
    results[i].id = group[i]->id;
    results[i].exec_index = exec_base + i;  // consecutive pickup order
    results[i].queue_seconds = seconds_between(group[i]->admitted, picked);
  }

  // All request-scoped telemetry lands in a registry local to this pickup,
  // merged into the service aggregate afterwards — metrics() never reads a
  // registry a thread is still writing.
  obs::Registry req_reg;
  {
    const obs::ScopedRegistry install(req_reg);
    QUAKE_OBS_SCOPE("svc/request");

    // Settle, then solve. A member whose end-to-end budget (which covers
    // queueing) is spent is settled kDeadlineExceeded, otherwise a
    // cancelled one kCancelled. The solve runs unless every member is
    // settled, and then decides every member's status: a batch member
    // cancelled alone completes with its batch.
    bool run_it = false;
    for (std::size_t i = 0; i < B; ++i) {
      const ScenarioRequest& req = group[i]->req;
      if (req.deadline_seconds > 0.0 &&
          req.deadline_seconds - results[i].queue_seconds <= 0.0) {
        results[i].status = RequestStatus::kDeadlineExceeded;
      } else if (group[i]->cancel_flag->load(std::memory_order_relaxed)) {
        results[i].status = RequestStatus::kCancelled;
      } else {
        run_it = true;
      }
    }

    if (run_it) {
      // Materialize each member's sources against the service's mesh; this
      // (plus receiver snapping inside the solve) is all the per-request
      // setup there is — the expensive state is shared. A source the mesh
      // cannot hold (a zero force direction, a fault with no patch inside
      // the mesh) fails the pickup without a solve, as a bad receiver
      // fails it inside one.
      std::vector<std::vector<std::unique_ptr<solver::SourceModel>>> owned(B);
      std::vector<par::BatchScenario> scenarios(B);
      std::string error;
      bool sources_built = true;
      try {
        QUAKE_OBS_SCOPE("setup");
        for (std::size_t i = 0; i < B; ++i) {
          const ScenarioRequest& req = group[i]->req;
          for (const PointSourceSpec& s : req.point_sources) {
            owned[i].push_back(std::make_unique<solver::PointSource>(
                setup.node_locator(), s.position, s.direction, s.amplitude,
                s.fp, s.tc));
          }
          for (const solver::FaultSource::Spec& s : req.fault_sources) {
            owned[i].push_back(std::make_unique<solver::FaultSource>(
                setup.node_locator(), s));
          }
          for (const auto& s : owned[i]) {
            scenarios[i].sources.push_back(s.get());
          }
          scenarios[i].receivers = req.receivers;
        }
      } catch (const std::exception& e) {
        error = e.what();
        sources_built = false;
      }

      // The lane's pickup-wide cancel flag: a solo request's own flag, or
      // for a batch one that fires only once every member is cancelled.
      // Only a solo request carries a deadline; the solve gets what is
      // left of it after the wait.
      par::RunControl ctl;
      ctl.cancel = lane.running_batch_cancel.get();
      if (head.req.deadline_seconds > 0.0) {
        ctl.deadline_seconds =
            head.req.deadline_seconds - results.front().queue_seconds;
      }

      // One solve. Its supervisor is the request's only restart path
      // (ft.max_retries, within one install of the fault plan), and it
      // never restarts a deadlock. Whatever escapes it — a spent budget, a
      // deadlock, a bad receiver, an unusable checkpoint — fails the pickup
      // alone: the service and the shared setup keep serving. A batch's
      // members shared the solve, so a failure fails every member.
      std::vector<par::ParallelResult> solves;  // stays empty on failure
      const int attempts = sources_built ? 1 : 0;
      const Clock::time_point t0 = Clock::now();
      if (sources_built) {
        try {
          QUAKE_OBS_SCOPE("solve");
          solves = setup.solve(head.req.t_end, scenarios, {}, head.req.ft, ctl);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      const double solve_seconds = seconds_between(t0, Clock::now());

      {
        QUAKE_OBS_SCOPE("extract");
        for (std::size_t i = 0; i < B; ++i) {
          ScenarioResult& r = results[i];
          r.attempts = attempts;
          r.solve_seconds = solve_seconds;
          if (solves.empty()) {
            r.status = RequestStatus::kFailed;
            r.error = error;
            continue;
          }
          r.solve = std::move(solves[i]);
          r.status = RequestStatus::kCompleted;
          if (r.solve.cancelled) {
            // Both stop conditions funnel through the same step-boundary
            // agreement; the cancel flag the solve watched tells them apart.
            r.status = ctl.cancel->load(std::memory_order_relaxed)
                           ? RequestStatus::kCancelled
                           : RequestStatus::kDeadlineExceeded;
          }
        }
      }
    }
    const Clock::time_point done = Clock::now();
    for (std::size_t i = 0; i < B; ++i) {
      results[i].total_seconds = seconds_between(group[i]->admitted, done);
    }
  }

  const ScenarioResult& first = results.front();
  if (first.attempts > 0) {
    // Health describes the last pickup that ran a solve, the head standing
    // for a batch (whose recovery footprint is zero: it carries no fault
    // tolerance). The service is degraded iff that solve failed.
    const std::lock_guard<std::mutex> lk(health_mu_);
    degraded_ = first.status == RequestStatus::kFailed;
    last_exec_.last_id = first.id;
    last_exec_.last_revives_used = first.solve.revives_used;
    last_exec_.last_revives_budget = head.req.ft.max_revives;
    last_exec_.last_revives_remaining =
        std::max(0, head.req.ft.max_revives - first.solve.revives_used);
    last_exec_.last_recoveries =
        counter_sum(first.solve.obs_summary, "par/recoveries");
    last_exec_.last_steps_rolled_back =
        counter_sum(first.solve.obs_summary, "par/steps_rolled_back");
    last_exec_.last_steps_replayed =
        counter_sum(first.solve.obs_summary, "par/steps_replayed");
    last_exec_.last_donation_restores =
        counter_sum(first.solve.obs_summary, "par/donation_restores");
    last_exec_.last_multi_victim_replays =
        counter_sum(first.solve.obs_summary, "par/multi_victim_replays");
    last_exec_.last_solve_seconds = first.solve_seconds;
  }

  {
    const std::lock_guard<std::mutex> lk(agg_mu_);
    agg_.merge_from(req_reg);
    for (const ScenarioResult& r : results) {
      agg_.series["svc/latency_seconds"].push_back(r.total_seconds);
      agg_.series["svc/queue_seconds"].push_back(r.queue_seconds);
      agg_.series["svc/solve_seconds"].push_back(r.solve_seconds);
    }
  }

  for (std::size_t i = 0; i < B; ++i) {
    switch (results[i].status) {
      case RequestStatus::kCompleted:
        completed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kFailed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    group[i]->promise.set_value(std::move(results[i]));
  }
}

}  // namespace quake::svc
