// Tests for the simulation service layer: setup reuse determinism, the
// bounded admission queue (load shedding, priority, cancellation,
// deadlines), and per-request failure isolation.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "quake/mesh/meshgen.hpp"
#include "quake/par/communicator.hpp"
#include "quake/par/parallel_solver.hpp"
#include "quake/par/partition.hpp"
#include "quake/svc/simulation_service.hpp"

namespace {

using namespace quake;

mesh::HexMesh small_basin_mesh() {
  const vel::BasinModel basin = vel::BasinModel::demo(20000.0);
  mesh::MeshOptions opt;
  opt.domain_size = 20000.0;
  opt.f_max = 0.04;
  opt.n_lambda = 8.0;
  opt.min_level = 2;
  opt.max_level = 4;
  return mesh::generate_mesh(basin, opt);
}

using History = std::vector<std::vector<std::array<double, 3>>>;

bool bitwise_equal(const History& a, const History& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t k = 0; k < a[r].size(); ++k) {
      if (std::memcmp(a[r][k].data(), b[r][k].data(), 3 * sizeof(double)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Fixture {
  mesh::HexMesh mesh = small_basin_mesh();
  par::Partition part;
  solver::OperatorOptions oo;
  solver::SolverOptions so;
  solver::PointSource src_a;
  solver::PointSource src_b;
  std::vector<std::array<double, 3>> rxs{{14000.0, 9000.0, 0.0},
                                         {6000.0, 11000.0, 0.0}};

  explicit Fixture(int n_ranks = 2)
      : part(par::partition_sfc(mesh, n_ranks)),
        src_a(mesh, {10000.0, 10000.0, 4000.0}, {1.0, 0.5, 0.2}, 1e12, 0.03,
              40.0),
        src_b(mesh, {6000.0, 14000.0, 2000.0}, {0.0, 1.0, 0.0}, 5e11, 0.025,
              30.0) {
    so.t_end = 2.0;
    so.cfl_fraction = 0.4;
  }

  par::ParallelResult cold(const solver::PointSource& src) const {
    const solver::SourceModel* sources[] = {&src};
    solver::SolverOptions run = so;
    return par::run_parallel(mesh, part, oo, run, sources, rxs);
  }

  svc::ScenarioRequest request(const solver::PointSource& src) const {
    svc::ScenarioRequest req;
    svc::PointSourceSpec spec;
    const bool is_a = &src == &src_a;
    spec.position = is_a ? std::array<double, 3>{10000.0, 10000.0, 4000.0}
                         : std::array<double, 3>{6000.0, 14000.0, 2000.0};
    spec.direction = is_a ? std::array<double, 3>{1.0, 0.5, 0.2}
                          : std::array<double, 3>{0.0, 1.0, 0.0};
    spec.amplitude = is_a ? 1e12 : 5e11;
    spec.fp = is_a ? 0.03 : 0.025;
    spec.tc = is_a ? 40.0 : 30.0;
    req.point_sources = {spec};
    req.receivers = rxs;
    req.t_end = so.t_end;
    return req;
  }
};

// Two sequential scenarios through ONE ParallelSetup must match two cold
// run_parallel runs bitwise: nothing from scenario A (state vectors,
// receiver histories, exchange buffers, fault bookkeeping) may leak into
// scenario B.
TEST(ParallelSetup, SequentialReuseMatchesColdRunsBitwise) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  const par::ParallelResult cold_b = f.cold(f.src_b);

  par::ParallelSetup setup(f.mesh, f.part, f.oo, f.so);
  const solver::SourceModel* sa[] = {&f.src_a};
  const solver::SourceModel* sb[] = {&f.src_b};
  const par::ParallelResult warm_a = setup.run(f.so.t_end, sa, f.rxs);
  const par::ParallelResult warm_b = setup.run(f.so.t_end, sb, f.rxs);

  EXPECT_TRUE(bitwise_equal(warm_a.u_final, cold_a.u_final));
  EXPECT_TRUE(bitwise_equal(warm_b.u_final, cold_b.u_final));
  EXPECT_TRUE(bitwise_equal(warm_a.receiver_histories,
                            cold_a.receiver_histories));
  EXPECT_TRUE(bitwise_equal(warm_b.receiver_histories,
                            cold_b.receiver_histories));
  EXPECT_FALSE(bitwise_equal(warm_a.receiver_histories,
                             warm_b.receiver_histories));  // distinct physics
}

// A run cancelled mid-solve must not poison the setup: the next run on the
// same setup is bit-identical to a cold run.
TEST(ParallelSetup, ReuseAfterCancelledRunMatchesCold) {
  const Fixture f;
  const par::ParallelResult cold_b = f.cold(f.src_b);

  par::ParallelSetup setup(f.mesh, f.part, f.oo, f.so);
  std::atomic<bool> cancel{true};  // pre-set: stops at the first check
  par::RunControl ctl;
  ctl.cancel = &cancel;
  const solver::SourceModel* sa[] = {&f.src_a};
  const par::ParallelResult partial =
      setup.run(f.so.t_end, sa, f.rxs, {}, ctl);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_LT(partial.steps_completed, partial.n_steps);

  const solver::SourceModel* sb[] = {&f.src_b};
  const par::ParallelResult warm_b = setup.run(f.so.t_end, sb, f.rxs);
  EXPECT_FALSE(warm_b.cancelled);
  EXPECT_TRUE(bitwise_equal(warm_b.u_final, cold_b.u_final));
  EXPECT_TRUE(bitwise_equal(warm_b.receiver_histories,
                            cold_b.receiver_histories));
}

TEST(SimulationService, WarmRequestsMatchColdRunsBitwise) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  const par::ParallelResult cold_b = f.cold(f.src_b);

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  auto ta = service.submit(f.request(f.src_a));
  auto tb = service.submit(f.request(f.src_b));
  const svc::ScenarioResult ra = ta.result.get();
  const svc::ScenarioResult rb = tb.result.get();

  ASSERT_EQ(ra.status, svc::RequestStatus::kCompleted);
  ASSERT_EQ(rb.status, svc::RequestStatus::kCompleted);
  EXPECT_TRUE(bitwise_equal(ra.solve.receiver_histories,
                            cold_a.receiver_histories));
  EXPECT_TRUE(bitwise_equal(rb.solve.receiver_histories,
                            cold_b.receiver_histories));
  EXPECT_TRUE(bitwise_equal(ra.solve.u_final, cold_a.u_final));
  EXPECT_TRUE(bitwise_equal(rb.solve.u_final, cold_b.u_final));

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_admitted"), 2);
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 2);
  EXPECT_EQ(m.counters.at("svc/requests_failed"), 0);
  ASSERT_EQ(m.series.at("svc/latency_seconds").size(), 2u);
  EXPECT_GT(ra.total_seconds, 0.0);
  EXPECT_GE(ra.total_seconds, ra.solve_seconds);
}

TEST(SimulationService, QueueBoundShedsLoadWithTypedError) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.queue_bound = 2;
  opt.start_paused = true;  // nothing drains: the bound is deterministic
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  auto t1 = service.submit(f.request(f.src_a));
  auto t2 = service.submit(f.request(f.src_b));
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_THROW(service.submit(f.request(f.src_a)), svc::QueueFullError);
  EXPECT_THROW(service.submit(f.request(f.src_b)), svc::QueueFullError);

  obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_admitted"), 2);
  EXPECT_EQ(m.counters.at("svc/requests_rejected"), 2);
  EXPECT_DOUBLE_EQ(m.gauges.at("svc/queue_depth"), 2.0);

  service.resume();
  EXPECT_EQ(t1.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t2.result.get().status, svc::RequestStatus::kCompleted);
  service.wait_idle();
  m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 2);
  EXPECT_DOUBLE_EQ(m.gauges.at("svc/queue_depth"), 0.0);
}

TEST(SimulationService, PriorityDrainsBeforeFifo) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  svc::ScenarioRequest low = f.request(f.src_a);
  low.priority = 0;
  svc::ScenarioRequest hi1 = f.request(f.src_b);
  hi1.priority = 5;
  svc::ScenarioRequest hi2 = f.request(f.src_a);
  hi2.priority = 5;
  auto t_low = service.submit(low);    // admitted first...
  auto t_hi1 = service.submit(hi1);
  auto t_hi2 = service.submit(hi2);
  service.resume();

  const svc::ScenarioResult r_low = t_low.result.get();
  const svc::ScenarioResult r_hi1 = t_hi1.result.get();
  const svc::ScenarioResult r_hi2 = t_hi2.result.get();
  EXPECT_EQ(r_hi1.exec_index, 1u);  // ...but priority drains first,
  EXPECT_EQ(r_hi2.exec_index, 2u);  // FIFO within a priority level,
  EXPECT_EQ(r_low.exec_index, 3u);  // the low-priority request last
}

TEST(SimulationService, CancelWhileQueued) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  auto t1 = service.submit(f.request(f.src_a));
  auto t2 = service.submit(f.request(f.src_b));
  EXPECT_TRUE(service.cancel(t2.id));
  EXPECT_FALSE(service.cancel(t2.id));      // already finished
  EXPECT_FALSE(service.cancel(99999));      // unknown id

  const svc::ScenarioResult r2 = t2.result.get();  // resolved immediately
  EXPECT_EQ(r2.status, svc::RequestStatus::kCancelled);
  EXPECT_EQ(r2.exec_index, 0u);  // never reached the worker
  EXPECT_TRUE(r2.solve.receiver_histories.empty());

  service.resume();
  EXPECT_EQ(t1.result.get().status, svc::RequestStatus::kCompleted);
  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_cancelled"), 1);
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 1);
}

TEST(SimulationService, CancelMidSolveStopsAtStepBoundary) {
  const Fixture f;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);

  // A long request (many steps) so cancellation lands mid-solve.
  svc::ScenarioRequest req = f.request(f.src_a);
  req.t_end = 400.0 * service.dt();
  auto t = service.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(service.cancel(t.id));

  const svc::ScenarioResult r = t.result.get();
  EXPECT_EQ(r.status, svc::RequestStatus::kCancelled);
  if (r.exec_index != 0) {  // raced into the worker: partial solve
    EXPECT_TRUE(r.solve.cancelled);
    EXPECT_LT(r.solve.steps_completed, r.solve.n_steps);
  }
}

TEST(SimulationService, DeadlineExceededMidSolve) {
  const Fixture f;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);

  svc::ScenarioRequest req = f.request(f.src_a);
  req.t_end = 4000.0 * service.dt();  // far more work than the budget allows
  req.deadline_seconds = 0.05;
  auto t = service.submit(req);
  const svc::ScenarioResult r = t.result.get();

  EXPECT_EQ(r.status, svc::RequestStatus::kDeadlineExceeded);
  ASSERT_NE(r.exec_index, 0u);
  EXPECT_TRUE(r.solve.cancelled);
  EXPECT_GT(r.solve.n_steps, 0);
  EXPECT_LT(r.solve.steps_completed, r.solve.n_steps);

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_deadline_exceeded"), 1);
}

TEST(SimulationService, DeadlineBlownWhileQueued) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  svc::ScenarioRequest req = f.request(f.src_a);
  req.deadline_seconds = 0.01;
  auto t = service.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.resume();

  const svc::ScenarioResult r = t.result.get();
  EXPECT_EQ(r.status, svc::RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.solve.receiver_histories.empty());  // never ran
  EXPECT_EQ(r.solve.steps_completed, 0);
}

// The kill-one-request soak: a request whose injected FaultPlan kills a
// rank (no recovery budget) fails ALONE — requests before and after it on
// the same service complete bit-identically to a clean service, and the
// service's shared setup keeps serving.
TEST(SimulationService, KilledRequestFailsAloneBitwise) {
  const Fixture f;
  par::FaultPlan plan;
  plan.kills.push_back({1, 5});  // kill rank 1 at step 5, once

  // Clean reference service.
  svc::SimulationService clean(f.mesh, f.part, f.oo, f.so);
  auto ca = clean.submit(f.request(f.src_a));
  auto cb = clean.submit(f.request(f.src_b));
  const svc::ScenarioResult clean_a = ca.result.get();
  const svc::ScenarioResult clean_b = cb.result.get();
  ASSERT_EQ(clean_a.status, svc::RequestStatus::kCompleted);
  ASSERT_EQ(clean_b.status, svc::RequestStatus::kCompleted);

  // Service under fault: victim sandwiched between two healthy requests.
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  auto t1 = service.submit(f.request(f.src_a));
  svc::ScenarioRequest doomed = f.request(f.src_a);
  doomed.ft.fault_plan = &plan;
  auto t2 = service.submit(doomed);
  auto t3 = service.submit(f.request(f.src_b));

  const svc::ScenarioResult r1 = t1.result.get();
  const svc::ScenarioResult r2 = t2.result.get();
  const svc::ScenarioResult r3 = t3.result.get();

  EXPECT_EQ(r2.status, svc::RequestStatus::kFailed);
  EXPECT_FALSE(r2.error.empty());
  ASSERT_EQ(r1.status, svc::RequestStatus::kCompleted);
  ASSERT_EQ(r3.status, svc::RequestStatus::kCompleted);
  EXPECT_TRUE(bitwise_equal(r1.solve.receiver_histories,
                            clean_a.solve.receiver_histories));
  EXPECT_TRUE(bitwise_equal(r3.solve.receiver_histories,
                            clean_b.solve.receiver_histories));
  EXPECT_TRUE(bitwise_equal(r1.solve.u_final, clean_a.solve.u_final));
  EXPECT_TRUE(bitwise_equal(r3.solve.u_final, clean_b.solve.u_final));

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/requests_failed"), 1);
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 2);
}

// A killed request with a recovery budget heals in place and completes —
// per-request fault tolerance composes with the shared setup.
TEST(SimulationService, KilledRequestWithRevivalBudgetCompletes) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  par::FaultPlan plan;
  plan.kills.push_back({1, 5});

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest req = f.request(f.src_a);
  req.ft.fault_plan = &plan;
  req.ft.max_revives = 1;
  req.ft.checkpoint_every = 2;
  req.ft.checkpoint_dir = ::testing::TempDir() + "svc_revive_ckpt";
  auto t = service.submit(req);
  const svc::ScenarioResult r = t.result.get();
  // Completing bit-identically is the proof of recovery: the same kill with
  // no revival budget fails the request (KilledRequestFailsAloneBitwise).
  ASSERT_EQ(r.status, svc::RequestStatus::kCompleted);
  EXPECT_TRUE(bitwise_equal(r.solve.receiver_histories,
                            cold_a.receiver_histories));
}

// The restart budget is the request's ft.max_retries: the solve's
// supervisor restarts within one install of the plan, so the planned kill
// does not fire again and the one pickup completes bitwise equal to a cold
// run. With no checkpoint directory the restart is from scratch.
TEST(SimulationService, RestartBudgetCompletesKilledRequestBitwise) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  par::FaultPlan plan;
  plan.kills.push_back({1, 5});

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest req = f.request(f.src_a);
  req.ft.fault_plan = &plan;
  req.ft.max_retries = 1;
  const svc::ScenarioResult r = service.submit(req).result.get();

  ASSERT_EQ(r.status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(bitwise_equal(r.solve.receiver_histories,
                            cold_a.receiver_histories));
  EXPECT_TRUE(bitwise_equal(r.solve.u_final, cold_a.u_final));
  EXPECT_FALSE(service.health().degraded);
}

// A failed solve (here a kill with no budget) degrades the service; a later
// request that completes clears the flag. The failure count is history.
TEST(SimulationService, FailedRequestDegradesUntilOneCompletes) {
  const Fixture f;
  par::FaultPlan plan;
  plan.kills.push_back({1, 5});

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest doomed = f.request(f.src_a);
  doomed.ft.fault_plan = &plan;
  auto t = service.submit(doomed);
  const svc::ScenarioResult r = t.result.get();

  EXPECT_EQ(r.status, svc::RequestStatus::kFailed);
  EXPECT_EQ(r.attempts, 1);
  {
    const obs::Registry m = service.metrics();
    EXPECT_EQ(m.gauges.at("svc/degraded"), 1.0);
    const svc::ServiceHealth h = service.health();
    EXPECT_TRUE(h.degraded);
    EXPECT_EQ(h.failed_total, 1);
    EXPECT_EQ(h.last_id, t.id);
  }

  auto ok = service.submit(f.request(f.src_b));
  ASSERT_EQ(ok.result.get().status, svc::RequestStatus::kCompleted);
  {
    const obs::Registry m = service.metrics();
    EXPECT_EQ(m.gauges.at("svc/degraded"), 0.0);
    const svc::ServiceHealth h = service.health();
    EXPECT_FALSE(h.degraded);
    EXPECT_EQ(h.last_id, ok.id);
    EXPECT_EQ(h.failed_total, 1);  // history, not state
  }
}

// Deadlocks are deterministic program errors: the supervisor does not
// restart one, whatever the request's restart budget.
TEST(SimulationService, DeadlocksAreNotRetried) {
  const Fixture f;
  par::FaultPlan plan;
  plan.msg_faults.push_back({0, 1, 0, 0, par::FaultPlan::MsgAction::kDrop});

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest doomed = f.request(f.src_a);
  doomed.ft.fault_plan = &plan;
  doomed.ft.max_retries = 3;
  const svc::ScenarioResult r = service.submit(doomed).result.get();

  EXPECT_EQ(r.status, svc::RequestStatus::kFailed);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
  EXPECT_EQ(r.attempts, 1);
}

// A source the mesh cannot hold (here a zero force direction) fails its
// request before any solve: kFailed with the reason and no attempt
// consumed. The service keeps serving, and the next request matches a cold
// run bitwise.
TEST(SimulationService, UnbuildableSourceFailsAlone) {
  const Fixture f;
  const par::ParallelResult cold_b = f.cold(f.src_b);

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest bad = f.request(f.src_a);
  bad.point_sources[0].direction = {0.0, 0.0, 0.0};
  const svc::ScenarioResult rb = service.submit(bad).result.get();
  EXPECT_EQ(rb.status, svc::RequestStatus::kFailed);
  EXPECT_FALSE(rb.error.empty());
  EXPECT_EQ(rb.attempts, 0);

  const svc::ScenarioResult ok =
      service.submit(f.request(f.src_b)).result.get();
  ASSERT_EQ(ok.status, svc::RequestStatus::kCompleted);
  EXPECT_TRUE(bitwise_equal(ok.solve.receiver_histories,
                            cold_b.receiver_histories));
  EXPECT_TRUE(bitwise_equal(ok.solve.u_final, cold_b.u_final));
  EXPECT_EQ(service.metrics().counters.at("svc/requests_failed"), 1);
}

// health() exposes the last request's recovery footprint: a kill absorbed
// by the revival budget completes (not degraded) and reports the budget
// consumed — and with tier-1 replay the survivors rolled back zero steps.
TEST(SimulationService, HealthReportsRevivalFootprint) {
  obs::set_enabled(true);
  const Fixture f;
  par::FaultPlan plan;
  plan.kills.push_back({1, 5});

  svc::SimulationService service(f.mesh, f.part, f.oo, f.so);
  svc::ScenarioRequest req = f.request(f.src_a);
  req.ft.fault_plan = &plan;
  req.ft.max_revives = 2;
  req.ft.checkpoint_every = 2;
  req.ft.checkpoint_dir = ::testing::TempDir() + "svc_health_ckpt";
  auto t = service.submit(req);
  const svc::ScenarioResult r = t.result.get();
  service.wait_idle();  // the worker clears in-flight after the promise
  obs::set_enabled(false);

  ASSERT_EQ(r.status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.solve.revives_used, 1);
  const svc::ServiceHealth h = service.health();
  EXPECT_FALSE(h.degraded);
  EXPECT_EQ(h.last_id, t.id);
  EXPECT_EQ(h.last_revives_used, 1);
  EXPECT_EQ(h.last_revives_budget, 2);
  EXPECT_EQ(h.last_revives_remaining, 1);
  EXPECT_GE(h.last_recoveries, 1.0);
  EXPECT_EQ(h.last_steps_rolled_back, 0.0);
  EXPECT_GE(h.last_steps_replayed, 1.0);
  EXPECT_FALSE(h.in_flight);
  EXPECT_EQ(h.queue_depth, 0u);
}

TEST(SimulationService, ShutdownResolvesQueuedAsCancelled) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.start_paused = true;
  std::future<svc::ScenarioResult> orphan;
  {
    svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);
    orphan = service.submit(f.request(f.src_a)).result;
  }
  const svc::ScenarioResult r = orphan.get();
  EXPECT_EQ(r.status, svc::RequestStatus::kCancelled);
}

// ---- multi-lane serving (sharded queues, one worker per lane) -------------

// Two lanes draining concurrently must produce exactly the single-lane
// (cold) results: each lane's ParallelSetup replica is a full, independent
// copy of the shared discretization.
TEST(MultiLane, ResultsMatchSingleLaneBitwise) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  const par::ParallelResult cold_b = f.cold(f.src_b);

  svc::ServiceOptions opt;
  opt.lanes = 2;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);
  EXPECT_EQ(service.lanes(), 2);

  std::vector<svc::SimulationService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(
        service.submit(f.request(i % 2 == 0 ? f.src_a : f.src_b)));
  }
  for (int i = 0; i < 4; ++i) {
    const svc::ScenarioResult r = tickets[static_cast<std::size_t>(i)]
                                      .result.get();
    ASSERT_EQ(r.status, svc::RequestStatus::kCompleted);
    const par::ParallelResult& cold = i % 2 == 0 ? cold_a : cold_b;
    EXPECT_TRUE(bitwise_equal(r.solve.receiver_histories,
                              cold.receiver_histories));
    EXPECT_TRUE(bitwise_equal(r.solve.u_final, cold.u_final));
  }
  service.wait_idle();

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.gauges.at("svc/lanes"), 2.0);
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 4);
  // Per-lane accounting covers every request exactly once.
  EXPECT_EQ(m.counters.at("svc/lane0/requests") +
                m.counters.at("svc/lane1/requests"),
            4);
}

// Admission routes to the shallowest shard and sheds per shard: with a
// bound of 1 and two paused lanes, the first two requests land one per
// shard, and every further submit is rejected against the shallowest
// (lowest-index) full shard — counted on THAT shard, not globally smeared.
TEST(MultiLane, PerShardBoundAndRejectionAccounting) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.lanes = 2;
  opt.queue_bound = 1;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  auto t1 = service.submit(f.request(f.src_a));
  auto t2 = service.submit(f.request(f.src_b));
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_THROW(service.submit(f.request(f.src_a)), svc::QueueFullError);
  EXPECT_THROW(service.submit(f.request(f.src_b)), svc::QueueFullError);

  {
    const obs::Registry m = service.metrics();
    EXPECT_EQ(m.gauges.at("svc/lane0/queue_depth"), 1.0);
    EXPECT_EQ(m.gauges.at("svc/lane1/queue_depth"), 1.0);
    EXPECT_EQ(m.gauges.at("svc/queue_depth"), 2.0);
    EXPECT_EQ(m.counters.at("svc/requests_rejected"), 2);
    // Both rejections hit the tie-broken shallowest shard: lane 0.
    EXPECT_EQ(m.counters.at("svc/lane0/rejected"), 2);
    EXPECT_EQ(m.counters.at("svc/lane1/rejected"), 0);
  }

  service.resume();
  EXPECT_EQ(t1.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t2.result.get().status, svc::RequestStatus::kCompleted);
  service.wait_idle();
  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.gauges.at("svc/queue_depth"), 0.0);
  EXPECT_EQ(m.counters.at("svc/lane0/requests"), 1);
  EXPECT_EQ(m.counters.at("svc/lane1/requests"), 1);
}

// Destroying a multi-lane service with queued and possibly in-flight work
// resolves every future (queued -> kCancelled, running -> cooperative
// cancel); nothing hangs and nothing leaks. Exercised under TSan in CI.
TEST(MultiLane, ShutdownResolvesAllLanes) {
  const Fixture f;
  std::vector<std::future<svc::ScenarioResult>> futures;
  {
    svc::ServiceOptions opt;
    opt.lanes = 2;
    svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);
    for (int i = 0; i < 6; ++i) {
      svc::ScenarioRequest req = f.request(f.src_a);
      req.t_end = 400.0 * service.dt();  // long enough to still be busy
      futures.push_back(service.submit(std::move(req)).result);
    }
    // Destructor races the two workers mid-drain.
  }
  for (auto& fut : futures) {
    const svc::ScenarioResult r = fut.get();
    EXPECT_TRUE(r.status == svc::RequestStatus::kCancelled ||
                r.status == svc::RequestStatus::kCompleted);
  }
}

// Cancellation and deadlines keep working when two lanes race: cancelled
// requests stop at a step boundary on whichever lane picked them up, and
// a blown deadline on one lane never disturbs the other lane's solve.
TEST(MultiLane, CancelAndDeadlineRaceAcrossLanes) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.lanes = 2;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  svc::ScenarioRequest doomed = f.request(f.src_a);
  doomed.t_end = 4000.0 * service.dt();
  doomed.deadline_seconds = 0.05;
  auto t_dead = service.submit(doomed);

  svc::ScenarioRequest slow = f.request(f.src_b);
  slow.t_end = 400.0 * service.dt();
  auto t_cancel = service.submit(slow);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.cancel(t_cancel.id);

  auto t_ok = service.submit(f.request(f.src_b));

  EXPECT_EQ(t_dead.result.get().status,
            svc::RequestStatus::kDeadlineExceeded);
  const svc::ScenarioResult rc = t_cancel.result.get();
  EXPECT_TRUE(rc.status == svc::RequestStatus::kCancelled ||
              rc.status == svc::RequestStatus::kCompleted);
  EXPECT_EQ(t_ok.result.get().status, svc::RequestStatus::kCompleted);
}

// ---- scenario batching (coalescing, docs/BATCHING.md) ---------------------

// A paused shard filled with batchable requests drains as coalesced
// batch solves — counted as such, and bitwise identical to the cold
// one-at-a-time baseline — at widths 2 and 4.
TEST(ScenarioBatching, BatchedResultsMatchColdBitwise) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  const par::ParallelResult cold_b = f.cold(f.src_b);

  for (const int width : {2, 4}) {
    SCOPED_TRACE("max_batch " + std::to_string(width));
    svc::ServiceOptions opt;
    opt.max_batch = width;
    opt.start_paused = true;
    svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

    std::vector<svc::SimulationService::Ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(
          service.submit(f.request(i % 2 == 0 ? f.src_a : f.src_b)));
    }
    service.resume();
    for (int i = 0; i < 4; ++i) {
      const svc::ScenarioResult r = tickets[static_cast<std::size_t>(i)]
                                        .result.get();
      ASSERT_EQ(r.status, svc::RequestStatus::kCompleted);
      const par::ParallelResult& cold = i % 2 == 0 ? cold_a : cold_b;
      EXPECT_TRUE(bitwise_equal(r.solve.receiver_histories,
                                cold.receiver_histories));
      EXPECT_TRUE(bitwise_equal(r.solve.u_final, cold.u_final));
    }
    service.wait_idle();

    const obs::Registry m = service.metrics();
    EXPECT_EQ(m.counters.at("svc/batches"), 4 / width);  // width-wide solves
    EXPECT_EQ(m.counters.at("svc/batched_requests"), 4);
    EXPECT_EQ(m.gauges.at("svc/batch_size"), width);  // last solve's width
    EXPECT_EQ(m.counters.at("svc/requests_completed"), 4);
  }
}

// Batch members get consecutive pickup order: the coalesced requests share
// one worker dequeue.
TEST(ScenarioBatching, BatchMembersGetConsecutiveExecIndices) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.max_batch = 2;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);
  auto t1 = service.submit(f.request(f.src_a));
  auto t2 = service.submit(f.request(f.src_b));
  service.resume();
  const svc::ScenarioResult r1 = t1.result.get();
  const svc::ScenarioResult r2 = t2.result.get();
  EXPECT_EQ(r1.exec_index, 1u);
  EXPECT_EQ(r2.exec_index, 2u);
}

// The batchability contract: requests carrying a deadline, a restart
// budget, or any other fault-tolerance option never join a batch (their
// per-request control could not apply batch-wide), and partners must share
// t_end.
TEST(ScenarioBatching, NonBatchableRequestsRunSolo) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.max_batch = 4;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  svc::ScenarioRequest with_deadline = f.request(f.src_a);
  with_deadline.deadline_seconds = 60.0;  // generous: completes normally
  svc::ScenarioRequest with_retries = f.request(f.src_b);
  with_retries.ft.max_retries = 1;
  svc::ScenarioRequest other_t_end = f.request(f.src_a);
  other_t_end.t_end = 0.5 * f.so.t_end;  // batchable, but no matching partner
  svc::ScenarioRequest plain = f.request(f.src_b);

  auto t1 = service.submit(std::move(with_deadline));
  auto t2 = service.submit(std::move(with_retries));
  auto t3 = service.submit(std::move(other_t_end));
  auto t4 = service.submit(std::move(plain));
  service.resume();

  EXPECT_EQ(t1.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t2.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t3.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t4.result.get().status, svc::RequestStatus::kCompleted);
  service.wait_idle();

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/batches"), 0);
  EXPECT_EQ(m.counters.at("svc/batched_requests"), 0);
  EXPECT_EQ(m.counters.at("svc/requests_completed"), 4);
}

// The aggregation window holds an underfull batch open: a second batchable
// request arriving within the window joins the first one's solve.
TEST(ScenarioBatching, AggregationWindowCoalescesLateArrival) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.max_batch = 2;
  opt.batch_window_seconds = 5.0;  // generous; closes early once full
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  auto t1 = service.submit(f.request(f.src_a));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto t2 = service.submit(f.request(f.src_b));

  EXPECT_EQ(t1.result.get().status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(t2.result.get().status, svc::RequestStatus::kCompleted);
  service.wait_idle();

  const obs::Registry m = service.metrics();
  EXPECT_EQ(m.counters.at("svc/batches"), 1);
  EXPECT_EQ(m.counters.at("svc/batched_requests"), 2);
}

// Cancelling EVERY member of a running batch stops the whole batched solve
// at one step boundary; all members come back kCancelled with the same
// partial step count.
TEST(ScenarioBatching, CancellingAllMembersStopsBatch) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.max_batch = 2;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  svc::ScenarioRequest a = f.request(f.src_a);
  a.t_end = 800.0 * service.dt();
  svc::ScenarioRequest b = f.request(f.src_b);
  b.t_end = 800.0 * service.dt();
  auto t1 = service.submit(std::move(a));
  auto t2 = service.submit(std::move(b));
  service.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.cancel(t1.id);
  service.cancel(t2.id);

  const svc::ScenarioResult r1 = t1.result.get();
  const svc::ScenarioResult r2 = t2.result.get();
  EXPECT_EQ(r1.status, svc::RequestStatus::kCancelled);
  EXPECT_EQ(r2.status, svc::RequestStatus::kCancelled);
  if (r1.exec_index != 0 && r2.exec_index != 0) {
    EXPECT_EQ(r1.solve.steps_completed, r2.solve.steps_completed);
    EXPECT_LT(r1.solve.steps_completed, r1.solve.n_steps);
  }
}

// Blocks until the worker has picked up everything queued: the head of a
// batchable pickup then holds its batch open in the aggregation window.
void wait_until_picked(const svc::SimulationService& service) {
  while (service.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Settle, then solve: a head cancelled while its batch waits in the
// aggregation window is settled, but its partner is not, so the solve runs
// and decides both statuses — the cancelled head completes with its batch,
// bitwise equal to a cold run. A lone cancelled head has nothing to run
// for: it resolves kCancelled without a solve.
TEST(ScenarioBatching, HeadCancelledInWindowCompletesWithItsPartner) {
  const Fixture f;
  const par::ParallelResult cold_a = f.cold(f.src_a);
  const par::ParallelResult cold_b = f.cold(f.src_b);

  svc::ServiceOptions opt;
  opt.max_batch = 2;
  opt.batch_window_seconds = 2.0;  // closes early once full
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  auto head = service.submit(f.request(f.src_a));
  wait_until_picked(service);
  EXPECT_TRUE(service.cancel(head.id));
  auto partner = service.submit(f.request(f.src_b));
  const svc::ScenarioResult rh = head.result.get();
  const svc::ScenarioResult rp = partner.result.get();
  ASSERT_EQ(rh.status, svc::RequestStatus::kCompleted);
  EXPECT_EQ(rh.attempts, 1);
  EXPECT_TRUE(bitwise_equal(rh.solve.receiver_histories,
                            cold_a.receiver_histories));
  EXPECT_TRUE(bitwise_equal(rh.solve.u_final, cold_a.u_final));
  ASSERT_EQ(rp.status, svc::RequestStatus::kCompleted);
  EXPECT_TRUE(bitwise_equal(rp.solve.u_final, cold_b.u_final));
  EXPECT_EQ(service.metrics().counters.at("svc/batches"), 1);

  auto lone = service.submit(f.request(f.src_a));
  wait_until_picked(service);
  EXPECT_TRUE(service.cancel(lone.id));
  const svc::ScenarioResult rl = lone.result.get();  // when the window ends
  EXPECT_EQ(rl.status, svc::RequestStatus::kCancelled);
  EXPECT_EQ(rl.attempts, 0);
  EXPECT_NE(rl.exec_index, 0u);  // picked up, unlike a cancel while queued
  EXPECT_TRUE(rl.solve.receiver_histories.empty());
}

// health() describes the last pickup that ran a solve, the head standing
// for a batch: its id, no recovery footprint (a batch carries no fault
// tolerance), not degraded. A batch whose members were all
// cancelled in the aggregation window never runs and leaves health() as it
// was.
TEST(ScenarioBatching, HealthDescribesLastBatchThatRan) {
  const Fixture f;
  svc::ServiceOptions opt;
  opt.max_batch = 3;
  opt.batch_window_seconds = 2.0;
  opt.start_paused = true;
  svc::SimulationService service(f.mesh, f.part, f.oo, f.so, opt);

  std::vector<svc::SimulationService::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(
        service.submit(f.request(i % 2 == 0 ? f.src_a : f.src_b)));
  }
  service.resume();  // a full batch: no window wait
  for (auto& t : tickets) {
    ASSERT_EQ(t.result.get().status, svc::RequestStatus::kCompleted);
  }
  service.wait_idle();
  EXPECT_EQ(service.metrics().counters.at("svc/batches"), 1);
  const svc::ServiceHealth ran = service.health();
  EXPECT_EQ(ran.last_id, tickets.front().id);
  EXPECT_EQ(ran.last_revives_used, 0);
  EXPECT_EQ(ran.last_revives_budget, 0);
  EXPECT_EQ(ran.last_revives_remaining, 0);
  EXPECT_EQ(ran.last_recoveries, 0.0);
  EXPECT_EQ(ran.last_steps_rolled_back, 0.0);
  EXPECT_GT(ran.last_solve_seconds, 0.0);
  EXPECT_FALSE(ran.degraded);

  // Two members gathered into the open window, both cancelled before it
  // closes.
  auto a = service.submit(f.request(f.src_a));
  wait_until_picked(service);
  auto b = service.submit(f.request(f.src_b));
  wait_until_picked(service);
  EXPECT_TRUE(service.cancel(a.id));
  EXPECT_TRUE(service.cancel(b.id));
  for (auto* t : {&a, &b}) {
    const svc::ScenarioResult r = t->result.get();
    EXPECT_EQ(r.status, svc::RequestStatus::kCancelled);
    EXPECT_EQ(r.attempts, 0);
    EXPECT_NE(r.exec_index, 0u);
  }
  service.wait_idle();
  const svc::ServiceHealth after = service.health();
  EXPECT_EQ(after.last_id, ran.last_id);
  EXPECT_EQ(after.last_solve_seconds, ran.last_solve_seconds);
  EXPECT_EQ(after.degraded, ran.degraded);
}

}  // namespace
