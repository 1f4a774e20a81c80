#pragma once

// In-process SPMD substrate (see DESIGN.md): rank-per-thread execution with
// typed point-to-point messages, barriers, and reductions — the message-
// passing programming model of the paper's MPI code, runnable on one
// machine. The partitioned data structures and the communication pattern
// are identical to a distributed run; only the transport is shared memory.
//
// Fault tolerance (see DESIGN.md "Fault tolerance & checkpointing"):
//  * Poisoning — when any rank's function throws, every peer blocked in
//    recv/barrier/allreduce wakes and throws RankFailedError instead of
//    hanging forever; run() aggregates all root-cause errors into one
//    report.
//  * Deadlock detection — when every live rank is blocked and no pending
//    message can satisfy any of them, all waiters throw DeadlockError
//    naming each rank's blocked operation (src, tag), so mismatched
//    exchanges are diagnosable rather than eternal.
//  * One collective — barrier, allreduce and allgather are one generation-
//    counted, rank-indexed rendezvous: reductions fold in rank order, so
//    allreduce_sum is deterministic, and a rank joining a round of another
//    collective (a barrier paired with an allreduce) throws CommError.
//  * Deterministic fault injection — a seeded FaultPlan installed on the
//    Communicator kills ranks at planned steps and drops / duplicates /
//    corrupts / delays planned messages, so recovery machinery is testable
//    in CI. Each fault fires a planned number of times (default once),
//    surviving across run() retries.
//  * In-place recovery (opt-in via set_recovery) — instead of tearing the
//    whole run down on a rank failure, survivors park in await_recovery()
//    with their thread (and all rank-local state) intact; run()'s monitor
//    joins the dead rank's thread, repairs the communicator under a new
//    epoch, and respawns only the dead rank. Every message
//    is stamped with the recovery epoch at post time and stale-epoch
//    messages are discarded at receive time, so stragglers from the
//    pre-failure epoch cannot corrupt the restarted exchange.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace quake::par {

class Communicator;

// Base class for all substrate-level failures.
class CommError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown (a) out of blocking calls on surviving ranks once a peer has
// failed, and (b) by Communicator::run() as the aggregated report of every
// root-cause rank failure.
class RankFailedError : public CommError {
 public:
  RankFailedError(const std::string& what, std::vector<int> failed_ranks)
      : CommError(what), failed_(std::move(failed_ranks)) {}
  // Ranks whose function threw (root causes, not poison-wakeup casualties).
  [[nodiscard]] const std::vector<int>& failed_ranks() const {
    return failed_;
  }

 private:
  std::vector<int> failed_;
};

// All live ranks blocked with no satisfiable wait: what() lists each rank's
// blocked operation, e.g. "rank 0: recv(src=1, tag=3)".
class DeadlockError : public CommError {
 public:
  using CommError::CommError;
};

// Thrown on a rank killed by an installed FaultPlan.
class InjectedFaultError : public CommError {
 public:
  using CommError::CommError;
};

// Thrown by rank code to veto in-place recovery and force a full teardown:
// run()'s recovery monitor never revives after one of these (e.g. the
// recovery restore protocol found no usable common checkpoint, so parking
// and retrying in place could never make progress). The failure is
// aggregated into run()'s RankFailedError like any other, handing control
// back to the outer full-restart supervisor.
class UnrecoverableError : public CommError {
 public:
  using CommError::CommError;
};

// Deterministic, seeded fault schedule. Every fault fires `times` times
// (message faults: exactly once) per install; fired-state survives across
// run() calls, so a supervised retry does not re-hit a consumed fault.
struct FaultPlan {
  std::uint64_t seed = 1;  // drives the corrupted-value perturbation

  // Throw InjectedFaultError on `rank` when it reaches Rank::fault_point(step).
  // Matching is exact, so solvers can expose extra phase-specific fault
  // points under step encodings that cannot collide with real step numbers:
  // run_parallel calls fault_point(k) at the top of step k,
  // fault_point(-(k + 1)) between posting and draining the ghost exchange
  // (so step = -(k + 1) dies mid-exchange at step k), and
  // fault_point(INT_MIN + e) inside the recovery protocol of epoch e >= 1
  // (so step = INT_MIN + 1 dies *during* the first recovery). `times` > 1
  // lets the same planned kill re-fire after an in-place revival replays
  // the step — the same rank can be killed repeatedly across epochs. Kills
  // planned for one step land in one recovery epoch: once the first fires,
  // a rank whose kill for that step has not fired yet dies at its next
  // failure check instead of recovering as a survivor.
  struct Kill {
    int rank = 0;
    int step = 0;
    int times = 1;
  };
  std::vector<Kill> kills;

  enum class MsgAction {
    kDrop,       // message never delivered
    kDuplicate,  // delivered twice
    kCorrupt,    // one element bit-flipped (seeded choice)
    kDelay,      // delivered after the edge's next message (reordering);
                 // flushed if the system would otherwise deadlock
  };
  // Applies `action` to the `occurrence`-th send (0-based) on edge
  // (src, dst, tag).
  struct MsgFault {
    int src = 0;
    int dst = 0;
    int tag = 0;
    int occurrence = 0;
    MsgAction action = MsgAction::kDrop;
  };
  std::vector<MsgFault> msg_faults;
};

// Per-rank handle passed to the SPMD function. Methods may be called
// concurrently from different ranks' threads.
class Rank {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int size() const { return size_; }

  // Blocking tagged point-to-point. Messages between a (src, dst, tag)
  // triple are delivered in order. A receive waits until its message
  // arrives, a peer fails, or the deadlock detector fires.
  void send(int dest, int tag, std::span<const double> data);
  std::vector<double> recv(int src, int tag);

  // Blocking receive into a caller-owned buffer: the message must be
  // exactly `out.size()` doubles (CommError otherwise — a size mismatch on
  // a preplanned exchange is a program error, not a recoverable condition).
  // Drained message storage lands in this rank's buffer pool and the next
  // send draws from it — both without touching the communicator lock — so
  // once every edge has warmed up, a symmetric exchange (every rank
  // receives as many messages per step as it sends) runs with zero heap
  // allocation in steady state.
  void recv_into(int src, int tag, std::span<double> out);

  // Non-blocking variant of recv_into: returns true and fills `out` if a
  // message is already waiting on (src, tag), false immediately otherwise
  // (never registers in the deadlock detector's blocked table — callers
  // polling several edges must eventually fall back to a blocking
  // recv_into so a genuinely stuck exchange is diagnosed as a deadlock and
  // planned kDelay messages get flushed rather than spun on forever).
  // Same poisoning, stale-epoch, and size-mismatch semantics as recv_into;
  // drained storage is pooled the same way.
  [[nodiscard]] bool try_recv_into(int src, int tag, std::span<double> out);

  // Non-blocking variable-size receive: moves a waiting message on
  // (src, tag) into `out` and returns true, or returns false immediately.
  // For streams whose length the receiver cannot know up front (the
  // buddy-snapshot donation absorb, whose payload grows with the receiver
  // histories it carries). Same poisoning and stale-epoch semantics as
  // try_recv_into; never registers in the deadlock detector.
  [[nodiscard]] bool try_recv(int src, int tag, std::vector<double>& out);

  // Collectives: every rank must make the same call in the same order. A
  // reduction folds the ranks' values in rank order.
  void barrier();
  double allreduce_sum(double v);
  double allreduce_max(double v);
  double allreduce_min(double v);

  // All-gather: every rank contributes one double and every rank receives
  // the full vector, indexed by rank id. The recovery agreement uses this
  // to exchange per-rank progress and donation metadata in one collective
  // instead of R point-to-point rounds.
  std::vector<double> allgather(double v);

  // Deterministic fault hook: long-running solvers call this once per time
  // step so an installed FaultPlan can kill this rank at a planned step.
  void fault_point(int step);

  // In-place recovery rendezvous: call from a RankFailedError handler to
  // park this (surviving) rank's thread while run()'s monitor repairs the
  // communicator. Returns true once the failed ranks have been revived and
  // a new epoch has begun — resume collective work; returns false when
  // recovery is disabled, abandoned, or exhausted — rethrow and let the
  // full-restart supervisor take over.
  [[nodiscard]] bool await_recovery();

  // True on a rank whose thread was respawned by an in-place recovery (its
  // function restarted from the top while the survivors kept their state).
  [[nodiscard]] bool revived() const { return revived_; }

  // Current recovery epoch (0 until the first revival).
  [[nodiscard]] std::uint64_t epoch() const;

 private:
  friend class Communicator;
  Rank(Communicator* comm, int id, int size)
      : comm_(comm), id_(id), size_(size) {}
  Communicator* comm_;
  int id_;
  int size_;
  bool revived_ = false;
  // Rank-local message-storage pool: refilled by recv_into, drawn by send,
  // no locking (only this rank's thread touches it). Storage migrates
  // between ranks' pools with the messages that carry it.
  std::vector<std::vector<double>> pool_;
};

class Communicator {
 public:
  explicit Communicator(int n_ranks);

  // Runs `fn` once per rank, each on its own thread; returns when all
  // complete. If any rank throws, every blocked peer is woken (poisoned
  // communicator) and run() throws RankFailedError aggregating all
  // root-cause errors; a detected deadlock rethrows as DeadlockError.
  // A Communicator is reusable after a failed run.
  void run(const std::function<void(Rank&)>& fn);

  [[nodiscard]] int size() const { return n_ranks_; }

  // Installs (replacing any previous) a deterministic fault plan; resets
  // its fired-state.
  void install_fault_plan(const FaultPlan& plan);
  void clear_fault_plan();

  // In-place recovery budget: revival rounds per run(), 0 = off. When it
  // is positive, run() keeps a monitor on the calling thread: after a
  // failure it waits for every surviving rank to park in
  // Rank::await_recovery(), joins the failed ranks' threads, revives them
  // (repairing poison and fencing a new epoch), respawns only their
  // threads with Rank::revived() set, and resumes the survivors. Recovery
  // is abandoned (survivors' await_recovery returns false) when the budget
  // is exhausted, any rank already returned normally, or a rank threw
  // UnrecoverableError. Set between runs only.
  void set_recovery(int max_revives) { max_revives_ = max_revives; }

  // Current recovery epoch: 0 at the start of each run(), +1 per revival
  // round. Messages are stamped with the epoch at post time; receives
  // discard stale-epoch messages.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  // Revival rounds consumed by the most recent run() (reset at the start of
  // each run). Read between runs; callers use it to report how much of the
  // ft.max_revives budget a solve actually spent.
  [[nodiscard]] int revives_used() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return revives_used_;
  }

 private:
  friend class Rank;

  // A posted message plus the recovery epoch it belongs to; receives drop
  // messages whose epoch is not current (pre-failure stragglers).
  struct Msg {
    std::vector<double> data;
    std::uint64_t epoch = 0;
  };

  struct Mailbox {
    std::queue<Msg> messages;
  };

  // What a rank is currently blocked on (for deadlock diagnosis).
  struct Blocked {
    enum class Kind { kNone, kRecv, kCollective };
    Kind kind = Kind::kNone;
    int src = 0;
    int tag = 0;
    std::size_t gen = 0;  // collective generation at block time
  };

  void post(int src, int dst, int tag, std::vector<double> msg);
  std::vector<double> take(int src, int dst, int tag);
  // Non-blocking sibling of take: moves a waiting message into `out` or
  // returns false without blocking (never calls block_locked). Drops
  // stale-epoch messages like the blocking path; checks poison/deadlock
  // state only with `poison_check` (the donation absorb must drain a
  // complete message whose sender has since died).
  bool try_take(int src, int dst, int tag, std::vector<double>& out,
                bool poison_check);
  // Waits until a message on (src, dst, tag) is available (or the run is
  // down): the blocking logic of take; requires `lock` held, returns with
  // it held.
  void wait_for_message(std::unique_lock<std::mutex>& lock, int src, int dst,
                        int tag);
  // The one collective: joins the current round as `rank` with operation
  // `op` and value v, waits until every rank has joined, and returns `read`
  // of the round's rank-indexed values, called under the lock. Joining a
  // round of another operation throws CommError.
  template <class Read>
  auto collective(int rank, const char* op, double v, Read read);
  void fault_point(int rank, int step);
  bool await_recovery();
  // Repairs the communicator after `rank` failed: clears its entry from
  // the failure list (poison lifts when no failures remain), flushes every
  // in-flight mailbox to or from it, resets a partially filled collective
  // round (no waiter survives a poisoning, so its count is pre-failure
  // garbage), and advances the epoch to `new_epoch` so surviving in-flight
  // messages from older epochs are fenced off (mu_ held). run()'s recovery
  // monitor drives this; it does not respawn threads or fix live-rank
  // accounting by itself.
  void revive_locked(int rank, std::uint64_t new_epoch);
  // Drops stale-epoch messages from the front of `box`; returns the number
  // dropped (mu_ held).
  std::size_t drop_stale_locked(Mailbox& box);

  // Marks `rank` as failed with `what` and wakes all blocked peers.
  // Requires mu_ NOT held.
  void poison(int rank, const std::string& what);
  // Throws DeadlockError / RankFailedError if the run is down, or
  // InjectedFaultError when `rank` has an armed planned kill (mu_ held).
  void throw_if_down_locked(int rank);
  // Fires planned kill i: counts it and throws InjectedFaultError, whose
  // message ends with `note` (mu_ held).
  [[noreturn]] void fire_kill_locked(std::size_t i, const char* note);
  // Registers/deregisters a blocked wait and re-evaluates the all-ranks-
  // blocked condition (mu_ held).
  void block_locked(int rank, Blocked b);
  void unblock_locked(int rank);
  void check_deadlock_locked();
  void rank_done();  // live-count bookkeeping on fn exit

  int n_ranks_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::tuple<int, int, int>, Mailbox> boxes_;

  // Poison / deadlock state: set on failure, reset by the next run().
  bool poisoned_ = false;
  std::vector<std::pair<int, std::string>> failures_;  // (rank, what)
  bool deadlocked_ = false;
  std::string deadlock_report_;

  // In-place recovery state (monitor in run(); reset by the next run()).
  int max_revives_ = 0;  // set_recovery's budget
  std::atomic<std::uint64_t> epoch_{0};
  int n_parked_ = 0;     // survivors waiting in await_recovery()
  int n_completed_ = 0;  // ranks whose fn returned normally (cannot rewind)
  int revives_used_ = 0;
  bool recovery_abandoned_ = false;
  bool unrecoverable_ = false;

  // Blocked-rank table for deadlock detection.
  std::vector<Blocked> blocked_;
  int n_blocked_ = 0;
  int n_live_ = 0;

  // Fault-injection state (persists across run() calls). has_plan_ is
  // atomic so the per-step fault_point hook can bail without touching the
  // contended global mutex when no plan is installed — install/clear happen
  // between runs, never concurrently with rank threads.
  std::atomic<bool> has_plan_{false};
  FaultPlan plan_;
  std::vector<int> kill_fired_;  // fire counts, capped at Kill::times
  // Kills armed by another kill of the same step (see fault_point); they
  // fire at their rank's next failure check, within the current epoch.
  std::vector<std::uint8_t> kill_armed_;
  std::vector<std::uint8_t> msg_fired_;
  std::map<std::tuple<int, int, int>, int> edge_sends_;  // per-edge counter
  std::map<std::tuple<int, int, int>, Msg> delayed_;

  // Collective round state: ranks joined, generation, the round's
  // operation, and the rank-indexed values (two buffers, by generation
  // parity; sized once, so a barrier or allreduce allocates nothing).
  int coll_count_ = 0;
  std::size_t coll_gen_ = 0;
  const char* coll_op_ = "";
  std::vector<double> coll_vals_[2];
};

}  // namespace quake::par
