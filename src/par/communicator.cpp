#include "quake/par/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "quake/obs/obs.hpp"

namespace quake::par {
namespace {

std::string failure_report(
    const std::vector<std::pair<int, std::string>>& failures) {
  std::string report = std::to_string(failures.size()) + " rank(s) failed:";
  for (const auto& [rank, what] : failures) {
    report += " [rank " + std::to_string(rank) + ": " + what + "]";
  }
  return report;
}

std::vector<int> failed_ids(
    const std::vector<std::pair<int, std::string>>& failures) {
  std::vector<int> ids;
  ids.reserve(failures.size());
  for (const auto& [rank, what] : failures) ids.push_back(rank);
  return ids;
}

void count_recv(std::size_t n) {
  obs::counter_add("comm/msgs_recv", 1);
  obs::counter_add("comm/bytes_recv", static_cast<std::int64_t>(8 * n));
}

// Copies a received message into the caller's buffer, which a preplanned
// exchange sizes exactly: a mismatch is a program error, not a message to
// truncate or pad.
void copy_exact(const char* op, int src, int dst, int tag,
                const std::vector<double>& msg, std::span<double> out) {
  if (msg.size() != out.size()) {
    throw CommError(std::string(op) + " size mismatch on rank " +
                    std::to_string(dst) + ": recv(src=" + std::to_string(src) +
                    ", tag=" + std::to_string(tag) + ") got " +
                    std::to_string(msg.size()) + " doubles, caller buffer " +
                    std::to_string(out.size()));
  }
  std::copy(msg.begin(), msg.end(), out.begin());
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Communicator::Communicator(int n_ranks) : n_ranks_(n_ranks) {
  if (n_ranks < 1) throw std::invalid_argument("Communicator: n_ranks >= 1");
  blocked_.resize(static_cast<std::size_t>(n_ranks));
  for (auto& vals : coll_vals_) vals.resize(static_cast<std::size_t>(n_ranks));
}

void Communicator::install_fault_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  has_plan_ = true;
  kill_fired_.assign(plan_.kills.size(), 0);
  kill_armed_.assign(plan_.kills.size(), 0);
  msg_fired_.assign(plan_.msg_faults.size(), 0);
}

void Communicator::clear_fault_plan() {
  std::lock_guard<std::mutex> lock(mu_);
  has_plan_ = false;
  kill_fired_.clear();
  kill_armed_.clear();
  msg_fired_.clear();
}

void Rank::send(int dest, int tag, std::span<const double> data) {
  obs::counter_add("comm/msgs_sent", 1);
  obs::counter_add("comm/bytes_sent",
                   static_cast<std::int64_t>(8 * data.size()));
  // Recycled storage is filled before the post takes the lock, so a large
  // copy never serializes the other ranks' communication.
  std::vector<double> msg;
  if (!pool_.empty()) {
    msg = std::move(pool_.back());
    pool_.pop_back();
  }
  msg.assign(data.begin(), data.end());
  comm_->post(id_, dest, tag, std::move(msg));
}

std::vector<double> Rank::recv(int src, int tag) {
  std::vector<double> msg = comm_->take(src, id_, tag);
  count_recv(msg.size());
  return msg;
}

// The spent storage of a message received into a caller buffer lands in
// this rank's pool, for the next send.
void Rank::recv_into(int src, int tag, std::span<double> out) {
  std::vector<double> msg = comm_->take(src, id_, tag);
  copy_exact("recv_into", src, id_, tag, msg, out);
  pool_.push_back(std::move(msg));
  count_recv(out.size());
}

bool Rank::try_recv(int src, int tag, std::vector<double>& out) {
  if (!comm_->try_take(src, id_, tag, out, /*poison_check=*/false)) {
    return false;
  }
  count_recv(out.size());
  return true;
}

bool Rank::try_recv_into(int src, int tag, std::span<double> out) {
  std::vector<double> msg;
  if (!comm_->try_take(src, id_, tag, msg, /*poison_check=*/true)) {
    return false;
  }
  copy_exact("try_recv_into", src, id_, tag, msg, out);
  pool_.push_back(std::move(msg));
  count_recv(out.size());
  return true;
}

void Rank::fault_point(int step) { comm_->fault_point(id_, step); }

bool Rank::await_recovery() { return comm_->await_recovery(); }

std::uint64_t Rank::epoch() const { return comm_->epoch(); }

void Communicator::fault_point(int rank, int step) {
  // Solvers call this (at least) once per rank per step: skip the global
  // mutex entirely on the common no-plan path.
  if (!has_plan_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.kills.size(); ++i) {
    if (kill_fired_[i] >= plan_.kills[i].times) continue;
    if (plan_.kills[i].rank != rank || plan_.kills[i].step != step) continue;
    // Arm the other kills planned for this step: a victim still finishing
    // step k - 1 when this one dies must die as planned, in this recovery
    // epoch, rather than recover as a survivor and die in the next.
    for (std::size_t j = 0; j < plan_.kills.size(); ++j) {
      if (plan_.kills[j].step == step && plan_.kills[j].rank != rank &&
          kill_fired_[j] < plan_.kills[j].times) {
        kill_armed_[j] = 1;
      }
    }
    fire_kill_locked(i, "");
  }
}

void Communicator::fire_kill_locked(std::size_t i, const char* note) {
  ++kill_fired_[i];
  kill_armed_[i] = 0;
  // Kills fire on the victim's own thread, so the event lands in the
  // victim rank's registry.
  obs::counter_add("comm/fault_kills", 1);
  throw InjectedFaultError("injected fault: kill rank " +
                           std::to_string(plan_.kills[i].rank) + " at step " +
                           std::to_string(plan_.kills[i].step) + note);
}

void Communicator::throw_if_down_locked(int rank) {
  if (deadlocked_) throw DeadlockError(deadlock_report_);
  if (poisoned_) {
    // An armed planned kill (see fault_point) fires where its rank would
    // otherwise learn of the failure as a survivor.
    for (std::size_t i = 0; i < kill_armed_.size(); ++i) {
      if (kill_armed_[i] != 0 && plan_.kills[i].rank == rank) {
        fire_kill_locked(i, " (with the step's first victim)");
      }
    }
    throw RankFailedError("communicator poisoned: " +
                              failure_report(failures_),
                          failed_ids(failures_));
  }
}

void Communicator::poison(int rank, const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.emplace_back(rank, what);
    poisoned_ = true;
  }
  cv_.notify_all();
}

void Communicator::block_locked(int rank, Blocked b) {
  blocked_[static_cast<std::size_t>(rank)] = b;
  ++n_blocked_;
  check_deadlock_locked();
}

void Communicator::unblock_locked(int rank) {
  blocked_[static_cast<std::size_t>(rank)].kind = Blocked::Kind::kNone;
  --n_blocked_;
}

void Communicator::rank_done() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --n_live_;
    check_deadlock_locked();
  }
  cv_.notify_all();
}

void Communicator::revive_locked(int rank, std::uint64_t new_epoch) {
  std::erase_if(failures_, [rank](const auto& f) { return f.first == rank; });
  if (failures_.empty()) poisoned_ = false;
  // Flush every in-flight mailbox touching the failed rank: messages it
  // sent are from a state being rolled back, messages to it would be
  // consumed out of order by its restarted function. Stragglers between
  // survivors are left in place — the epoch fence discards them at
  // receive time.
  const auto touches_rank = [rank](const auto& edge) {
    const auto& [src, dst, tag] = edge.first;
    return src == rank || dst == rank;
  };
  std::erase_if(boxes_, touches_rank);
  std::erase_if(delayed_, touches_rank);
  // No waiter survives a poisoning (they all woke and threw), so a
  // partially filled collective round is pre-failure garbage. The
  // generation is kept: a bumped generation would falsely release the next
  // wait.
  coll_count_ = 0;
  if (new_epoch > epoch_.load(std::memory_order_relaxed)) {
    epoch_.store(new_epoch, std::memory_order_relaxed);
    // Kills armed for the epoch that ended and not fired are dropped.
    std::fill(kill_armed_.begin(), kill_armed_.end(), 0);
  }
}

bool Communicator::await_recovery() {
  std::unique_lock<std::mutex> lock(mu_);
  if (max_revives_ == 0 || recovery_abandoned_ || deadlocked_) return false;
  const std::uint64_t parked_at = epoch_.load(std::memory_order_relaxed);
  ++n_parked_;
  cv_.notify_all();  // the monitor waits for every survivor to park
  cv_.wait(lock, [&] {
    return recovery_abandoned_ ||
           epoch_.load(std::memory_order_relaxed) != parked_at;
  });
  if (recovery_abandoned_) {
    --n_parked_;
    cv_.notify_all();
    return false;
  }
  return true;  // revived peers are live again; resume on the new epoch
}

// Deadlock iff every live rank is blocked and none of their waits can be
// satisfied by current state. Only live ranks can change that state, and
// all of them are blocked, so the condition is stable once observed (the
// check runs whenever a rank blocks or exits, under the lock).
void Communicator::check_deadlock_locked() {
  if (deadlocked_ || poisoned_) return;
  if (n_live_ == 0 || n_blocked_ != n_live_) return;
  for (int r = 0; r < n_ranks_; ++r) {
    const Blocked& b = blocked_[static_cast<std::size_t>(r)];
    if (b.kind == Blocked::Kind::kCollective && coll_gen_ != b.gen) {
      return;  // release pending, will wake
    }
    if (b.kind == Blocked::Kind::kRecv) {
      // Stale-epoch stragglers cannot satisfy a waiter: drop them here so
      // they do not mask a genuine deadlock.
      const auto it = boxes_.find({b.src, r, b.tag});
      if (it != boxes_.end()) {
        drop_stale_locked(it->second);
        if (!it->second.messages.empty()) return;
      }
    }
  }
  // A fault-delayed message still in flight counts as progress: flush it
  // instead of declaring deadlock.
  if (!delayed_.empty()) {
    for (auto& [key, msg] : delayed_) {
      boxes_[key].messages.push(std::move(msg));
    }
    delayed_.clear();
    cv_.notify_all();
    check_deadlock_locked();  // flushed edges may still satisfy no waiter
    return;
  }
  deadlock_report_ = "deadlock detected, all live ranks blocked:";
  for (int r = 0; r < n_ranks_; ++r) {
    const Blocked& b = blocked_[static_cast<std::size_t>(r)];
    if (b.kind == Blocked::Kind::kNone) continue;  // finished rank
    // Every blocked collective waits in the current round (an older
    // round's release would have returned above), so its operation is the
    // round's.
    deadlock_report_ += " [rank " + std::to_string(r) + ": " +
                        (b.kind == Blocked::Kind::kRecv
                             ? "recv(src=" + std::to_string(b.src) +
                                   ", tag=" + std::to_string(b.tag) + ")"
                             : std::string(coll_op_)) +
                        "]";
  }
  deadlocked_ = true;
  cv_.notify_all();
}

void Communicator::post(int src, int dst, int tag, std::vector<double> msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    throw_if_down_locked(src);
    const auto key = std::tuple<int, int, int>{src, dst, tag};
    const int occurrence = edge_sends_[key]++;
    FaultPlan::MsgAction action = FaultPlan::MsgAction::kDrop;
    bool faulted = false;
    std::uint64_t fault_seed = 0;
    if (has_plan_) {
      for (std::size_t i = 0; i < plan_.msg_faults.size(); ++i) {
        const auto& f = plan_.msg_faults[i];
        if (msg_fired_[i] != 0 || f.src != src || f.dst != dst ||
            f.tag != tag || f.occurrence != occurrence) {
          continue;
        }
        msg_fired_[i] = 1;
        faulted = true;
        action = f.action;
        fault_seed = plan_.seed ^ splitmix64(i + 1);
        break;
      }
    }
    // Stamp the current recovery epoch at post time: if a failure and
    // revival happen while this message sits in the mailbox, the receive
    // side sees a stale epoch and discards it.
    const std::uint64_t ep = epoch_.load(std::memory_order_relaxed);
    auto deliver = [&](std::vector<double> m) {
      boxes_[key].messages.push(Msg{std::move(m), ep});
      // A previously delayed message on this edge rides after this one.
      auto d = delayed_.find(key);
      if (d != delayed_.end()) {
        boxes_[key].messages.push(std::move(d->second));
        delayed_.erase(d);
      }
    };
    if (!faulted) {
      deliver(std::move(msg));
    } else {
      // post() runs on the sender's thread: message-fault events are
      // charged to the rank whose send was tampered with.
      switch (action) {
        case FaultPlan::MsgAction::kDrop:
          obs::counter_add("comm/fault_drops", 1);
          break;
        case FaultPlan::MsgAction::kDuplicate:
          obs::counter_add("comm/fault_dups", 1);
          deliver(msg);
          deliver(std::move(msg));
          break;
        case FaultPlan::MsgAction::kCorrupt:
          obs::counter_add("comm/fault_corruptions", 1);
          if (!msg.empty()) {
            const std::size_t idx = static_cast<std::size_t>(
                splitmix64(fault_seed) % msg.size());
            std::uint64_t bits;
            std::memcpy(&bits, &msg[idx], sizeof(bits));
            bits ^= 1ULL << 51;  // flip a high mantissa bit
            std::memcpy(&msg[idx], &bits, sizeof(bits));
          }
          deliver(std::move(msg));
          break;
        case FaultPlan::MsgAction::kDelay:
          // Hold until the edge's next message (reordering); flushed by the
          // deadlock checker if the system would otherwise stall.
          obs::counter_add("comm/fault_delays", 1);
          delayed_[key] = Msg{std::move(msg), ep};
          break;
      }
    }
  }
  cv_.notify_all();
}

std::size_t Communicator::drop_stale_locked(Mailbox& box) {
  const std::uint64_t ep = epoch_.load(std::memory_order_relaxed);
  std::size_t dropped = 0;
  while (!box.messages.empty() && box.messages.front().epoch != ep) {
    box.messages.pop();
    ++dropped;
  }
  return dropped;
}

void Communicator::wait_for_message(std::unique_lock<std::mutex>& lock,
                                    int src, int dst, int tag) {
  throw_if_down_locked(dst);
  const auto key = std::tuple<int, int, int>{src, dst, tag};
  std::size_t stale = 0;
  const auto ready = [&] {
    if (poisoned_ || deadlocked_) return true;
    auto it = boxes_.find(key);
    if (it == boxes_.end()) return false;
    stale += drop_stale_locked(it->second);
    return !it->second.messages.empty();
  };
  if (!ready()) {
    block_locked(dst, {Blocked::Kind::kRecv, src, tag, 0});
    cv_.wait(lock, ready);
    unblock_locked(dst);
  }
  if (stale != 0) {
    // Charged to the receiving rank's thread-local registry (we run on it).
    obs::counter_add("comm/stale_msgs_discarded",
                     static_cast<std::int64_t>(stale));
  }
  throw_if_down_locked(dst);
}

std::vector<double> Communicator::take(int src, int dst, int tag) {
  std::unique_lock<std::mutex> lock(mu_);
  wait_for_message(lock, src, dst, tag);
  auto& q = boxes_[std::tuple<int, int, int>{src, dst, tag}].messages;
  std::vector<double> msg = std::move(q.front().data);
  q.pop();
  return msg;
}

bool Communicator::try_take(int src, int dst, int tag,
                            std::vector<double>& out, bool poison_check) {
  std::unique_lock<std::mutex> lock(mu_);
  // Without the poison check a parked message is taken even if its sender
  // has since died: it is complete and valid (the epoch fence already
  // discards stale generations). Donation absorbs must be able to drain a
  // buddy snapshot that landed just before the donor's death; aborting
  // here would let the revival flush wipe the freshest generation.
  if (poison_check) throw_if_down_locked(dst);
  const auto it = boxes_.find(std::tuple<int, int, int>{src, dst, tag});
  if (it == boxes_.end()) return false;
  const std::size_t stale = drop_stale_locked(it->second);
  if (stale != 0) {
    obs::counter_add("comm/stale_msgs_discarded",
                     static_cast<std::int64_t>(stale));
  }
  if (it->second.messages.empty()) return false;
  out = std::move(it->second.messages.front().data);
  it->second.messages.pop();
  return true;
}

template <class Read>
auto Communicator::collective(int rank, const char* op, double v, Read read) {
  std::unique_lock<std::mutex> lock(mu_);
  throw_if_down_locked(rank);
  if (coll_count_ == 0) {
    coll_op_ = op;
  } else if (std::strcmp(coll_op_, op) != 0) {
    // Pairing a barrier with an all-reduce (or max with min) would release
    // both with the wrong meaning: a program error, never a silent match.
    throw CommError("collective mismatch on rank " + std::to_string(rank) +
                    ": " + op + " joined a round of " + coll_op_);
  }
  const std::size_t gen = coll_gen_;
  // Double-buffered by generation parity: a rank released from this round
  // may enter the next before a slow waiter of this one reads its values,
  // but cannot enter the one after until every waiter here has read.
  const std::vector<double>& vals = coll_vals_[gen % 2];
  coll_vals_[gen % 2][static_cast<std::size_t>(rank)] = v;
  if (++coll_count_ == n_ranks_) {
    coll_count_ = 0;
    ++coll_gen_;
    cv_.notify_all();
    return read(std::span<const double>(vals));
  }
  const auto released = [&] {
    return poisoned_ || deadlocked_ || coll_gen_ != gen;
  };
  block_locked(rank, {Blocked::Kind::kCollective, 0, 0, gen});
  cv_.wait(lock, released);
  unblock_locked(rank);
  // The round completed iff the generation advanced; a poison landing
  // after the last arrival must not retroactively fail waiters that were
  // merely slow to wake. Otherwise two planned kills just downstream of
  // the same barrier would be split across two recovery epochs: the first
  // victim's poison would knock the second out of the completed barrier
  // before it could reach its own fault point.
  if (coll_gen_ == gen) throw_if_down_locked(rank);
  return read(std::span<const double>(vals));
}

// Every collective is one rendezvous round read under the lock: a barrier
// reads nothing, a reduction folds the rank-indexed values in rank order
// (so the sum does not depend on arrival order), an all-gather copies them.
void Rank::barrier() {
  comm_->collective(id_, "barrier", 0.0, [](auto) {});
}

double Rank::allreduce_sum(double v) {
  return comm_->collective(id_, "allreduce_sum", v, [](auto x) {
    return std::accumulate(x.begin() + 1, x.end(), x[0]);
  });
}
double Rank::allreduce_max(double v) {
  return comm_->collective(id_, "allreduce_max", v, [](auto x) {
    return *std::max_element(x.begin(), x.end());
  });
}
double Rank::allreduce_min(double v) {
  return comm_->collective(id_, "allreduce_min", v, [](auto x) {
    return *std::min_element(x.begin(), x.end());
  });
}

std::vector<double> Rank::allgather(double v) {
  return comm_->collective(id_, "allgather", v, [](auto x) {
    return std::vector<double>(x.begin(), x.end());
  });
}

void Communicator::run(const std::function<void(Rank&)>& fn) {
  {
    // Reset any state left over from a previous (possibly failed) run so
    // the communicator is reusable by supervised retry loops. Fault-plan
    // fired-state is deliberately kept: consumed faults stay consumed.
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = false;
    failures_.clear();
    deadlocked_ = false;
    deadlock_report_.clear();
    boxes_.clear();
    edge_sends_.clear();
    delayed_.clear();
    coll_count_ = 0;
    n_blocked_ = 0;
    n_live_ = n_ranks_;
    blocked_.assign(static_cast<std::size_t>(n_ranks_), {});
    epoch_.store(0, std::memory_order_relaxed);
    n_parked_ = 0;
    n_completed_ = 0;
    revives_used_ = 0;
    recovery_abandoned_ = false;
    unrecoverable_ = false;
  }
  // One slot per rank so a revived rank's thread can be respawned in place.
  std::vector<std::thread> threads(static_cast<std::size_t>(n_ranks_));
  std::exception_ptr deadlock_error;
  std::mutex deadlock_mu;
  const auto spawn = [&](int r, bool revived) {
    threads[static_cast<std::size_t>(r)] = std::thread([&, r, revived] {
      // The Rank handle lives on its own thread: a respawn gets a fresh one
      // (fresh message pool, revived() set) without touching survivors'.
      Rank rank(this, r, n_ranks_);
      rank.revived_ = revived;
      try {
        fn(rank);
        std::lock_guard<std::mutex> lock(mu_);
        ++n_completed_;  // finished ranks cannot rewind: no more revivals
      } catch (const DeadlockError&) {
        std::lock_guard<std::mutex> lock(deadlock_mu);
        if (!deadlock_error) deadlock_error = std::current_exception();
      } catch (const UnrecoverableError& e) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          unrecoverable_ = true;
        }
        poison(r, e.what());
      } catch (const RankFailedError& e) {
        // Poison-wakeup casualty of a peer failure: not a root cause, do
        // not re-report. A RankFailedError thrown by user code before any
        // poisoning is a genuine failure and is recorded.
        std::lock_guard<std::mutex> lock(mu_);
        if (!poisoned_) {
          failures_.emplace_back(r, e.what());
          poisoned_ = true;
          cv_.notify_all();
        }
      } catch (const std::exception& e) {
        poison(r, e.what());
      } catch (...) {
        poison(r, "unknown exception");
      }
      rank_done();
    });
  };
  for (int r = 0; r < n_ranks_; ++r) spawn(r, /*revived=*/false);

  if (max_revives_ > 0) {
    // Recovery monitor (runs on the calling thread): when a failure has
    // poisoned the communicator and every surviving rank has parked in
    // await_recovery(), join the dead ranks' threads, repair the
    // communicator, and respawn only them. With no survivor at all (one
    // rank, or every rank dead in one epoch) it revives every rank when
    // each is a recorded root-cause failure: each restores its newest cut
    // through the same agreement. Everything else tears down as before
    // (n_live_ drains to zero).
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] {
        return n_live_ == 0 ||
               (poisoned_ && !recovery_abandoned_ && n_live_ > 0 &&
                n_parked_ == n_live_);
      });
      if (n_live_ == 0 &&
          (!poisoned_ || recovery_abandoned_ ||
           failures_.size() != static_cast<std::size_t>(n_ranks_))) {
        break;
      }
      if (unrecoverable_ || deadlocked_ || n_completed_ > 0 ||
          revives_used_ >= max_revives_) {
        // Parked survivors wake, see the abandonment, and rethrow — the
        // run drains into the aggregated-failure path below.
        recovery_abandoned_ = true;
        cv_.notify_all();
        continue;
      }
      const std::vector<int> failed = failed_ids(failures_);
      ++revives_used_;
      const std::uint64_t next_epoch =
          epoch_.load(std::memory_order_relaxed) + 1;
      lock.unlock();
      // The failed ranks' threads have exited (a failure only poisons once
      // the function has thrown); join so their slots can be respawned.
      for (int r : failed) {
        auto& t = threads[static_cast<std::size_t>(r)];
        if (t.joinable()) t.join();
      }
      lock.lock();
      for (int r : failed) revive_locked(r, next_epoch);
      // Count the respawned ranks as live BEFORE any survivor can resume
      // and block on them, or the deadlock detector would see every live
      // rank blocked on a rank it does not yet know about.
      n_live_ += static_cast<int>(failed.size());
      n_parked_ = 0;
      lock.unlock();
      for (int r : failed) spawn(r, /*revived=*/true);
      cv_.notify_all();  // release parked survivors into the new epoch
      lock.lock();
    }
  }

  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  boxes_.clear();
  if (deadlock_error) std::rethrow_exception(deadlock_error);
  if (!failures_.empty()) {
    throw RankFailedError(failure_report(failures_), failed_ids(failures_));
  }
}

}  // namespace quake::par
