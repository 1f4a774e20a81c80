#include "recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "quake/obs/obs.hpp"
#include "quake/util/checkpoint.hpp"
#include "quake/util/timer.hpp"

namespace quake::par {
namespace {

std::string ckpt_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ckpt";
}

// Communicator tag for survivor state donation: the buddy-capture shift
// exchange at each checkpoint barrier and the donation stream during
// recovery. Distinct from the ghost exchange (0).
constexpr int kDonationTag = 10;

// A buddy-snapshot donation the victim could not use: the stream never
// arrived within the recovery deadline (donor dead or stalled mid-
// donation) or its payload failed the size/step integrity check. Handled
// inside the recovery protocol — the victim votes its restore failed and
// every rank falls back to tier-2 rollback — so a broken donation degrades
// the recovery by one tier instead of aborting it into a full restart.
class DonationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A rank's checkpoint cut is the one format of its disk snapshot, its
// in-memory rollback shadow and the copy its buddy holds:
//   [step | u | u_prev | dku_prev | owned receiver histories]
// Each state vector holds ns doubles; each owned receiver's history holds 3
// doubles per step, in the rank's receiver order. A cut fits this run iff
// its step is an integer in [1, n_steps) and its length is exactly what
// that step implies, so a cut of another shape (another partition or
// receiver set) never restores.
bool cut_fits(std::span<const double> cut, std::size_t ns, int n_steps,
              std::size_t n_receivers) {
  if (cut.empty()) return false;
  const double step = cut[0];
  return step >= 1.0 && step < n_steps && step == std::floor(step) &&
         cut.size() ==
             1 + 3 * ns + 3 * static_cast<std::size_t>(step) * n_receivers;
}

std::int64_t cut_step(const std::vector<double>& cut) {
  return cut.empty() ? std::int64_t{-1} : static_cast<std::int64_t>(cut[0]);
}

}  // namespace

// Retained disk generations that load and fit this run, newest first, with
// the corruption flag the generation-fallback counter needs.
struct Recovery::DiskCands {
  std::vector<std::pair<int, std::vector<double>>> cuts;  // (gen, cut)
  bool newest_corrupt = false;
};

Recovery::Recovery(Rank& rank, const Policy& policy, State state, int n_steps,
                   std::vector<int> neighbors,
                   std::span<const std::size_t> log_len)
    : rank_(rank),
      p_(policy),
      st_(std::move(state)),
      n_steps_(n_steps),
      path_(ckpt_path(p_.dir, rank.id())),
      nb_rank_(std::move(neighbors)),
      start_of_(static_cast<std::size_t>(rank.size()), 0) {
  // Tier-1 outbound message log: per neighbor, the last `log_cap` posted
  // coalesced exchange payloads, keyed by step, delta-compressed against
  // the previous step on the same edge (util::DeltaRing — XOR + zero-run
  // coding, bit-exact). During a replay recovery survivors re-serve these
  // so only the revived ranks re-execute steps. Without a log (log_cap 0)
  // there are no rings: every reader sits behind log_cap > 0.
  if (p_.log_cap <= 0) return;
  msg_log_.reserve(log_len.size());
  for (const std::size_t len : log_len) msg_log_.emplace_back(len, p_.log_cap);
}

// The cut this rank holds for its predecessor: at each checkpoint barrier
// rank r streams its shadow to rank (r+1)%R, which holds it in held_ — in
// that thread's frame, so a buddy that dies loses what it held, exactly
// like remote node memory. On revival the buddy donates it back and the
// revived rank restores the newest checkpoint without touching disk. The
// stream is posted fire-and-forget and absorbed non-blockingly (the barrier
// bracketing the capture guarantees it has landed); the cut's step header
// is what lets the absorber date a payload it did not wait for, and the
// communicator's epoch fence discards any donation posted before a revival,
// so a stale pre-failure generation can never be absorbed after one (the
// absorb falls back to the previous absorbed generation, which the
// two-interval log ring still covers). Keeps the newest by header step.
void Recovery::absorb() {
  if (!p_.donate) return;
  try {
    while (rank_.try_recv(pred_, kDonationTag, donation_buf_)) {
      if (cut_step(donation_buf_) > cut_step(held_)) {
        held_ = std::move(donation_buf_);  // frees the older cut
        donation_buf_.clear();
      }
    }
  } catch (const RankFailedError&) {
    // The absorb is opportunistic, never a failure-detection point: with a
    // peer already down, simultaneous planned kills must still reach their
    // own fault points, and survivors' next REAL comm op sees the poison
    // anyway. Whatever was absorbed stands.
  }
}

void Recovery::log_post(std::size_t nb, int k, std::span<const double> msg) {
  if (p_.log_cap > 0) msg_log_[nb].push(k, msg);
}

Recovery::DiskCands Recovery::load_disk_candidates() const {
  DiskCands d;
  for (int gen = 0; gen < kGenerations; ++gen) {
    std::vector<double> cut;
    const util::SnapshotLoadStatus st = util::load_snapshot_status(
        util::snapshot_generation_path(path_, gen), &cut);
    if (gen == 0 && st == util::SnapshotLoadStatus::kCorrupt) {
      d.newest_corrupt = true;
    }
    if (st == util::SnapshotLoadStatus::kOk &&
        cut_fits(cut, ns_, n_steps_, st_.histories.size())) {
      d.cuts.emplace_back(gen, std::move(cut));
    }
  }
  return d;
}

// Receive the step-`step` cut rank (r+1)%R holds for this rank. The wait is
// a non-blocking poll with a deadline rather than a blocking recv: a donor
// that dies mid-stream poisons the communicator and the poll throws
// RankFailedError, while a donor whose stream silently never arrives
// (dropped message, donor wedged) runs the poll into the deadline — the
// victim can no longer hang here. The deadline and a cut that does not fit
// throw DonationError, which the recovery agreement's confirmation round
// turns into a collective tier-2 fallback instead of aborting the recovery
// outright.
std::vector<double> Recovery::receive_donation(int step) {
  constexpr double kDonationWaitSeconds = 2.0;
  constexpr int kDonationYieldPasses = 64;
  std::vector<double> pay;
  const auto t0 = std::chrono::steady_clock::now();
  int passes = 0;
  for (;;) {
    if (rank_.try_recv(buddy_, kDonationTag, pay)) {
      if (cut_step(pay) == step) break;
      // A leftover generation on this edge (the epoch fence already
      // dropped anything from before the revival): discard, keep
      // draining — the donor streams the advertised step behind it.
      continue;
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (waited > kDonationWaitSeconds) {
      obs::scope_record("recover/donate/wait", waited);
      throw DonationError(
          "state donation to rank " + std::to_string(rank_.id()) +
          " from donor " + std::to_string(buddy_) + " missed the " +
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
  if (!cut_fits(pay, ns_, n_steps_, st_.histories.size())) {
    throw DonationError("state donation payload mismatch on rank " +
                        std::to_string(rank_.id()) + ": " +
                        std::to_string(pay.size()) +
                        " doubles do not fit a step-" + std::to_string(step) +
                        " cut");
  }
  return pay;
}

// The one restore, for both agreements: load this rank's vectors and owned
// histories from the agreed step-`step` cut — `cut` (the shadow or a disk
// generation; `fallback` when an older generation stands in for a corrupt
// newest one) or, when empty, the buddy's donation — keep it as the
// rollback shadow, and count it. Histories are append-only and
// bit-identical across replays, so a survivor rolling back rewrites its
// history prefix with the bits it already holds. A broken donation throws
// DonationError.
void Recovery::restore_agreed(int step, std::vector<double> cut,
                              bool fallback) {
  if (cut.empty()) {
    cut = receive_donation(step);
    obs::counter_add("par/donation_restores", 1);
  } else if (fallback) {
    // The newest generation existed but failed its CRC; the rotation chain
    // carried an older intact cut instead.
    obs::counter_add("checkpoint/generation_fallbacks", 1);
  }
  const double* c = cut.data() + 1;
  std::copy(c, c + ns_, st_.u.begin());
  std::copy(c + ns_, c + 2 * ns_, st_.u_prev.begin());
  std::copy(c + 2 * ns_, c + 3 * ns_, st_.dku_prev.begin());
  c += 3 * ns_;
  for (History* hist : st_.histories) {
    hist->resize(static_cast<std::size_t>(step));
    for (auto& sample : *hist) {
      std::copy(c, c + 3, sample.begin());
      c += 3;
    }
  }
  shadow_ = std::move(cut);
  obs::counter_add("ckpt/restores", 1);
  obs::counter_add("ckpt/restored_steps", step);
  has_state_ = true;
}

int Recovery::start() {
  const int k0 = agree_restore(/*recovering=*/false, /*donated=*/-1);
  std::fill(start_of_.begin(), start_of_.end(), k0);
  frontier_ = k0;
  return k0;
}

int Recovery::recover(int k_done) {
  QUAKE_OBS_SCOPE("recover");
  obs::gauge_set("par/epoch", static_cast<double>(rank_.epoch()));
  // Recovery-phase fault point: a planned Kill with step = INT_MIN + epoch
  // dies during this recovery (see FaultPlan).
  rank_.fault_point(std::numeric_limits<int>::min() +
                    static_cast<int>(rank_.epoch()));
  const int k0 = agree_recover(k_done);
  // Rendezvous before re-entering the step loop; this scope's time is the
  // wait for the slowest rank's restore (usually the revived rank taking
  // its donated snapshot off the wire).
  QUAKE_OBS_SCOPE("resume");
  rank_.barrier();
  return k0;
}

// ---- checkpoint restore: agree on a common restart step ----------------
// Each rank proposes its newest usable state — the in-memory shadow if it
// has one, a donated buddy snapshot offered by the caller, or the newest
// usable snapshot among its retained generations; the collective restart
// step is the minimum proposal, and a second round confirms every rank can
// serve it. On a fresh start a disagreement falls back to from-scratch
// (always correct, at worst wasteful); during an in-place recovery it
// throws UnrecoverableError instead, handing the failure to the
// full-restart supervisor (an in-place from-scratch "resume" would silently
// discard survivors' progress).
int Recovery::agree_restore(bool recovering, std::int64_t donated) {
  int k0 = 0;
  if (!p_.dir.empty()) {
    std::optional<obs::ScopeTimer> agree_scope;
    if (recovering) agree_scope.emplace("agree");
    DiskCands disk = load_disk_candidates();
    double proposal = static_cast<double>(cut_step(shadow_));
    if (donated >= 1) {
      proposal = std::max(proposal, static_cast<double>(donated));
    }
    for (const auto& [gen, cut] : disk.cuts) {
      proposal = std::max(proposal, cut[0]);
    }
    const double agreed = rank_.allreduce_min(proposal);
    const bool from_shadow = !shadow_.empty() && shadow_[0] == agreed;
    const bool from_donation = !from_shadow && donated >= 1 &&
                               static_cast<double>(donated) == agreed;
    auto chosen = disk.cuts.end();
    if (!from_shadow && !from_donation) {
      chosen = std::find_if(disk.cuts.begin(), disk.cuts.end(),
                            [&](const auto& gc) {
                              return gc.second[0] == agreed;
                            });
    }
    const double all_can = rank_.allreduce_min(
        agreed >= 1.0 &&
                (from_shadow || from_donation || chosen != disk.cuts.end())
            ? 1.0
            : 0.0);
    if (all_can == 1.0 && recovering) {
      // Donors need to know which revived ranks restore by donation: rank
      // (v+1)%R streams what it holds when v asks for it.
      const std::vector<double> wants =
          rank_.allgather(from_donation ? 1.0 : 0.0);
      if (p_.donate && wants[static_cast<std::size_t>(pred_)] == 1.0) {
        rank_.send(pred_, kDonationTag, held_);
        obs::counter_add("par/donations_served", 1);
      }
    }
    agree_scope.reset();
    if (all_can == 1.0) {
      std::optional<obs::ScopeTimer> restore_scope;
      if (recovering) restore_scope.emplace("restore");
      k0 = static_cast<int>(agreed);
      try {
        const bool fallback = chosen != disk.cuts.end() &&
                              disk.newest_corrupt && chosen->first > 0;
        restore_agreed(k0,
                       from_shadow     ? std::move(shadow_)
                       : from_donation ? std::vector<double>{}
                                       : std::move(chosen->second),
                       fallback);
      } catch (const DonationError& e) {
        // Tier 2 already is the fallback: with the donation agreed on as
        // the only common state, losing it leaves nothing to roll back to —
        // hand the failure to the full-restart supervisor.
        throw UnrecoverableError(std::string("rollback restore: ") +
                                 e.what());
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
  if (k0 == 0) {
    // Fresh (or retried-from-scratch) start: drop any partial histories a
    // failed attempt appended to this rank's owned receivers.
    for (History* hist : st_.histories) hist->clear();
  }
  has_state_ = true;
  return k0;
}

// ---- three-tier recovery agreement (see DESIGN.md "Localized recovery").
// Tier 1: the victim restores a donated (or disk) snapshot and replays
// forward on logged messages while survivors keep their state — zero
// survivor rollback. Tier 2: the log cannot cover the replay span, so
// everyone rolls back to the newest common state via agree_restore (the
// victim's proposal still includes the donated step). Tier 3 is
// agree_restore throwing UnrecoverableError into the full-restart
// supervisor. Returns this rank's resume step and fills start_of_ /
// frontier_. ----
int Recovery::agree_recover(int k_done) {
  const bool victim = !has_state_;
  const bool log_on = p_.log_cap > 0;
  // A donation posted before the failure may still sit unabsorbed on the
  // pred edge: absorb it now — try_recv's epoch fence discards anything
  // stamped before the revival, so only a cut donated in this epoch (i.e.
  // by a surviving pred re-streaming) can land here, and the inventory
  // round below advertises whatever newest generation this rank actually
  // holds.
  absorb();
  std::optional<obs::ScopeTimer> agree_scope(std::in_place, "agree");
  // Round 1: donation inventory. Every rank advertises the step it holds
  // for its predecessor; victim v reads slot (v+1)%R.
  const std::vector<double> held_steps =
      rank_.allgather(p_.donate ? static_cast<double>(cut_step(held_)) : -1.0);
  std::int64_t donated = -1;
  if (victim && held_steps[static_cast<std::size_t>(buddy_)] >= 1.0) {
    donated =
        static_cast<std::int64_t>(held_steps[static_cast<std::size_t>(buddy_)]);
  }

  // Each victim picks its replay source: the donated cut if one is held (a
  // victim whose buddy died with it falls to disk — the buddy's fresh
  // thread advertises -1), else its newest disk generation. Survivors
  // resume where they stopped (k_done + 1) without touching their state.
  std::int64_t my_start = -1;
  bool use_donation = false;
  std::vector<double> disk_pick;
  bool disk_gen_fallback = false;
  if (!victim) {
    my_start = k_done + 1;
  } else if (log_on) {
    use_donation = donated >= 1;
    my_start = donated;
    if (!use_donation) {
      DiskCands disk = load_disk_candidates();
      for (auto& [gen, cut] : disk.cuts) {
        if (cut_step(cut) > my_start) {
          my_start = cut_step(cut);
          disk_gen_fallback = disk.newest_corrupt && gen > 0;
          disk_pick = std::move(cut);
        }
      }
    }
  }

  // Round 2: roles (0 = survivor, 1 = victim restoring by donation — its
  // buddy must stream — 2 = victim restoring from disk). Round 3: per-rank
  // resume points. With simultaneous multi-rank failures every rank learns
  // the whole victim set here, so survivors serve each victim's replay
  // span independently.
  const std::vector<double> roles =
      rank_.allgather(victim ? (use_donation ? 1.0 : 2.0) : 0.0);
  const std::vector<double> starts =
      rank_.allgather(static_cast<double>(my_start));
  const auto n_victims = std::count_if(roles.begin(), roles.end(),
                                       [](double role) { return role != 0.0; });

  // Tier-1 feasibility: every rank must be able to re-serve, from its
  // outbound log, every step a behind neighbor will re-consume (steps
  // [start_of[neighbor], my resume point) per edge). This is also what
  // gates OVERLAPPING victims: a ghost edge between two victims at the
  // SAME resume step has an empty span on both sides (they regenerate each
  // other's messages live while marching forward together), but victims at
  // different resume steps would need a span no fresh thread's empty log
  // can serve, so those degrade to tier-2 rollback.
  bool ok = log_on && my_start >= 0;
  for (std::size_t s = 0; ok && s < starts.size(); ++s) {
    ok = starts[s] >= 0.0;
  }
  for (std::size_t nb = 0; ok && nb < nb_rank_.size(); ++nb) {
    const int lo =
        static_cast<int>(starts[static_cast<std::size_t>(nb_rank_[nb])]);
    for (int k = lo; ok && k < static_cast<int>(my_start); ++k) {
      ok = msg_log_[nb].contains(k);
    }
  }
  const bool all_ok = rank_.allreduce_min(ok ? 1.0 : 0.0) == 1.0;

  // Tier 1. Donors stream what they hold; victims restore; survivors keep
  // their current state.
  bool restored = all_ok;
  if (all_ok) {
    if (p_.donate && roles[static_cast<std::size_t>(pred_)] == 1.0) {
      rank_.send(pred_, kDonationTag, held_);
      obs::counter_add("par/donations_served", 1);
    }
    agree_scope.reset();
    std::optional<obs::ScopeTimer> restore_scope(std::in_place, "restore");
    if (victim) {
      try {
        restore_agreed(static_cast<int>(my_start), std::move(disk_pick),
                       disk_gen_fallback);
      } catch (const DonationError& e) {
        // Broken donation (missed deadline, cut that does not fit): vote
        // the restore down instead of aborting — every rank degrades to
        // tier-2 together in the confirmation round below.
        std::fprintf(stderr, "[quake::par] rank %d: %s\n", rank_.id(),
                     e.what());
        restored = false;
      }
    }
    restore_scope.reset();
    // Confirmation round, BEFORE any log is served: had a victim's restore
    // failed after survivors already re-served their logs, the replayed
    // messages would sit in FIFO order ahead of the tier-2 resume's live
    // traffic and corrupt it. Only a unanimous restore lets replay proceed.
    restored = rank_.allreduce_min(restored ? 1.0 : 0.0) == 1.0;
  }
  if (!restored) {
    // Tier 2: donation-aware rollback, unless the donation is what just
    // failed to restore.
    agree_scope.reset();
    obs::counter_add("par/replay_fallbacks", 1);
    const int k0 = agree_restore(/*recovering=*/true, all_ok ? -1 : donated);
    for (auto& ring : msg_log_) ring.clear();
    std::fill(start_of_.begin(), start_of_.end(), k0);
    frontier_ = k0;
    return k0;
  }
  QUAKE_OBS_SCOPE("replay");
  for (std::size_t s = 0; s < starts.size(); ++s) {
    start_of_[s] = static_cast<int>(starts[s]);
  }
  frontier_ = *std::max_element(start_of_.begin(), start_of_.end());
  // Re-serve the log in ascending step order per edge, before any live
  // post of this epoch: tagged FIFO delivery plus the epoch fence hands
  // each behind rank exactly the message sequence it would have received
  // from an undisturbed peer. With several victims each edge's span is
  // decoded and served independently.
  for (std::size_t nb = 0; nb < nb_rank_.size(); ++nb) {
    const int m = nb_rank_[nb];
    msg_log_[nb].for_each(start_of_[static_cast<std::size_t>(m)],
                          static_cast<int>(my_start),
                          [&](int /*step*/, std::span<const double> payload) {
                            rank_.send(m, /*tag=*/0, payload);
                          });
  }
  if (victim) {
    obs::counter_add("par/steps_replayed",
                     frontier_ - static_cast<int>(my_start));
  }
  // Counted once per recovery event (rank 0 speaks for the agreement), not
  // per rank, so the summed counter reads as "how many times did a single
  // tier-1 pass repair several ranks".
  if (n_victims >= 2 && rank_.id() == 0) {
    obs::counter_add("par/multi_victim_replays", 1);
  }
  return static_cast<int>(my_start);
}

// ---- periodic cut, barrier-bracketed so the per-rank files of a
// checkpoint generation form a consistent cut. Suppressed below the replay
// frontier: a catching-up rank re-crosses checkpoint steps the ahead ranks
// already took, and the barriers only match once all ranks reach the step
// together ----
void Recovery::checkpoint(int k) {
  if (p_.dir.empty() || p_.every <= 0 || (k + 1) % p_.every != 0 ||
      k + 1 >= n_steps_ || !may_collect(k)) {
    return;
  }
  QUAKE_OBS_SCOPE("checkpoint");
  rank_.barrier();
  // Capture the cut once, into the shadow: it is the rollback target even
  // when the disk write below fails (survivors roll back from memory, disk
  // only serves a revived rank), and both the disk write and the buddy
  // donation read it.
  shadow_.clear();
  shadow_.reserve(1 + 3 * ns_ +
                  3 * static_cast<std::size_t>(k + 1) * st_.histories.size());
  shadow_.push_back(static_cast<double>(k + 1));
  for (const std::vector<double>* v : {&st_.u, &st_.u_prev, &st_.dku_prev}) {
    shadow_.insert(shadow_.end(), v->begin(), v->end());
  }
  for (const History* hist : st_.histories) {
    for (const auto& s : *hist) {
      shadow_.insert(shadow_.end(), s.begin(), s.end());
    }
  }
  std::string ckpt_err;
  bool saved = false;
  // Transient disk pressure often clears within milliseconds; retry the
  // write twice with a short backoff before declaring it failed.
  for (int a = 0; a < 3 && !saved; ++a) {
    if (a > 0) {
      obs::counter_add("checkpoint/write_retries", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << (a - 1)));
    }
    saved =
        util::save_snapshot_rotating(path_, shadow_, kGenerations, &ckpt_err);
  }
  if (saved) {
    obs::counter_add("ckpt/writes", 1);
    // State and histories; the step header is not counted.
    obs::counter_add("ckpt/bytes_written",
                     static_cast<std::int64_t>(8 * (shadow_.size() - 1)));
  } else {
    // Persistent disk pressure (ENOSPC, permissions) is survivable: the
    // rotation left the previous generation intact as the restore target,
    // so count it, say so, and keep solving.
    obs::counter_add("checkpoint/write_failures", 1);
    std::fprintf(stderr,
                 "[quake::par] rank %d: checkpoint write at step %d failed "
                 "(%s); continuing on previous snapshot\n",
                 rank_.id(), k + 1, ckpt_err.c_str());
  }
  // ---- survivor state donation: every rank streams this cut to its buddy
  // (r+1)%R and holds its predecessor's in thread-local memory. Sends are
  // mailbox posts, so the ring-shift exchange cannot deadlock; both
  // barriers bracketing this block guarantee the capture either completes
  // on every rank or on none ----
  if (p_.donate) {
    rank_.send(buddy_, kDonationTag, shadow_);
    // Asynchronous absorb: the closing barrier below proves pred's send
    // already landed in this rank's mailbox, so the post-barrier drain is
    // non-blocking and the measured wait is ~0. (Absorbing may also have
    // happened opportunistically in the drain's idle passes.)
    rank_.barrier();
    util::StopWatch w;
    w.start();
    absorb();
    w.stop();
    obs::scope_record("recover/donate/wait", w.total_seconds());
  } else {
    rank_.barrier();
  }
  // Message-log ring reset point: everything before this cut can be
  // restored by donation or disk, so only steps >= k+1 ever need
  // replaying. (The ring capacity already enforces the bound; no explicit
  // trim is needed for correctness.)
}

void Recovery::report_log() const {
  if (p_.log_cap <= 0) return;
  // Compressed vs raw footprint of the tier-1 message-log rings: stored =
  // delta-encoded bytes actually held, raw = what the same span would cost
  // uncompressed. The ratio is the compression the doubled ring capacity
  // is funded by.
  std::size_t stored = 0, raw = 0;
  for (const auto& ring : msg_log_) {
    stored += ring.stored_bytes();
    raw += ring.raw_bytes();
  }
  obs::gauge_set("par/log_bytes", static_cast<double>(stored));
  obs::gauge_set("par/log_raw_bytes", static_cast<double>(raw));
}

void Recovery::remove_cuts(const Policy& policy, int n_ranks) {
  for (int rr = 0; rr < n_ranks; ++rr) {
    const std::string path = ckpt_path(policy.dir, rr);
    for (int gen = 0; gen <= kGenerations; ++gen) {
      std::remove(util::snapshot_generation_path(path, gen).c_str());
    }
    std::remove((path + ".tmp").c_str());
  }
}

}  // namespace quake::par
