#pragma once

// The step loop's recovery protocol (see DESIGN.md "Checkpoint/restart" and
// "Localized recovery"): one rank's checkpoint cuts, its buddy donations,
// its outbound message logs and the tier-1 / tier-2 recovery agreements. It
// sees only the cut — the rank's state vectors and owned receiver histories
// — and the communicator; the step loop calls it to start or recover, to
// log a post, to ask whether it may post to a neighbour or run a collective
// at step k, and to take a cut after step k.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "quake/par/communicator.hpp"
#include "quake/util/delta_codec.hpp"

namespace quake::par {

// One receiver's history: its displacement after each step.
using History = std::vector<std::array<double, 3>>;

class Recovery {
 public:
  // The run's fault-tolerance policy, the same on every rank (derived from
  // FaultToleranceOptions).
  struct Policy {
    std::string dir;        // checkpoint directory; empty = no cuts
    int every = 0;          // steps between cuts (0 = none)
    int keep = 1;           // disk generations kept per rank
    bool in_place = false;  // in-place recovery armed
    bool donate = false;    // buddy-shadow donation
    int log_cap = 0;        // message-log ring capacity in steps (0 = off)
  };
  // What a cut holds: three state vectors of equal length and the rank's
  // owned receiver histories, in its receiver order.
  struct State {
    std::vector<double>& u;
    std::vector<double>& u_prev;
    std::vector<double>& dku_prev;
    std::vector<History*> histories;
  };

  // `neighbors` are the rank's exchange partners (ascending), `log_len`
  // the widest step message to each: the length of its log ring.
  Recovery(Rank& rank, const Policy& policy, State state, int n_steps,
           std::vector<int> neighbors, std::span<const std::size_t> log_len);

  // Fresh start or supervised retry: agree on the newest common cut and
  // restore it. Returns the resume step (0 = from scratch).
  int start();
  // In-place recovery of epoch rank.epoch(): tier 1 or tier 2, throwing
  // UnrecoverableError for tier 3. `k_done` is the last step this rank
  // completed. Returns this rank's resume step.
  int recover(int k_done);
  // After step k: when a cut is due at k + 1, capture, write and donate it.
  void checkpoint(int k);

  // Whether step k's message goes to neighbour `to`: not once `to` has
  // consumed it (a catching-up rank must not pollute an ahead neighbour's
  // FIFO).
  [[nodiscard]] bool may_post(int to, int k) const {
    return k >= start_of_[static_cast<std::size_t>(to)];
  }
  // Whether step k's collectives run: below the replay frontier ranks
  // execute different step ranges and would not meet.
  [[nodiscard]] bool may_collect(int k) const { return k >= frontier_; }
  // Logs step k's message to neighbour nb for a later tier-1 replay.
  void log_post(std::size_t nb, int k, std::span<const double> msg);
  // Non-blocking absorb of any donation parked on the predecessor edge.
  void absorb();
  // The message-log footprint gauges (`par/log_bytes`, `par/log_raw_bytes`).
  void report_log() const;

  // Deletes every rank's cut files of a completed run.
  static void remove_cuts(const Policy& policy, int n_ranks);

 private:
  struct DiskCands;
  [[nodiscard]] DiskCands load_disk_candidates() const;
  [[nodiscard]] std::vector<double> receive_donation(int step);
  void restore_agreed(int step, std::vector<double> cut, bool fallback);
  int agree_restore(bool recovering, std::int64_t donated);
  int agree_recover(int k_done);

  Rank& rank_;
  const Policy p_;
  State st_;
  const std::size_t ns_ = st_.u.size();  // doubles per state vector
  const int n_steps_;
  const std::string path_;  // this rank's snapshot path
  // This rank donates its cut to its buddy (r + 1) % R and holds its
  // predecessor's, (r - 1) % R.
  const int buddy_ = (rank_.id() + 1) % rank_.size();
  const int pred_ = (rank_.id() + rank_.size() - 1) % rank_.size();
  const std::vector<int> nb_rank_;

  // In-memory rollback target: this rank's newest cut, captured at each
  // checkpoint barrier and kept by every restore (empty until then).
  std::vector<double> shadow_;
  // The cut this rank holds for its predecessor, and the absorb buffer.
  std::vector<double> held_, donation_buf_;
  // Per neighbour, the last log_cap posted step messages (none when
  // log_cap is 0).
  std::vector<util::DeltaRing> msg_log_;
  // Resume points of the last agreement (start_of_[s] for rank s) and
  // their maximum.
  std::vector<int> start_of_;
  int frontier_ = 0;
  // True once the state vectors describe a definite step (fresh zeros or a
  // completed restore); a respawned victim has none until recovery.
  bool has_state_ = false;
};

}  // namespace quake::par
