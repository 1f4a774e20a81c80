#pragma once

// Checkpointed adjoint gradient (§3.1's "optional use of algorithmic
// checkpointing", Griewank): instead of storing the full forward history
// (O(nt) states), store O(nt / stride) checkpoints and recompute each
// segment of forward states while the adjoint marches backward. Memory
// drops to O(stride + nt/stride) states — minimized at stride ~ sqrt(nt) —
// at the cost of one extra forward sweep. The result is bit-identical to
// the stored-history gradient (the tests assert this).

#include <span>

#include "quake/inverse/problem.hpp"

namespace quake::inverse {

// Per-step gradient kernel shared by the stored and checkpointed paths:
// ge += the step-k terms of dL/dmu (accumulate_kc_step's stiffness and
// dashpot terms, then the source's).
void accumulate_material_step(const wave2d::ShModel& model,
                              const wave2d::FaultSource2d& src,
                              const wave2d::SourceParams2d& p, int k, double dt,
                              std::span<const double> lambda,
                              const std::vector<double>* u_k,
                              const std::vector<double>* u_kp1,
                              const std::vector<double>* u_km1,
                              std::span<double> ge);

struct CheckpointStats {
  int checkpoints_stored = 0;
  int states_recomputed = 0;
  std::size_t peak_states_held = 0;
};

// Computes the material gradient (data term) without storing the forward
// history: `residuals` drive the adjoint exactly as in
// InversionProblem::adjoint. `stride` is the checkpoint spacing; pass 0 for
// the ~sqrt(nt) default.
CheckpointStats checkpointed_material_gradient(
    const InversionProblem& prob, const wave2d::ShModel& model,
    const wave2d::SourceParams2d& p, const Records& residuals, int stride,
    std::span<double> ge);

}  // namespace quake::inverse
