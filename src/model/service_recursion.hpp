// The backward channel-service recursion of Sec. 3.1.2 (Eqs. 16-18),
// shared by both model variants.
//
// A journey is a sequence of stages 0..K-1 (channels along the path). The
// mean service time of the stage-k channel is the message transfer time on
// that channel plus the waits to acquire every later channel:
//
//   S_{K-1} = base_{K-1}                                   (Eq. 18)
//   S_k     = base_k + sum_{s=k+1}^{K-1} W_s
//   W_s     = (1/2) * S_s * P_B(s)                         (Eq. 16)
//   P_B(s)  = eta_s * S_s                                  (Eq. 17)
//
// where eta_s is the message rate of the stage-s channel (a birth-death /
// Markov-chain steady-state result in the paper) and base_k is M*t_cs for
// switch channels and M*t_cn for node channels. The network latency of the
// journey is S_0.
//
// P_B is a probability; if eta_s * S_s exceeds 1 the independence
// assumptions have collapsed (the channel is past saturation). We clamp
// P_B at 1 and report the journey as unstable so callers can flag the
// operating point.
//
// The refined model strengthens the wait term to the M/D/1-style residual
//   W_s = (1/2) * eta_s * S_s^2 / (1 - eta_s * S_s)
// which restores the 1/(1-rho) queueing amplification the paper's linear
// form lacks (its absence is the paper's own explanation for the model
// diverging from simulation under heavy load).
#pragma once

#include <span>

#include "util/contracts.hpp"

namespace mcs::model {

/// One stage of a journey: contention-free message transfer time and the
/// Poisson message rate on the channel.
struct Stage {
  double base;  ///< M * t_cn or M * t_cs
  double rate;  ///< eta: messages per time unit arriving at this channel
};

struct RecursionResult {
  double s0 = 0.0;     ///< mean service time at stage 0 (network latency)
  bool stable = true;  ///< false when any clamped P_B hit 1
};

enum class WaitModel {
  kPaper,     ///< W = (1/2) * eta * S^2 (Eqs. 16-17, literal)
  kResidual,  ///< W = (1/2) * eta * S^2 / (1 - eta*S) (M/D/1-style)
};

/// The recursion's running state behind a stage k: the waits
/// sum_{s>k} W_s to acquire every later channel, and whether any clamp
/// fired there. It depends only on the journey's suffix k+1..K-1.
struct SuffixState {
  double waits = 0.0;
  bool stable = true;
};

/// One backward step of Eqs. (16)-(18) at stage k: returns
/// S_k = base_k + the suffix's waits and adds W_k into `state`, clamping
/// P_B (and, under kResidual, rho) as described above. stage_recursion
/// folds it over one journey; journeys that share a suffix can step it
/// once and branch from the shared state (RefinedModel's graph ICN2 leg).
inline double recursion_step(const Stage& stage, WaitModel wait_model,
                             SuffixState& state) {
  MCS_EXPECTS(stage.base > 0.0 && stage.rate >= 0.0);
  // Cap on the per-stage utilization used inside the residual divisor;
  // beyond it the journey is flagged unstable.
  constexpr double kMaxRho = 0.999;
  const double s = stage.base + state.waits;
  double blocked = stage.rate * s;  // Eq. (17)
  if (blocked > 1.0) {
    blocked = 1.0;
    state.stable = false;
  }
  if (wait_model == WaitModel::kPaper) {
    state.waits += 0.5 * s * blocked;  // Eq. (16)
  } else {
    double rho = stage.rate * s;
    if (rho > kMaxRho) {
      rho = kMaxRho;
      state.stable = false;
    }
    state.waits += 0.5 * s * blocked / (1.0 - rho);
  }
  return s;
}

/// Evaluate Eqs. (16)-(18) over the given stages (ordered source to
/// destination). O(K).
[[nodiscard]] RecursionResult stage_recursion(std::span<const Stage> stages,
                                              WaitModel wait_model =
                                                  WaitModel::kPaper);

}  // namespace mcs::model
