// Independent replications: run the same operating point under K
// different seeds and derive confidence intervals across the replication
// means. Stronger methodology than the single-run batch-means CI the
// paper's 100k-message experiments imply (replications are genuinely
// independent; batches are only approximately so).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "exp/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace mcs::sim {

struct ReplicationResult {
  /// 95% CI of the mean latency across replication means (Student-t with
  /// R-1 degrees of freedom). Computed over non-saturated runs only; all
  /// three intervals are NaN when every replication saturated (check
  /// all_saturated before averaging or rendering).
  util::ConfidenceInterval latency;
  util::ConfidenceInterval internal_latency;
  util::ConfidenceInterval external_latency;
  int completed = 0;  ///< replications that reached steady completion
  int saturated = 0;  ///< replications that hit a cap or drifted
  /// Distinct saturation causes over the saturated replications
  /// (SimResult::saturation_cause tokens: "events", "time", "worms",
  /// "generated", "drift"), in first-occurrence replication order. Empty
  /// when no replication saturated. Before this existed, the per-run
  /// reasons were silently dropped by aggregation and a saturated sweep
  /// row could not say *which* cap it hit.
  std::vector<std::string> saturation_causes;
  /// True when no replication completed (completed == 0): the operating
  /// point is past saturation and the intervals above are NaN, never a
  /// confident-looking 0.0.
  bool all_saturated = false;

  /// Replications actually spent (== runs.size()). Equals the request in
  /// fixed mode; in sequential mode, the stopping point.
  int replications = 0;
  /// Precision achieved: latency CI half-width / |mean| over the
  /// completed runs (+infinity with fewer than two completed).
  double rel_half_width = std::numeric_limits<double>::infinity();
  /// Sequential mode only: the rel_precision target was reached at or
  /// before r_max. Always false in fixed mode.
  bool precision_met = false;

  std::vector<SimResult> runs;  ///< per-replication detail
};

/// Control block of the sequential (CI-driven) replication mode.
struct SequentialSpec {
  int r_min = 4;   ///< replications always run before the rule is consulted
  int r_max = 32;  ///< hard cap on replications spent
  /// Stop once the 95% CI relative half-width of the mean latency (across
  /// completed replication means) drops to this value or below.
  double rel_precision = 0.05;

  /// Throws mcs::ConfigError on 1 > r_min, r_min > r_max or a
  /// non-positive rel_precision.
  void validate() const;
};

/// Run `replications` independent simulations; replication r's seed is
/// derived from base.seed through a splitmix64 stream
/// (util::derive_seed), so replication sets launched from nearby base
/// seeds share no runs. When `pool` is given, replications run
/// concurrently on it; the result is bit-identical either way
/// (per-replication seeds and ordered aggregation do not depend on
/// scheduling). Must not be called with a pool from inside one of that
/// pool's own tasks (it waits for the pool to drain — see
/// ThreadPool::parallel_for). Throws mcs::ConfigError for
/// replications < 1.
[[nodiscard]] ReplicationResult run_replications(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, int replications,
    exp::ThreadPool* pool = nullptr);

/// Sequential (CI-driven) replication mode: run spec.r_min replications,
/// then keep adding replications until the 95% CI relative half-width of
/// the mean latency drops to spec.rel_precision, or spec.r_max is hit.
///
/// Determinism contract: replication r's seed depends only on (base.seed,
/// r) — the same splitmix64 stream as the fixed mode — and the stopping
/// point is the SMALLEST prefix length R in [r_min, r_max] whose first R
/// runs satisfy the rule, evaluated in replication order. Execution
/// happens in pool-sized waves, so a wide pool may simulate replications
/// beyond the stopping point; those are discarded before aggregation.
/// The result is therefore bit-identical for any thread count (and to a
/// fixed-mode run of `result.replications` replications).
///
/// Saturation: a prefix whose first R >= r_min runs include r_min or more
/// saturated replications stops immediately (the operating point is past
/// the knee; more replications cannot make the CI converge) — this is the
/// probe-termination path exp::SaturationSearch relies on.
[[nodiscard]] ReplicationResult run_replications_sequential(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, const SequentialSpec& spec,
    exp::ThreadPool* pool = nullptr);

}  // namespace mcs::sim
