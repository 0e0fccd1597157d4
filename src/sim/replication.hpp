// Independent replications: run the same operating point under K
// different seeds and derive confidence intervals across the replication
// means. Stronger methodology than the single-run batch-means CI the
// paper's 100k-message experiments imply (replications are genuinely
// independent; batches are only approximately so).
#pragma once

#include <limits>
#include <string>
#include <vector>

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

  /// Replications actually spent (== runs.size()): the sequential
  /// stopping point.
  int replications = 0;
  /// Precision achieved: latency CI half-width / |mean| over the
  /// completed runs (+infinity with fewer than two completed).
  double rel_half_width = std::numeric_limits<double>::infinity();
  /// The rel_precision target was reached at or before r_max (always
  /// false from aggregate_replications alone).
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

/// Fold `runs` (in replication order) into every aggregate above except
/// precision_met: counts, first-occurrence saturation causes, the
/// Student-t intervals over the completed runs' means (NaN when none
/// completed) and rel_half_width. The one aggregation of replication
/// sets: the sequential runner and the sweep's rows both read it.
[[nodiscard]] ReplicationResult aggregate_replications(
    std::vector<SimResult> runs);

/// Sequential (CI-driven) replication mode: run spec.r_min replications,
/// then keep adding replications one at a time until the 95% CI relative
/// half-width of the mean latency drops to spec.rel_precision, or
/// spec.r_max is hit.
///
/// Replication r's seed is derived from base.seed through a splitmix64
/// stream (util::derive_seed), so replication sets launched from nearby
/// base seeds share no runs, and the first R runs of any call are the
/// same R simulations. The stopping point is the SMALLEST prefix length
/// R in [r_min, r_max] whose first R runs satisfy the rule; with
/// r_min = r_max = R and an infinite rel_precision the call runs exactly
/// R replications. Runs are serial: parallelism lives across sweep tasks.
///
/// Saturation: a prefix whose first R >= r_min runs include r_min or more
/// saturated replications stops immediately (the operating point is past
/// the knee; more replications cannot make the CI converge) — this is the
/// probe-termination path exp::SaturationSearch relies on.
[[nodiscard]] ReplicationResult run_replications_sequential(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, const SequentialSpec& spec);

}  // namespace mcs::sim
