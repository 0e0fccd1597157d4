// SweepRunner: expands a ScenarioSpec into independent tasks — analytical
// model groups and per-replication simulator runs — executes them on a
// ThreadPool and aggregates a deterministic result table.
//
// Determinism contract: each simulation task's seed is derived from the
// scenario seed and the task's grid coordinates alone (splitmix64 chain),
// and each row folds its replications in fixed order, so the SweepResult
// is bit-identical for any thread count, including 1.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/thread_pool.hpp"
#include "model/breakdown.hpp"
#include "obs/anatomy.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mcs::exp {

/// Chain `coords` through splitmix64 starting from `base`: every
/// coordinate permutes the state, so tasks that differ in any single
/// coordinate (replication, load index, ...) get decorrelated seeds.
/// (Defined in util/rng.hpp; run_replications_sequential shares it.)
using util::derive_seed;

/// One grid point of the sweep, with every evaluated output attached.
/// Latency fields are negative when the corresponding evaluator did not
/// run (or no replication completed).
struct SweepRow {
  // Grid coordinates (indices into the ScenarioSpec lists) and their
  // resolved values.
  /// Flat index in grid nesting order (system, flits, bytes, pattern,
  /// relay, flow, load); checkpoint journals key their rows by it.
  std::int64_t grid_index = 0;
  int system_idx = 0;
  int flits_idx = 0;
  int bytes_idx = 0;
  int pattern_idx = 0;
  int relay_idx = 0;
  int flow_idx = 0;
  int load_idx = 0;

  std::string system_id;
  std::string pattern_id;
  std::string icn2_kind;  ///< the system's ICN2 topology (to_string form)
  /// The system's heterogeneity axes: "uniform", "net" (per-cluster/ICN2
  /// technology overrides), "load" (per-cluster load multipliers), or
  /// "net+load".
  std::string hetero = "uniform";
  int message_flits = 32;
  double flit_bytes = 256;
  sim::RelayMode relay = sim::RelayMode::kStoreForward;
  sim::FlowControl flow = sim::FlowControl::kWormhole;
  double lambda = 0.0;

  // Analytical model outputs.
  bool paper_run = false;
  double paper_latency = -1.0;
  bool paper_stable = false;
  bool refined_run = false;
  double refined_latency = -1.0;
  bool refined_stable = false;
  /// Saturation knee of this row's (system, params, pattern) group;
  /// negative unless ScenarioSpec::find_knee was set.
  double knee_lambda = -1.0;
  /// SIMULATION-side saturation knee of this row's (system, params,
  /// pattern, relay, flow) group (exp::SaturationSearch); negative unless
  /// ScenarioSpec::find_sim_saturation was set and the search found a
  /// stable load at all.
  double sim_lambda_sat = -1.0;
  /// sim_lambda_sat / the analytical seed knee — the sim/model agreement
  /// ratio; negative when either side is missing.
  double sat_ratio = -1.0;

  // Simulation outputs, aggregated across replications.
  bool sim_run = false;
  int replications = 0;
  int completed = 0;  ///< replications that reached steady completion
  int saturated = 0;  ///< replications that hit a cap or drifted
  /// Distinct saturation-cause tokens ("events"/"time"/"worms"/
  /// "generated"/"drift") over the saturated replications, joined with
  /// '+' in first-occurrence replication order; empty when none
  /// saturated.
  std::string saturation_causes;
  double sim_latency = -1.0;
  double sim_ci = 0.0;  ///< 95% half-width (across reps, or batch means)
  double sim_internal = -1.0;
  double sim_external = -1.0;
  double external_share = -1.0;
  /// Latency percentiles, averaged across completed replications
  /// (negative when no replication completed).
  double sim_p50 = -1.0;
  double sim_p95 = -1.0;
  double sim_p99 = -1.0;
  /// 0 steady, 1 saturated (no replication completed), 2 mixed: some
  /// replications ended on a saturation verdict (a cap or drift) while
  /// the others completed; the latency columns cover the completed ones.
  int sim_state = 0;
};

/// Execution telemetry of one pool task, written by the task itself into
/// a preallocated slot (no synchronization). Kind: 'm' model group,
/// 's' simulation replication, 'k' saturation search.
struct TaskStat {
  char kind = '?';
  double queue_wait = 0.0;  ///< submit -> first scheduled, wall seconds
  double exec = 0.0;        ///< scheduled -> finished, wall seconds
  int thread = -1;          ///< pool worker that ran the task
};

struct SweepResult {
  std::string name;
  std::vector<SweepRow> rows;  ///< grid order (the spec's nesting order)
  int threads = 0;
  /// Simulator runs executed: grid-row replications plus the replications
  /// of every saturation-search probe. Restored rows add none.
  std::int64_t sim_tasks = 0;
  double wall_seconds = 0.0;
  /// Simulated rows whose sim_state != 0.
  int saturated_points = 0;
  /// Rows restored from the result cache or the resume journal instead of
  /// being computed (their tasks never ran).
  int cached_rows = 0;

  /// Build/host/resource provenance of this run (attached to the JSON
  /// report so a result file is self-describing).
  obs::RunManifest manifest;
  /// One slot per executed task, in submission order.
  std::vector<TaskStat> task_stats;
  /// Flight-recorder captures of replication 0 of every row, parallel to
  /// `rows`; filled only when SweepRunOptions::collect_probes /
  /// collect_traces were set (configs come from the spec's [observe]
  /// block). Replication 0 only: observation is bit-invisible to results,
  /// so one instrumented replication per row costs nothing but memory.
  std::vector<obs::ProbeSeries> row_probes;
  std::vector<obs::TraceBuffer> row_traces;
  /// Latency anatomies of replication 0 of every simulated row, parallel
  /// to `rows`; filled only with SweepRunOptions::explain (exhaustive
  /// accounting — same bit-identity contract as probes/traces).
  std::vector<obs::LatencyAnatomy> row_anatomy;
  /// Refined-model per-station breakdowns per row, parallel to `rows`;
  /// filled only with SweepRunOptions::explain when the refined model
  /// runs. An entry with empty `clusters` means "not computed" (model
  /// unsupported for the row's pattern, or models disabled).
  std::vector<model::ModelBreakdown> row_breakdown;
};

struct SweepRunOptions {
  /// Worker threads; < 1 selects ThreadPool::default_thread_count().
  /// Ignored when `pool` is given.
  int threads = 0;
  /// Run on an existing pool instead of creating one.
  ThreadPool* pool = nullptr;
  /// Print a progress/ETA heartbeat line on stderr (rate-limited to
  /// roughly one line per 2 s of wall time, always on the final task).
  bool progress = false;
  /// Attach a ProbeSeries (time-series probes) to replication 0 of every
  /// simulated row; the series land in SweepResult::row_probes.
  bool collect_probes = false;
  /// Attach a TraceBuffer (worm-lifecycle spans) to replication 0 of
  /// every simulated row; the buffers land in SweepResult::row_traces.
  bool collect_traces = false;
  /// Attribution mode (mcs_sweep --explain):
  /// attach a LatencyAnatomy to replication 0 of every simulated row AND
  /// compute the refined model's per-station breakdown per row, so the
  /// output can join measured vs predicted stage by stage
  /// (exp/explain.hpp).
  bool explain = false;

  // --- production sweep service (DESIGN.md §14) --------------------------
  // The flight recorder (probes/traces/explain) is incompatible with the
  // service modes below: a restored row has nothing to observe, so run()
  // rejects the combination rather than silently emitting partial
  // captures.
  /// Content-hash result cache directory; empty disables. Rows whose
  /// digest is already stored are restored bit-identically without
  /// running any task; freshly computed rows are stored back.
  std::string cache_dir;
  /// Checkpoint journal path; empty disables. Every completed row is
  /// journaled (one appended line) the moment its last task finishes, so
  /// an interrupted campaign loses at most the rows in flight.
  std::string checkpoint_path;
  /// Preload checkpoint_path (when the file exists) and skip the rows it
  /// records. Requires checkpoint_path; the journal is rewritten with the
  /// preloaded rows plus everything newly completed.
  bool resume = false;
  /// Cache-key binary fingerprint override (tests exercise invalidation
  /// with it); empty selects exp::binary_fingerprint().
  std::string fingerprint;
};

/// Compact row tag labeling probe/trace output:
/// "<system>/<pattern>/<relay>/<flow> f<flits> lambda=<value>".
[[nodiscard]] std::string row_label(const SweepRow& row);

/// The expanded grid without executing anything: rows carry their
/// coordinates/identity fields (outputs empty) and `digests[r]` is
/// rows[r]'s content-hash cache key — exactly the rows and keys run()
/// would compute and look up.
struct SweepPlan {
  std::vector<SweepRow> rows;
  std::vector<std::string> digests;  ///< parallel to rows
};

class SweepRunner {
 public:
  /// Validates the spec (and each pattern against each system topology)
  /// and, for knee-relative loads, resolves the reference knees.
  explicit SweepRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// Expand, execute, aggregate. Safe to call repeatedly; each call
  /// returns an identical result for a given spec.
  [[nodiscard]] SweepResult run(const SweepRunOptions& options = {}) const;

  /// Expand the grid and compute each row's cache digest, without
  /// running any task. An empty `fingerprint` selects
  /// binary_fingerprint().
  [[nodiscard]] SweepPlan plan(const std::string& fingerprint = {}) const;

 private:
  ScenarioSpec spec_;
  /// Reference knee per (flits, bytes) point, flits-major; empty unless
  /// spec_.knee_relative_loads.
  std::vector<double> knees_;
};

}  // namespace mcs::exp
