// Reproducible simulator-throughput harness behind the mcs_perf driver.
//
// Each PerfScenario is a fully pinned simulation (system, flow control,
// relay mode, load, seed, phase lengths): wall-clock time is the ONLY
// nondeterministic output. A measurement runs the scenario `repeats` times
// on fresh Simulator instances and keeps the fastest repeat (minimum is
// the standard noise-robust estimator for a deterministic workload), and
// cross-checks that every repeat delivered the identical event count — a
// throughput number from a diverged simulation is meaningless.
//
// The JSON report (mcs_perf --out) is both the human-facing record and the
// regression baseline: `compare_to_baseline` re-reads a saved report (CI
// uses bench/perf_baseline_ci.json) and flags any scenario whose
// worms/sec dropped by more than the tolerance. Worms/sec is the gated
// unit because a worm is a fixed amount of simulated work; an event is
// not: how many a worm pops depends on contention (DESIGN.md §9.1).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "sim/simulator.hpp"
#include "topology/multi_cluster.hpp"

namespace mcs::bench {

/// One pinned workload. `id` keys the baseline comparison, so renaming a
/// scenario intentionally resets its history.
struct PerfScenario {
  std::string id;
  std::string description;
  topo::SystemConfig system;
  sim::SimConfig sim;
  double lambda = 0.0;
};

/// The bundled scenario matrix: {fat-tree, torus} ICN2 x {wormhole,
/// store-and-forward}, plus the cut-through relay variant — the same axes
/// the golden tests pin — and a heterogeneous-parameters scenario
/// (per-cluster technologies + skewed load, DESIGN.md §10) so the
/// per-net service and per-cluster rate paths are perf-gated too.
/// `smoke` shrinks the phases for CI wall-clock.
[[nodiscard]] std::vector<PerfScenario> perf_scenarios(bool smoke);

struct PerfMeasurement {
  std::string id;
  std::string description;
  int repeats = 0;
  double best_seconds = 0.0;
  std::uint64_t events = 0;       ///< events processed per repeat
  /// `events` split by EventKind: generate, header advance, release, done.
  std::array<std::uint64_t, sim::kEventKinds> events_by_kind{};
  std::uint64_t worms = 0;        ///< worms spawned per repeat
  double events_per_sec = 0.0;
  double worms_per_sec = 0.0;
  double latency_mean = 0.0;      ///< result checksum, not a perf number
  bool saturated = false;
};

/// Run one scenario `repeats` times; aborts (contract) if repeats diverge.
[[nodiscard]] PerfMeasurement measure(const PerfScenario& scenario,
                                      int repeats);

struct PerfReport {
  std::string label;       ///< e.g. "smoke" or "full"
  int threads_available = 0;
  /// Build/host/resource provenance (git describe, compiler, flags,
  /// wall/CPU time, peak RSS): a committed report says what produced it.
  /// Its field names never collide with read_baseline_worms_per_sec's
  /// line greps, so old and new reports stay interchangeable as baselines.
  obs::RunManifest manifest;
  std::vector<PerfMeasurement> measurements;
};

void write_report_json(const PerfReport& report, std::ostream& out);
void write_report_json_file(const PerfReport& report,
                            const std::string& path);

/// Extract {id -> worms_per_sec} from a report previously written by
/// write_report_json. Throws mcs::ConfigError on unreadable/mismatched
/// files (a hand-edited baseline should fail loudly, not parse quietly).
[[nodiscard]] std::vector<std::pair<std::string, double>>
read_baseline_worms_per_sec(const std::string& path);

/// Compare against a committed baseline report. Returns the list of
/// human-readable violations (empty = pass): a scenario regresses when
/// new_worms_per_sec < (1 - tolerance) * baseline_worms_per_sec.
/// Scenarios present on only one side are reported as violations too —
/// silently dropping a workload is how perf gates rot.
[[nodiscard]] std::vector<std::string> compare_to_baseline(
    const PerfReport& report, const std::string& baseline_path,
    double tolerance);

}  // namespace mcs::bench
