// Declarative experiment scenarios: a ScenarioSpec names a cartesian grid
// of operating points — system organizations x network parameters x
// traffic patterns x relay/flow-control modes x offered loads x
// replications — that the SweepRunner expands into independent tasks.
//
// Specs are loaded from a simple INI dialect (checked-in examples live
// under scenarios/):
//
//   # fig3_m32: one panel of the paper's Fig. 3
//   [sweep]
//   name          = fig3_m32
//   seed          = 20060814
//   replications  = 1
//   warmup        = 3000
//   measured      = 30000
//   message_flits = 32
//   flit_bytes    = 256, 512
//   load_grid     = 0.5e-4 : 10     # {s/4, s/2, s, 2s, ..., 10s}
//   models        = paper, refined
//   sim           = true
//   relay         = store_forward
//
//   [system org_a]
//   preset = table1_org_a
//
//   [pattern uniform]                # optional; default is uniform
//   kind = uniform
//
// `[system <id>]` sections accept either `preset = table1_org_a |
// table1_org_b`, `preset = homogeneous` with `m/height/clusters`, or an
// explicit `m` + `heights = n1, n2, ...` list; any form may add an ICN2
// topology override `icn2 = fat_tree | torus | mesh | dragonfly | random`
// with its parameters (`icn2_switches`, `icn2_rows`/`icn2_cols`,
// `icn2_wrap`, `icn2_degree`, `icn2_seed`). `[pattern <id>]` sections
// accept `kind = uniform | hotspot | local_favor | cluster_permutation`
// plus the kind's parameters (`hotspot_fraction`, `hotspot_node`,
// `local_fraction`, `cluster_shift`). One duplicate rule holds: a key
// appears at most once per section, except `loads`/`load_grid`, whose
// lines accumulate grid points; `[sweep]`, `[search]` and `[observe]`
// appear at most once per file and `[icn2_params]` once per system.
// The parser (scenario.cpp) is one table per section, one of section
// headers and one per word vocabulary; an unknown key, section or word
// fails with its closest matches from the same table.
//
// Knee-relative loads: `knee_loads = 0.2, 0.5, 0.9` replaces
// `loads`/`load_grid` (mixing them is an error) with fractions (> 0) of a
// reference knee. For each (message_flits, flit_bytes) point the
// reference knee is the smallest refined-model knee over the scenario's
// systems, under uniform traffic and wormhole flow control
// (model::find_saturation with default arguments). Every system,
// pattern, relay and flow row of that point shares it, so organizations
// are compared at identical absolute loads. SweepRunner resolves it once;
// rows, digests, caches and journals carry the absolute lambda.
//
// Heterogeneous technology and load (DESIGN.md §10): a `[system]` section
// may be followed by `[cluster.<i>]` sub-sections overriding cluster i's
// channel timing (`alpha_net`, `alpha_sw`, `beta_net`, `flit_bytes`) and
// offered-load multiplier (`load_scale`), and by one `[icn2_params]`
// sub-section giving the global network its own timing (same keys minus
// `load_scale`). Sub-sections bind to the most recent `[system]`; unset
// fields inherit the shared [sweep] parameters, and an empty sub-section
// is rejected (it would be a silent no-op):
//
//   [system mixed]
//   preset = homogeneous
//   m = 4
//   height = 2
//   clusters = 4
//   [cluster.0]                      # a 2x-fast cluster...
//   beta_net = 0.001
//   [cluster.3]                      # ...carrying 2.5x the load
//   load_scale = 2.5
//   [icn2_params]                    # long-haul backbone
//   alpha_net = 0.04
//   beta_net = 0.001
//
// Adaptive experiments (DESIGN.md §11): a `[search]` block tunes the
// simulation-side saturation search (`find_saturation = true` in [sweep],
// or mcs_sweep --find-saturation, turns it on; the block alone only
// configures). Keys: `rel_precision`, `r_min`, `r_max` (the sequential
// replication rule per probe), `warmup = off | mser5`
// (initial-transient deletion of the probe runs), `rel_tol` (bracket
// width) and `blowup` (latency-blowup saturation predicate):
//
//   [search]
//   rel_precision = 0.15
//   r_min         = 2
//   r_max         = 6
//   warmup        = mser5
//
// Observability (DESIGN.md §12): a `[observe]` block tunes the flight
// recorder — probe cadence/buffering and trace sampling. Like [search],
// the block only configures; probes and traces are actually emitted when
// mcs_sweep's --probe-out / --trace-out flags (or SweepRunOptions) turn
// collection on. Keys: `probe_interval` (virtual time; 0 = auto),
// `probe_max_samples`, `trace_sample` (trace every K-th message) and
// `trace_max_events`. Attribution (DESIGN.md §13) is mcs_sweep --explain
// alone:
//
//   [observe]
//   probe_interval    = 0.5
//   probe_max_samples = 2048
//   trace_sample      = 8
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/saturation_search.hpp"
#include "model/params.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "topology/multi_cluster.hpp"

namespace mcs::exp {

struct SystemEntry {
  std::string id;  ///< section name; labels rows in the result table
  topo::SystemConfig config;
};

struct PatternEntry {
  std::string id;
  sim::TrafficPattern pattern;
};

struct ScenarioSpec {
  std::string name = "sweep";

  // --- grid dimensions ---------------------------------------------------
  std::vector<SystemEntry> systems;
  std::vector<int> message_flits = {32};
  std::vector<double> flit_bytes = {256};
  std::vector<PatternEntry> patterns;  ///< empty -> single uniform pattern
  std::vector<sim::RelayMode> relay_modes = {sim::RelayMode::kStoreForward};
  std::vector<sim::FlowControl> flow_controls = {sim::FlowControl::kWormhole};
  /// Offered traffic lambda_g per node, or with knee_relative_loads
  /// fractions of the reference knee (the `knee_loads` key).
  std::vector<double> loads;
  bool knee_relative_loads = false;

  // --- per-task simulation setup -----------------------------------------
  std::uint64_t seed = 20060814;
  int replications = 1;
  std::int64_t warmup = 3'000;
  std::int64_t measured = 30'000;

  // --- what to evaluate --------------------------------------------------
  bool run_sim = true;
  bool run_paper_model = true;
  bool run_refined_model = true;
  /// Also bisect each (system, params, pattern) group for its saturation
  /// knee (model-side; uses the refined model when enabled, else paper).
  bool find_knee = false;
  /// Also bisect each (system, params, pattern, relay, flow) group for
  /// its SIMULATION-side saturation knee (exp::SaturationSearch seeded
  /// from the model knee; `search` below tunes it). Implies find_knee so
  /// the sim/model ratio column has its denominator.
  bool find_sim_saturation = false;

  /// The `[search]` block: adaptive-control knobs of the simulation-side
  /// saturation search, stored as the search's own config so scenario
  /// defaults can never drift from SaturationSearchConfig's.
  SaturationSearchConfig search;
  /// Initial-transient deletion mode of the search's probe runs. MSER-5
  /// by default: probes near the knee are exactly where transient bias
  /// is worst.
  sim::WarmupDeletion search_warmup = sim::WarmupDeletion::kMser5;

  /// The `[observe]` block: flight-recorder knobs, stored as the obs
  /// layer's own configs so scenario defaults can never drift from
  /// theirs. Configuration only — SweepRunOptions (driven by mcs_sweep's
  /// --probe-out / --trace-out) decides whether anything is collected.
  obs::ProbeConfig probe;
  obs::TraceConfig trace;

  /// Channel timing defaults shared by every grid point; message_flits and
  /// flit_bytes above override the corresponding fields per point.
  model::NetworkParams base_params;

  /// Throws mcs::ConfigError on an empty or inconsistent grid (no systems,
  /// no loads, non-positive replications/phases, invalid system configs or
  /// patterns, nothing to evaluate).
  void validate() const;

  /// Number of grid rows = |systems| x |flits| x |bytes| x |patterns| x
  /// |relays| x |flow_controls| x |loads|.
  [[nodiscard]] std::int64_t grid_size() const;
};

/// The canonical scenario word of a relay mode or flow control, as tables,
/// CSV and JSON print it (read from the parser's word tables).
[[nodiscard]] const char* to_string(sim::RelayMode mode);
[[nodiscard]] const char* to_string(sim::FlowControl flow);

/// Parse the INI dialect described above. `source` names the input in
/// error messages. Throws mcs::ConfigError on malformed input (unknown
/// section/key/value, duplicate ids, syntax errors); the returned spec has
/// been validate()d.
[[nodiscard]] ScenarioSpec parse_scenario(std::istream& in,
                                          const std::string& source);

/// parse_scenario over a string buffer (tests, inline specs).
[[nodiscard]] ScenarioSpec parse_scenario_string(const std::string& text);

/// parse_scenario over a file. Throws mcs::ConfigError when unreadable.
[[nodiscard]] ScenarioSpec load_scenario(const std::string& path);

/// Directory of the checked-in scenario specs: the build-time
/// MCS_SCENARIO_DIR (absolute source path) when defined, else the
/// relative "scenarios".
[[nodiscard]] std::string default_scenario_dir();

}  // namespace mcs::exp
