// E-X2: non-uniform traffic — the paper's future-work extension. The
// pattern catalog lives in scenarios/traffic_patterns.ini (shared with
// `mcs_sweep traffic_patterns`):
//   * uniform (the paper's assumption 2),
//   * locality-biased (P(internal) fixed via kLocalFavor; the analytical
//     models follow through the P_o override),
//   * hotspot (a fraction of all traffic targets one node; simulation
//     only — the model's symmetry assumptions do not cover it),
//   * tornado-style cluster permutation (kClusterPermutation: every
//     cluster targets its shifted neighbor; the model consumes its
//     all-external P_o).
//
// Not an INI: loads are fractions of a run-time knee; INI loads are absolute.
//
// Flags: --measured=N, --lambda=..., --no-sim, --threads=N,
// --scenario=PATH.
#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const auto options = mcs::bench::options_from_args(args);

  const std::string path =
      args.get("scenario", mcs::bench::scenario_path("traffic_patterns"));
  mcs::exp::ScenarioSpec spec = mcs::exp::load_scenario(path);
  spec.seed = options.seed;
  spec.warmup = options.warmup;
  spec.measured = options.measured;
  spec.run_sim = options.run_sim;

  // Operating point: half the uniform saturation knee, as in the seed
  // bench, unless --lambda overrides it. The knee is computed for the
  // scenario's first grid point (message/flit sizes are grid dimensions,
  // not base_params).
  mcs::model::NetworkParams knee_params = spec.base_params;
  knee_params.message_flits = spec.message_flits.front();
  knee_params.flit_bytes = spec.flit_bytes.front();
  const mcs::model::RefinedModel uniform_model(spec.systems.front().config,
                                               knee_params);
  const double knee = mcs::model::find_saturation(uniform_model).lambda_sat;
  spec.loads = {args.get_double("lambda", 0.5 * knee)};

  const mcs::topo::MultiClusterTopology topology(spec.systems.front().config);
  std::printf("=== Traffic patterns (N=%lld, lambda=%.3e) ===\n",
              static_cast<long long>(topology.total_nodes()),
              spec.loads.front());

  const mcs::exp::SweepRunner runner(std::move(spec));
  mcs::exp::SweepRunOptions run_options;
  run_options.threads = options.threads;
  const mcs::exp::SweepResult result = runner.run(run_options);

  mcs::util::TextTable table({"pattern", "model (refined)", "sim latency",
                              "sim internal", "sim external",
                              "external share"});
  for (const mcs::exp::SweepRow& row : result.rows) {
    std::string model_cell = "n/a (asymmetric)";
    if (row.refined_run)
      model_cell = row.refined_stable
                       ? mcs::util::TextTable::num(row.refined_latency, 2)
                       : "saturated";
    std::string sim_cell = "-", int_cell = "-", ext_cell = "-",
                share_cell = "-";
    if (row.sim_run) {
      if (row.completed == 0) {
        sim_cell = "saturated";
      } else {
        sim_cell = mcs::util::TextTable::num(row.sim_latency, 2);
        int_cell = mcs::util::TextTable::num(row.sim_internal, 2);
        ext_cell = mcs::util::TextTable::num(row.sim_external, 2);
        share_cell = mcs::util::TextTable::num(row.external_share, 3);
      }
    }
    table.add_row({row.pattern_id, model_cell, sim_cell, int_cell, ext_cell,
                   share_cell});
  }
  table.print();
  std::printf(
      "\nReading: locality relieves the concentrator funnel (latency drops\n"
      "sharply with phi) and the P_o-override model follows the trend;\n"
      "hotspots congest the victim's ejection channel, which no\n"
      "cluster-symmetric model can express. The cluster permutation sends\n"
      "every message across the ICN2, the worst case for the funnel.\n");
  return 0;
}
