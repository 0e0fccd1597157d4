// Quickstart: predict and measure the mean message latency of the paper's
// Org A system (N=1120, C=32, m=8) at one offered load.
//
//   ./quickstart [--lambda=1e-4] [--measured=20000] [--seed=1]
#include <cstdio>

#include <mcs/mcs.hpp>

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const double lambda = args.get_double("lambda", 1e-4);

  // 1. Describe the system: Table 1's Org A, paper-default network
  //    parameters (M=32 flits of 256 bytes, 500 bytes/time-unit links).
  const auto config = mcs::topo::SystemConfig::table1_org_a();
  mcs::model::NetworkParams params;
  std::printf("System: N=%lld nodes, C=%d clusters, m=%d ports\n",
              static_cast<long long>(config.total_nodes()),
              config.cluster_count(), config.m);
  std::printf("Channel times: t_cn=%.3f t_cs=%.3f (time units)\n\n",
              params.t_cn(), params.t_cs());

  // 2. Analytical prediction (Sec. 3): both model variants.
  const mcs::model::PaperModel paper(config, params);
  const mcs::model::RefinedModel refined(config, params);
  const auto p_pred = paper.predict(lambda);
  const auto r_pred = refined.predict(lambda);
  std::printf("Analysis  @ lambda_g=%.2e:\n", lambda);
  std::printf("  paper-literal model : %8.2f %s\n", p_pred.mean_latency,
              p_pred.stable ? "" : "(saturated)");
  std::printf("  refined model       : %8.2f %s\n", r_pred.mean_latency,
              r_pred.stable ? "" : "(saturated)");

  // 3. Simulation (Sec. 4): same assumptions, discrete-event, wormhole.
  mcs::sim::SimConfig sim_cfg;
  sim_cfg.seed =
      static_cast<std::uint64_t>(args.get_int<std::int64_t>("seed", 1));
  sim_cfg.warmup_messages = 2'000;
  sim_cfg.measured_messages = args.get_int<std::int64_t>("measured", 20'000);
  const mcs::topo::MultiClusterTopology topology(config);
  mcs::sim::Simulator sim(topology, params, lambda, sim_cfg);
  const auto measured = sim.run();
  if (measured.saturated) {
    std::printf("Simulation: saturated (%s)\n",
                measured.saturation_reason.c_str());
    return 0;
  }
  std::printf("Simulation: %8.2f +/- %.2f (95%% CI, %lld messages)\n",
              measured.latency.mean, measured.latency.half_width,
              static_cast<long long>(measured.delivered_measured));
  std::printf("  internal %.2f | external %.2f | source wait %.2f | "
              "conc wait %.2f\n",
              measured.internal_latency.mean, measured.external_latency.mean,
              measured.mean_source_wait, measured.mean_conc_wait);
  return 0;
}
