// E-AB1: model-variant and relay-discipline ablations.
//
// Part 1 — which analytical model tracks the simulator, and where: sweep
// load fractions of the refined knee and tabulate paper vs refined vs sim
// (plus relative errors).
//
// Part 2 — relay discipline: store-and-forward vs cut-through simulation
// at the same operating points (the cut-through worm holds both ECN1
// funnels and the ICN2 path simultaneously; store-and-forward decouples
// them at the cost of three full drains).
//
// Not an INI: loads are fractions of a run-time knee; INI loads are absolute.
//
// Flags: --org=a|b, --measured=N, --m-flits, --flit-bytes.
#include <cmath>
#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const auto options = mcs::bench::options_from_args(args);
  const auto config = args.get("org", "a") == "b"
                          ? mcs::topo::SystemConfig::table1_org_b()
                          : mcs::topo::SystemConfig::table1_org_a();
  mcs::model::NetworkParams params;
  params.message_flits = static_cast<int>(args.get_int("m-flits", 32));
  params.flit_bytes = args.get_double("flit-bytes", 256);

  const mcs::model::PaperModel paper(config, params);
  const mcs::model::RefinedModel refined(config, params);
  const double knee = mcs::model::find_saturation(refined).lambda_sat;
  const mcs::topo::MultiClusterTopology topology(config);

  std::printf("=== Ablation 1: model variants vs simulation (org %s, M=%d, "
              "L_m=%.0f) ===\n",
              args.get("org", "a").c_str(), params.message_flits,
              params.flit_bytes);
  std::printf("refined-model knee lambda* = %.3e\n\n", knee);

  mcs::util::TextTable t1({"load (x knee)", "lambda", "paper", "refined",
                           "sim", "paper err %", "refined err %"});
  for (const double frac : {0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double lambda = frac * knee;
    const auto pp = paper.predict(lambda);
    const auto rp = refined.predict(lambda);

    std::string sim_cell = "-", perr = "-", rerr = "-";
    if (options.run_sim) {
      mcs::sim::SimConfig cfg;
      cfg.seed = options.seed;
      cfg.warmup_messages = options.warmup;
      cfg.measured_messages = options.measured;
      mcs::sim::Simulator sim(topology, params, lambda, cfg);
      const auto sr = sim.run();
      if (sr.saturated) {
        sim_cell = "saturated";
      } else {
        sim_cell = mcs::util::TextTable::num(sr.latency.mean, 2);
        perr = mcs::util::TextTable::num(
            100.0 * (pp.mean_latency - sr.latency.mean) / sr.latency.mean,
            1);
        rerr = mcs::util::TextTable::num(
            100.0 * (rp.mean_latency - sr.latency.mean) / sr.latency.mean,
            1);
      }
    }
    auto cell = [](const mcs::model::LatencyPrediction& p) {
      return p.stable ? mcs::util::TextTable::num(p.mean_latency, 2)
                      : std::string("saturated");
    };
    t1.add_row({mcs::util::TextTable::num(frac, 2),
                mcs::util::TextTable::sci(lambda, 2), cell(pp), cell(rp),
                sim_cell, perr, rerr});
  }
  t1.print();

  if (options.run_sim) {
    std::printf("\n=== Ablation 2: relay discipline (simulation) ===\n");
    mcs::util::TextTable t2({"load (x knee)", "store-and-forward",
                             "cut-through", "winner"});
    for (const double frac : {0.1, 0.4, 0.7, 1.0, 1.15}) {
      const double lambda = frac * knee;
      auto run_mode = [&](mcs::sim::RelayMode mode) {
        mcs::sim::SimConfig cfg;
        cfg.seed = options.seed;
        cfg.warmup_messages = options.warmup;
        cfg.measured_messages = options.measured;
        cfg.relay_mode = mode;
        mcs::sim::Simulator sim(topology, params, lambda, cfg);
        return sim.run();
      };
      const auto sf = run_mode(mcs::sim::RelayMode::kStoreForward);
      const auto ct = run_mode(mcs::sim::RelayMode::kCutThrough);
      auto cell = [](const mcs::sim::SimResult& r) {
        return r.saturated ? std::string("saturated")
                           : mcs::util::TextTable::num(r.latency.mean, 2);
      };
      const char* winner = "-";
      if (!sf.saturated && !ct.saturated)
        winner = sf.latency.mean < ct.latency.mean ? "store-and-forward"
                                                   : "cut-through";
      else if (!sf.saturated)
        winner = "store-and-forward";
      else if (!ct.saturated)
        winner = "cut-through";
      t2.add_row({mcs::util::TextTable::num(frac, 2), cell(sf), cell(ct),
                  winner});
    }
    t2.print();
    std::printf(
        "\nReading: cut-through wins at very low load (one pipeline drain\n"
        "instead of three) but collapses earlier: the merged worm holds\n"
        "both concentrator funnels and the ICN2 path at once.\n");
  }
  return 0;
}
