// E-X3: flow-control ablation — wormhole vs store-and-forward switching
// (the two mechanisms Sec. 2 of the paper names). Classic expectation:
// wormhole wins at low load (latency ~ path + M instead of path * M);
// store-and-forward decouples channel holds, so it degrades more
// gracefully toward saturation.
//
// Not an INI: loads are fractions of a run-time knee; INI loads are absolute.
//
// Flags: --org=a|b, --measured=N, --m-flits=..., --no-sim.
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

  const mcs::model::RefinedModel refined(config, params);
  const double knee = mcs::model::find_saturation(refined).lambda_sat;
  const mcs::topo::MultiClusterTopology topology(config);

  std::printf("=== Flow control: wormhole vs store-and-forward (org %s, "
              "M=%d) ===\n",
              args.get("org", "a").c_str(), params.message_flits);
  std::printf("(loads are fractions of the wormhole refined-model knee "
              "%.3e)\n\n", knee);

  mcs::util::TextTable table({"load (x knee)", "wormhole", "wormhole int",
                              "store-and-forward", "SAF int", "SAF/WH"});
  for (const double frac : {0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
    const double lambda = frac * knee;
    auto run_mode = [&](mcs::sim::FlowControl fc) {
      mcs::sim::SimConfig cfg;
      cfg.seed = options.seed;
      cfg.warmup_messages = options.warmup;
      cfg.measured_messages = options.measured;
      cfg.flow_control = fc;
      mcs::sim::Simulator sim(topology, params, lambda, cfg);
      return sim.run();
    };
    if (!options.run_sim) break;
    const auto wh = run_mode(mcs::sim::FlowControl::kWormhole);
    const auto saf = run_mode(mcs::sim::FlowControl::kStoreAndForward);
    auto cell = [](const mcs::sim::SimResult& r) {
      return r.saturated ? std::string("saturated")
                         : mcs::util::TextTable::num(r.latency.mean, 2);
    };
    auto int_cell = [](const mcs::sim::SimResult& r) {
      return r.saturated ? std::string("-")
                         : mcs::util::TextTable::num(
                               r.internal_latency.mean, 2);
    };
    std::string ratio = "-";
    if (!wh.saturated && !saf.saturated)
      ratio = mcs::util::TextTable::num(
          saf.latency.mean / wh.latency.mean, 2);
    table.add_row({mcs::util::TextTable::num(frac, 2), cell(wh),
                   int_cell(wh), cell(saf), int_cell(saf), ratio});
  }
  table.print();
  std::printf(
      "\nReading: at low load store-and-forward pays ~d/2 extra message\n"
      "transmissions per journey (latency ratio well above 1); near the\n"
      "knee the two converge — the binding constraint (occupancy of the\n"
      "hottest funnel channel, M*t_cs per message) is the same for both.\n");
  return 0;
}
