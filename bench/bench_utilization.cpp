// E-AB3: validation of the model's channel-rate derivations against
// measured per-class channel traffic. For each (network, channel kind,
// level boundary) class we compare the simulator's measured aggregate
// message rate with the flow-conservation prediction, and report measured
// utilizations (which expose the d-mod-k concentrator funnel).
//
// Flags: --org=a|b, --lambda=..., --seed=S, --warmup=N, --measured=N.
#include <cstdio>
#include <map>

#include <mcs/mcs.hpp>

namespace {

using mcs::topo::ChannelKind;

/// Analytic total crossing rate (messages/time over ALL channels of the
/// class) from flow conservation under uniform traffic.
std::map<std::tuple<int, int, int>, double> analytic_class_rates(
    const mcs::topo::SystemConfig& cfg, double lambda) {
  std::map<std::tuple<int, int, int>, double> totals;
  auto add = [&](mcs::sim::NetKind net, ChannelKind kind, int level,
                 double rate) {
    totals[{static_cast<int>(net), static_cast<int>(kind), level}] += rate;
  };

  const mcs::topo::TreeShape icn2{cfg.m, cfg.icn2_height()};
  const auto icn2_p = icn2.hop_distribution();
  double total_external = 0.0;

  for (int i = 0; i < cfg.cluster_count(); ++i) {
    const mcs::topo::TreeShape shape{
        cfg.m, cfg.cluster_heights[static_cast<std::size_t>(i)]};
    const auto ni = static_cast<double>(shape.node_count());
    const double po = cfg.p_outgoing(i);
    const double internal = ni * (1.0 - po) * lambda;
    const double external = ni * po * lambda;
    total_external += external;
    const auto p = shape.hop_distribution();

    // ICN1: every internal message injects and ejects once and crosses
    // boundary l (up and down) iff its NCA is above l.
    add(mcs::sim::NetKind::kIcn1, ChannelKind::kInjection, 0, internal);
    add(mcs::sim::NetKind::kIcn1, ChannelKind::kEjection, 0, internal);
    for (int l = 1; l < shape.n; ++l) {
      double tail = 0.0;
      for (int j = l + 1; j <= shape.n; ++j)
        tail += p[static_cast<std::size_t>(j - 1)];
      add(mcs::sim::NetKind::kIcn1, ChannelKind::kUp, l, internal * tail);
      add(mcs::sim::NetKind::kIcn1, ChannelKind::kDown, l, internal * tail);
    }

    // ECN1 carries each external message twice (source and destination
    // leg); both legs inject and eject once per message.
    const auto conc_p = mcs::topo::concentrator_hop_distribution(shape);
    add(mcs::sim::NetKind::kEcn1, ChannelKind::kInjection, 0, 2 * external);
    add(mcs::sim::NetKind::kEcn1, ChannelKind::kEjection, 0, 2 * external);
    for (int l = 1; l < shape.n; ++l) {
      double tail = 0.0;
      for (int j = l + 1; j <= shape.n; ++j)
        tail += conc_p[static_cast<std::size_t>(j - 1)];
      add(mcs::sim::NetKind::kEcn1, ChannelKind::kUp, l, 2 * external * tail);
      add(mcs::sim::NetKind::kEcn1, ChannelKind::kDown, l,
          2 * external * tail);
    }
  }

  // ICN2: one injection/ejection per external message; boundary crossings
  // from the exact pairwise concentrator distances, weighted by the
  // node-uniform destination-cluster probabilities N_v / (N - N_i).
  (void)icn2_p;
  add(mcs::sim::NetKind::kIcn2, ChannelKind::kInjection, 0, total_external);
  add(mcs::sim::NetKind::kIcn2, ChannelKind::kEjection, 0, total_external);
  const mcs::topo::FatTree icn2_tree(icn2);
  const auto n_total = static_cast<double>(cfg.total_nodes());
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    const auto ni = static_cast<double>(cfg.cluster_size(i));
    const double out_i = ni * cfg.p_outgoing(i) * lambda;
    for (int v = 0; v < cfg.cluster_count(); ++v) {
      if (v == i) continue;
      const double rate_iv =
          out_i * static_cast<double>(cfg.cluster_size(v)) / (n_total - ni);
      const int h = icn2_tree.nca_level(static_cast<mcs::topo::EndpointId>(i),
                                        static_cast<mcs::topo::EndpointId>(v));
      for (int l = 1; l < h; ++l) {
        add(mcs::sim::NetKind::kIcn2, ChannelKind::kUp, l, rate_iv);
        add(mcs::sim::NetKind::kIcn2, ChannelKind::kDown, l, rate_iv);
      }
    }
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const auto config = args.get("org", "a") == "b"
                          ? mcs::topo::SystemConfig::table1_org_b()
                          : mcs::topo::SystemConfig::table1_org_a();
  mcs::model::NetworkParams params;
  const mcs::model::RefinedModel refined(config, params);
  const double lambda = args.get_double(
      "lambda", 0.5 * mcs::model::find_saturation(refined).lambda_sat);

  mcs::sim::SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 20060814));
  cfg.warmup_messages = args.get_int("warmup", 3'000);
  cfg.measured_messages = args.get_int("measured", 30'000);
  cfg.collect_channel_stats = true;
  const mcs::topo::MultiClusterTopology topology(config);
  mcs::sim::Simulator sim(topology, params, lambda, cfg);
  const auto result = sim.run();
  if (result.saturated) {
    std::printf("saturated at lambda=%.3e (%s); rerun with lower --lambda\n",
                lambda, result.saturation_reason.c_str());
    return 0;
  }

  const auto analytic = analytic_class_rates(config, lambda);
  std::printf("=== Channel-class traffic: simulation vs flow conservation "
              "(lambda=%.3e) ===\n",
              lambda);
  mcs::util::TextTable table({"network", "kind", "level", "channels",
                              "sim rate (total)", "analytic rate", "err %",
                              "mean util", "max util"});
  const char* kind_names[] = {"inject", "eject", "up", "down"};
  for (const auto& c : result.channel_classes) {
    const double sim_total =
        c.mean_message_rate * static_cast<double>(c.channels);
    const auto key = std::tuple<int, int, int>{
        static_cast<int>(c.net), static_cast<int>(c.kind), c.level};
    const auto it = analytic.find(key);
    const double expected = it != analytic.end() ? it->second : 0.0;
    const std::string err =
        expected > 0.0 ? mcs::util::TextTable::num(
                             100.0 * (sim_total - expected) / expected, 1)
                       : "-";
    table.add_row({mcs::sim::to_string(c.net),
                   kind_names[static_cast<int>(c.kind)],
                   std::to_string(c.level), std::to_string(c.channels),
                   mcs::util::TextTable::num(sim_total, 4),
                   mcs::util::TextTable::num(expected, 4), err,
                   mcs::util::TextTable::num(c.mean_utilization, 4),
                   mcs::util::TextTable::num(c.max_utilization, 4)});
  }
  table.print();
  std::printf(
      "\nReading: total crossing rates should match flow conservation to\n"
      "within simulation noise; the max-utilization column shows the hot\n"
      "d-mod-k funnels (ICN2 down channels, ECN1 concentrator chain) that\n"
      "the refined model credits and Eqs. (10)-(12) average away.\n");
  return 0;
}
