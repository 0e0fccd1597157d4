// System-level flow conservation: the simulator's measured per-class
// channel crossing rates must match the rates derived from the traffic
// specification — the same identity the analytical models are built on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "model/bottleneck.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "sim/simulator.hpp"
#include "topology/tree_math.hpp"

namespace mcs::sim {
namespace {

class FlowConservationTest : public ::testing::Test {
 protected:
  static topo::SystemConfig config() {
    topo::SystemConfig cfg;
    cfg.m = 4;
    cfg.cluster_heights = {2, 2, 3, 3};
    return cfg;
  }
};

TEST_F(FlowConservationTest, ClassRatesMatchTrafficSpecification) {
  const topo::SystemConfig cfg = config();
  const topo::MultiClusterTopology topology(cfg);
  const model::NetworkParams params;
  const double lambda = 2e-4;

  SimConfig sim_cfg;
  sim_cfg.warmup_messages = 2'000;
  sim_cfg.measured_messages = 30'000;
  sim_cfg.collect_channel_stats = true;
  Simulator simulator(topology, params, lambda, sim_cfg);
  const SimResult result = simulator.run();
  ASSERT_FALSE(result.saturated);

  // Expected totals (messages/time over all channels of a class).
  std::map<std::tuple<int, int, int>, double> expected;
  double total_external = 0.0;
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    const topo::TreeShape shape{
        cfg.m, cfg.cluster_heights[static_cast<std::size_t>(i)]};
    const auto ni = static_cast<double>(shape.node_count());
    const double po = cfg.p_outgoing(i);
    const double internal = ni * (1.0 - po) * lambda;
    const double external = ni * po * lambda;
    total_external += external;
    expected[{static_cast<int>(NetKind::kIcn1),
              static_cast<int>(topo::ChannelKind::kInjection), 0}] +=
        internal;
    expected[{static_cast<int>(NetKind::kEcn1),
              static_cast<int>(topo::ChannelKind::kInjection), 0}] +=
        2.0 * external;  // source leg + destination leg
  }
  expected[{static_cast<int>(NetKind::kIcn2),
            static_cast<int>(topo::ChannelKind::kInjection), 0}] =
      total_external;

  for (const auto& [key, want] : expected) {
    double got = 0.0;
    for (const auto& c : result.channel_classes) {
      if (static_cast<int>(c.net) == std::get<0>(key) &&
          static_cast<int>(c.kind) == std::get<1>(key) &&
          c.level == std::get<2>(key))
        got += c.mean_message_rate * static_cast<double>(c.channels);
    }
    EXPECT_NEAR(got, want, 0.1 * want)
        << "class (" << std::get<0>(key) << "," << std::get<1>(key) << ")";
  }
}

// Every measured channel class against the analyzer's total rate — the
// model's one channel-rate derivation (analyze_bottlenecks) — on a fat
// tree, a graph ICN2 and skewed load, at 0.4x the refined knee.
TEST_F(FlowConservationTest, MeasuredClassRatesMatchAnalyzer) {
  topo::SystemConfig torus = config();
  torus.icn2.kind = topo::Icn2Kind::kTorus;
  topo::SystemConfig skewed = config();
  skewed.load_scale = {2.0, 1.0, 1.0, 0.5};
  const std::map<std::string, topo::SystemConfig> cases = {
      {"fat_tree", config()},
      {"torus", torus},
      {"skewed_load", skewed},
      {"org_b", topo::SystemConfig::table1_org_b()}};
  const model::NetworkParams params;

  for (const auto& [name, cfg] : cases) {
    const double lambda =
        0.4 *
        model::find_saturation(model::RefinedModel(cfg, params)).lambda_sat;
    const topo::MultiClusterTopology topology(cfg);
    SimConfig sim_cfg;
    sim_cfg.warmup_messages = 2'000;
    sim_cfg.measured_messages = 30'000;
    sim_cfg.collect_channel_stats = true;
    Simulator simulator(topology, params, lambda, sim_cfg);
    const SimResult result = simulator.run();
    ASSERT_FALSE(result.saturated) << name;

    using Key = std::tuple<std::string, topo::ChannelKind, int>;
    std::map<Key, double> analytic;
    for (const model::ClassLoad& c :
         model::analyze_bottlenecks(cfg, params, lambda))
      analytic[{model::to_string(c.net), c.kind, c.level}] = c.total_rate;
    std::map<Key, double> measured;
    for (const ChannelClassStat& c : result.channel_classes)
      measured[{to_string(c.net), c.kind, c.level}] +=
          c.mean_message_rate * static_cast<double>(c.channels);

    for (const auto& [key, got] : measured) {
      const std::string label = name + " " + std::get<0>(key) + " kind " +
                                std::to_string(static_cast<int>(
                                    std::get<1>(key))) +
                                " level " + std::to_string(std::get<2>(key));
      const auto it = analytic.find(key);
      ASSERT_NE(it, analytic.end()) << label << " missing from the analyzer";
      EXPECT_NEAR(got, it->second, 0.1 * it->second) << label;
    }
  }
}

TEST_F(FlowConservationTest, InjectionEqualsEjectionPerNetwork) {
  const topo::MultiClusterTopology topology(config());
  const model::NetworkParams params;
  SimConfig sim_cfg;
  sim_cfg.warmup_messages = 1'000;
  sim_cfg.measured_messages = 15'000;
  sim_cfg.collect_channel_stats = true;
  Simulator simulator(topology, params, 1.5e-4, sim_cfg);
  const SimResult result = simulator.run();
  ASSERT_FALSE(result.saturated);

  std::map<int, double> inject, eject;
  for (const auto& c : result.channel_classes) {
    const double total =
        c.mean_message_rate * static_cast<double>(c.channels);
    if (c.kind == topo::ChannelKind::kInjection)
      inject[static_cast<int>(c.net)] += total;
    if (c.kind == topo::ChannelKind::kEjection)
      eject[static_cast<int>(c.net)] += total;
  }
  for (const auto& [net, in] : inject)
    EXPECT_NEAR(in, eject[net], 0.05 * in) << "network " << net;
}

TEST_F(FlowConservationTest, UpEqualsDownPerBoundary) {
  // Every journey that ascends through boundary l also descends through
  // it (in its own or the destination tree); class totals must pair up.
  const topo::MultiClusterTopology topology(config());
  const model::NetworkParams params;
  SimConfig sim_cfg;
  sim_cfg.warmup_messages = 1'000;
  sim_cfg.measured_messages = 15'000;
  sim_cfg.collect_channel_stats = true;
  Simulator simulator(topology, params, 1.5e-4, sim_cfg);
  const SimResult result = simulator.run();
  ASSERT_FALSE(result.saturated);

  std::map<std::pair<int, int>, double> up, down;
  for (const auto& c : result.channel_classes) {
    const double total =
        c.mean_message_rate * static_cast<double>(c.channels);
    if (c.kind == topo::ChannelKind::kUp)
      up[{static_cast<int>(c.net), c.level}] += total;
    if (c.kind == topo::ChannelKind::kDown)
      down[{static_cast<int>(c.net), c.level}] += total;
  }
  for (const auto& [key, u] : up)
    EXPECT_NEAR(u, down[key], 0.05 * u + 1e-6)
        << "net " << key.first << " boundary " << key.second;
}

}  // namespace
}  // namespace mcs::sim
