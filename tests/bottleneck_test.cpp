// Tests of the closed-form bottleneck analyzer and the ICN2 funnel
// coefficients, including a cross-validation against simulated channel
// utilization.
#include "model/bottleneck.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "model/icn2_funnel.hpp"
#include "sim/simulator.hpp"

namespace mcs::model {
namespace {

class BottleneckTest : public ::testing::Test {
 protected:
  topo::SystemConfig org_a_ = topo::SystemConfig::table1_org_a();
  NetworkParams params_;
};

TEST_F(BottleneckTest, RatesScaleLinearlyWithLoad) {
  const auto at1 = analyze_bottlenecks(org_a_, params_, 1e-4);
  const auto at2 = analyze_bottlenecks(org_a_, params_, 2e-4);
  ASSERT_EQ(at1.size(), at2.size());
  for (std::size_t c = 0; c < at1.size(); ++c) {
    EXPECT_NEAR(at2[c].total_rate, 2.0 * at1[c].total_rate,
                1e-9 * at2[c].total_rate + 1e-15);
    EXPECT_NEAR(at2[c].worst_utilization, 2.0 * at1[c].worst_utilization,
                1e-9);
  }
}

TEST_F(BottleneckTest, SortedByWorstUtilization) {
  const auto loads = analyze_bottlenecks(org_a_, params_, 1e-4);
  for (std::size_t c = 1; c < loads.size(); ++c)
    EXPECT_GE(loads[c - 1].worst_utilization, loads[c].worst_utilization);
}

TEST_F(BottleneckTest, Icn2DownFunnelIsTheOrgABottleneck) {
  // Org A's four 128-node clusters share one ICN2 leaf group; the down
  // channel toward that group is the hottest channel in the system.
  const auto loads = analyze_bottlenecks(org_a_, params_, 1e-4);
  ASSERT_FALSE(loads.empty());
  EXPECT_EQ(loads.front().net, NetworkLayer::kIcn2);
  EXPECT_EQ(loads.front().kind, topo::ChannelKind::kDown);
  EXPECT_NE(loads.front().hottest.find("128-node"), std::string::npos);
}

TEST_F(BottleneckTest, LoadAtUnitUtilizationMatchesObservedSimKnee) {
  // The flow bound for Org A (M=32, L_m=256) sits near 2.1e-4 — the knee
  // the simulator exhibits (DESIGN.md §6).
  const double bound = load_at_worst_utilization(org_a_, params_, 1.0);
  EXPECT_GT(bound, 1.6e-4);
  EXPECT_LT(bound, 2.6e-4);
}

TEST_F(BottleneckTest, BoundScalesInverselyWithMessageLength) {
  NetworkParams m64 = params_;
  m64.message_flits = 64;
  EXPECT_NEAR(load_at_worst_utilization(org_a_, m64, 1.0),
              0.5 * load_at_worst_utilization(org_a_, params_, 1.0),
              1e-7);
}

TEST(BottleneckIcn2Test, UpWorstIsTheRoutedMaximum) {
  // Org B's ICN2 ascent classes: the worst rate is the hottest routed up
  // channel at that level, not a per-leaf-group average.
  const auto cfg = topo::SystemConfig::table1_org_b();
  const topo::MultiClusterTopology topology(cfg);
  const topo::Network& icn2 = topology.icn2();
  const auto n_total = static_cast<double>(cfg.total_nodes());
  std::vector<double> rate(icn2.channel_count(), 0.0);
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    const auto ni = static_cast<double>(cfg.cluster_size(i));
    for (int v = 0; v < cfg.cluster_count(); ++v) {
      if (v == i) continue;
      const double w = ni * cfg.p_outgoing(i) *
                       static_cast<double>(cfg.cluster_size(v)) /
                       (n_total - ni);
      for (const topo::ChannelId c : icn2.route(i, v))
        rate[static_cast<std::size_t>(c)] += w;
    }
  }
  std::map<int, double> routed_max;  // level -> hottest up channel
  for (std::size_t c = 0; c < rate.size(); ++c) {
    const topo::Channel& ch = icn2.channel(static_cast<topo::ChannelId>(c));
    if (ch.kind == topo::ChannelKind::kUp)
      routed_max[ch.level] = std::max(routed_max[ch.level], rate[c]);
  }

  int up_classes = 0;
  for (const auto& load : analyze_bottlenecks(cfg, NetworkParams{}, 1.0)) {
    if (load.net != NetworkLayer::kIcn2 ||
        load.kind != topo::ChannelKind::kUp)
      continue;
    ++up_classes;
    const double want = routed_max.at(load.level);
    EXPECT_NEAR(load.worst_rate, want, 1e-12 * want)
        << "ICN2 up level " << load.level;
  }
  EXPECT_EQ(up_classes, static_cast<int>(routed_max.size()));
}

TEST(BottleneckIcn2Test, GraphIcn2IsAnalyzed) {
  // A torus ICN2 has no funnel combinatorics; its classes come from the
  // routed per-channel flow like the tree's.
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 16);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.icn2.torus_rows = 4;
  cfg.icn2.torus_cols = 4;
  std::vector<ClassLoad> loads;
  ASSERT_NO_THROW(loads = analyze_bottlenecks(cfg, NetworkParams{}, 1e-4));
  bool saw_icn2 = false;
  for (const auto& load : loads) {
    saw_icn2 = saw_icn2 || load.net == NetworkLayer::kIcn2;
    EXPECT_LE(load.mean_utilization, load.worst_utilization + 1e-12);
  }
  EXPECT_TRUE(saw_icn2);
  EXPECT_GT(load_at_worst_utilization(cfg, NetworkParams{}, 1.0), 0.0);
}

TEST_F(BottleneckTest, MeanUtilizationNeverExceedsWorst) {
  for (const auto& load : analyze_bottlenecks(org_a_, params_, 1.5e-4)) {
    EXPECT_LE(load.mean_utilization, load.worst_utilization + 1e-12)
        << to_string(load.net) << " level " << load.level;
  }
}

TEST(Icn2FunnelTest, OutCoefficientsMatchEq13) {
  const auto cfg = topo::SystemConfig::table1_org_b();
  const Icn2Funnel funnel = Icn2Funnel::compute(cfg);
  ASSERT_EQ(funnel.out_coeff.size(),
            static_cast<std::size_t>(cfg.cluster_count()));
  for (int i = 0; i < cfg.cluster_count(); ++i)
    EXPECT_NEAR(funnel.out_coeff[static_cast<std::size_t>(i)],
                static_cast<double>(cfg.cluster_size(i)) *
                    cfg.p_outgoing(i),
                1e-9);
}

TEST(Icn2FunnelTest, DownCoefficientConservesGroupInflow) {
  // Summing boundary-1 down coefficients over one representative of each
  // leaf group must not exceed the total external traffic (every message
  // crosses at most one boundary-1 down channel).
  const auto cfg = topo::SystemConfig::table1_org_a();
  const Icn2Funnel funnel = Icn2Funnel::compute(cfg);
  double total_external = 0.0;
  for (const double c : funnel.out_coeff) total_external += c;
  double group_sum = 0.0;
  const int k = cfg.m / 2;
  for (int v = 0; v < cfg.cluster_count(); v += k)
    group_sum += funnel.down_coeff[static_cast<std::size_t>(v)][1];
  EXPECT_LE(group_sum, total_external + 1e-9);
  EXPECT_GT(group_sum, 0.5 * total_external);  // most traffic crosses
}

TEST(Icn2FunnelTest, HomogeneousGroupsAreSymmetric) {
  const auto cfg = topo::SystemConfig::homogeneous(4, 2, 8);
  const Icn2Funnel funnel = Icn2Funnel::compute(cfg);
  for (int v = 1; v < cfg.cluster_count(); ++v) {
    for (int l = 1; l < funnel.height; ++l)
      EXPECT_NEAR(funnel.down_coeff[static_cast<std::size_t>(v)]
                                   [static_cast<std::size_t>(l)],
                  funnel.down_coeff[0][static_cast<std::size_t>(l)], 1e-9);
  }
}

TEST(BottleneckVsSim, WorstUtilizationMatchesMeasurement) {
  // Integration: the analyzer's hottest-class utilization should land in
  // the same range the simulator measures (within the flow model's
  // no-queueing approximation).
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3, 3};
  const NetworkParams params;
  const double lambda =
      0.4 * load_at_worst_utilization(cfg, params, 1.0);

  const auto loads = analyze_bottlenecks(cfg, params, lambda);
  const double predicted_worst = loads.front().worst_utilization;

  sim::SimConfig sim_cfg;
  sim_cfg.warmup_messages = 2'000;
  sim_cfg.measured_messages = 20'000;
  sim_cfg.collect_channel_stats = true;
  const topo::MultiClusterTopology topology(cfg);
  sim::Simulator simulator(topology, params, lambda, sim_cfg);
  const auto result = simulator.run();
  ASSERT_FALSE(result.saturated);

  double measured_worst = 0.0;
  for (const auto& c : result.channel_classes)
    measured_worst = std::max(measured_worst, c.max_utilization);

  EXPECT_NEAR(predicted_worst, measured_worst, 0.5 * measured_worst);
}

}  // namespace
}  // namespace mcs::model
