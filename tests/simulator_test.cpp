// End-to-end simulator tests: conservation, determinism, zero-load
// latency, phase handling, saturation detection and channel statistics.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace mcs::sim {
namespace {

SimConfig small_run(std::int64_t measured = 4000) {
  SimConfig cfg;
  cfg.seed = 7;
  cfg.warmup_messages = 500;
  cfg.measured_messages = measured;
  cfg.batch_size = 200;
  return cfg;
}

class SimulatorTest : public ::testing::Test {
 protected:
  // Small heterogeneous system: m=4, two 8-node and two 16-node clusters.
  static topo::SystemConfig config() {
    topo::SystemConfig cfg;
    cfg.m = 4;
    cfg.cluster_heights = {2, 2, 3, 3};
    return cfg;
  }
  topo::MultiClusterTopology topo_{config()};
  model::NetworkParams params_;
};

TEST_F(SimulatorTest, DeliversEveryMeasuredMessage) {
  Simulator sim(topo_, params_, 1e-4, small_run());
  const SimResult r = sim.run();
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.delivered_measured, 4000);
  EXPECT_EQ(r.measured_internal + r.measured_external, 4000);
  EXPECT_GE(r.generated, 4500);
  std::int64_t per_cluster_total = 0;
  for (const std::int64_t c : r.per_cluster_count) per_cluster_total += c;
  EXPECT_EQ(per_cluster_total, 4000);
}

TEST_F(SimulatorTest, IdenticalSeedsAreBitReproducible) {
  Simulator a(topo_, params_, 1e-4, small_run());
  Simulator b(topo_, params_, 1e-4, small_run());
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_EQ(ra.latency.mean, rb.latency.mean);  // exact, not approximate
  EXPECT_EQ(ra.events_processed, rb.events_processed);
  EXPECT_EQ(ra.end_time, rb.end_time);
}

TEST_F(SimulatorTest, DifferentSeedsDiffer) {
  SimConfig cfg = small_run();
  Simulator a(topo_, params_, 1e-4, cfg);
  cfg.seed = 8;
  Simulator b(topo_, params_, 1e-4, cfg);
  EXPECT_NE(a.run().latency.mean, b.run().latency.mean);
}

TEST_F(SimulatorTest, InternalExternalSplitMatchesPOutgoing) {
  Simulator sim(topo_, params_, 1e-4, small_run(8000));
  const SimResult r = sim.run();
  // Node-weighted mean P_o across clusters.
  double expected = 0.0;
  for (int i = 0; i < topo_.config().cluster_count(); ++i)
    expected += static_cast<double>(topo_.config().cluster_size(i)) /
                static_cast<double>(topo_.total_nodes()) *
                topo_.config().p_outgoing(i);
  const double measured =
      static_cast<double>(r.measured_external) /
      static_cast<double>(r.measured_internal + r.measured_external);
  EXPECT_NEAR(measured, expected, 0.02);
}

TEST_F(SimulatorTest, ZeroLoadInternalLatencyMatchesWormholeFormula) {
  // At vanishing load an internal j-hop message takes
  // sum of channel times + (M-1) * bottleneck channel time.
  SimConfig cfg = small_run(2000);
  Simulator sim(topo_, params_, 1e-7, cfg);
  const SimResult r = sim.run();
  ASSERT_FALSE(r.saturated);
  // Bound the internal mean by the shortest (j=1) and longest (j=n) paths.
  const double m = params_.message_flits;
  const double lo = 2 * params_.t_cn() + (m - 1) * params_.t_cn();
  const double hi = 2 * params_.t_cn() + 4 * params_.t_cs() +
                    (m - 1) * params_.t_cs() + 1.0;
  EXPECT_GT(r.internal_latency.mean, lo);
  EXPECT_LT(r.internal_latency.mean, hi);
  // Queueing waits vanish.
  EXPECT_LT(r.mean_source_wait, 0.01);
  EXPECT_LT(r.mean_conc_wait, 0.01);
}

TEST_F(SimulatorTest, ZeroLoadExternalLatencyIsThreeSegments) {
  SimConfig cfg = small_run(2000);
  Simulator sim(topo_, params_, 1e-7, cfg);
  const SimResult r = sim.run();
  // Three worms, each at least (2 hops + M-1 flits); store-and-forward.
  const double m = params_.message_flits;
  EXPECT_GT(r.external_latency.mean, 3 * m * params_.t_cn());
  EXPECT_LT(r.external_latency.mean,
            3 * (12 * params_.t_cs() + m * params_.t_cs()) + 1.0);
}

TEST_F(SimulatorTest, CutThroughBeatsStoreForwardAtZeroLoad) {
  SimConfig cfg = small_run(2000);
  Simulator sf(topo_, params_, 1e-7, cfg);
  cfg.relay_mode = RelayMode::kCutThrough;
  Simulator ct(topo_, params_, 1e-7, cfg);
  const double sf_ext = sf.run().external_latency.mean;
  const double ct_ext = ct.run().external_latency.mean;
  // Cut-through pipelines the three legs: one drain instead of three.
  EXPECT_LT(ct_ext, sf_ext);
}

TEST_F(SimulatorTest, SaturationIsDetectedAndFlagged) {
  SimConfig cfg = small_run(4000);
  cfg.max_generated = 40'000;
  Simulator sim(topo_, params_, 0.05, cfg);  // far beyond saturation
  const SimResult r = sim.run();
  EXPECT_TRUE(r.saturated);
  EXPECT_FALSE(r.saturation_reason.empty());
}

TEST_F(SimulatorTest, CapVerdictDoesNotDependOnPollCadence) {
  // The caps are polled every 4096 pops, and this run ends in fewer: the
  // time cap must still be read once the loop is done.
  SimConfig cfg = small_run(100);
  cfg.warmup_messages = 20;
  cfg.batch_size = 50;
  const SimResult full = Simulator(topo_, params_, 1e-4, cfg).run();
  ASSERT_FALSE(full.saturated);
  ASSERT_LT(full.events_processed, 4096u);
  cfg.max_time = 0.5 * full.end_time;
  const SimResult capped = Simulator(topo_, params_, 1e-4, cfg).run();
  EXPECT_TRUE(capped.saturated);
  EXPECT_EQ(capped.saturation_cause, "time");
}

TEST_F(SimulatorTest, ChannelStatsMatchOfferedLoad) {
  SimConfig cfg = small_run(12000);
  cfg.collect_channel_stats = true;
  const double lambda = 2e-4;
  Simulator sim(topo_, params_, lambda, cfg);
  const SimResult r = sim.run();
  ASSERT_FALSE(r.saturated);
  ASSERT_FALSE(r.channel_classes.empty());

  // ICN1 injection channels: rate = (1 - P_o) * lambda per node, busy
  // ~ M * t_cs per message (drain gated by downstream switch channels).
  for (const auto& c : r.channel_classes) {
    if (c.net == NetKind::kIcn1 && c.kind == topo::ChannelKind::kInjection) {
      double expected_rate = 0.0;
      for (int i = 0; i < topo_.config().cluster_count(); ++i)
        expected_rate += static_cast<double>(topo_.config().cluster_size(i)) /
                         static_cast<double>(topo_.total_nodes()) *
                         (1.0 - topo_.config().p_outgoing(i)) * lambda;
      EXPECT_NEAR(c.mean_message_rate, expected_rate, 0.5 * expected_rate);
    }
  }
}

TEST_F(SimulatorTest, RejectsMessageShorterThanPath) {
  model::NetworkParams tiny = params_;
  tiny.message_flits = 4;  // longest path here is 2*3 = 6 channels
  EXPECT_THROW(Simulator(topo_, tiny, 1e-4, small_run()), ConfigError);
}

TEST_F(SimulatorTest, RejectsNonPositiveLoad) {
  EXPECT_THROW(Simulator(topo_, params_, 0.0, small_run()), ConfigError);
}

TEST_F(SimulatorTest, LocalFavorPatternShiftsTrafficInternal) {
  SimConfig cfg = small_run(6000);
  cfg.pattern.kind = PatternKind::kLocalFavor;
  cfg.pattern.local_fraction = 0.9;
  Simulator sim(topo_, params_, 1e-4, cfg);
  const SimResult r = sim.run();
  const double internal_fraction =
      static_cast<double>(r.measured_internal) /
      static_cast<double>(r.measured_internal + r.measured_external);
  EXPECT_NEAR(internal_fraction, 0.9, 0.02);
}

}  // namespace
}  // namespace mcs::sim
