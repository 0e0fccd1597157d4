// Behavioral tests of the refined analytical model (DESIGN.md §3.2).
#include "model/refined_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "model/paper_model.hpp"
#include "model/saturation.hpp"

namespace mcs::model {
namespace {

class RefinedModelTest : public ::testing::Test {
 protected:
  topo::SystemConfig org_a_ = topo::SystemConfig::table1_org_a();
  topo::SystemConfig org_b_ = topo::SystemConfig::table1_org_b();
  NetworkParams params_;
};

TEST_F(RefinedModelTest, StableAndFiniteAtLowLoad) {
  const RefinedModel model(org_a_, params_);
  const LatencyPrediction p = model.predict(5e-5);
  EXPECT_TRUE(p.stable);
  EXPECT_TRUE(std::isfinite(p.mean_latency));
  EXPECT_EQ(p.clusters.size(), 32u);
}

TEST_F(RefinedModelTest, MonotoneInOfferedLoad) {
  const RefinedModel model(org_b_, params_);
  double prev = 0.0;
  for (double lambda = 2e-5; lambda <= 2e-4; lambda += 2e-5) {
    const LatencyPrediction p = model.predict(lambda);
    ASSERT_TRUE(p.stable);
    EXPECT_GT(p.mean_latency, prev);
    prev = p.mean_latency;
  }
}

TEST_F(RefinedModelTest, ZeroLoadInternalMatchesWormholeDrain) {
  // The wormhole body drains at the slowest downstream channel: for any
  // multi-stage journey the first-channel occupancy is M * t_cs; pure
  // leaf journeys (j = 1) give M * t_cn.
  const topo::SystemConfig cfg = topo::SystemConfig::homogeneous(8, 1, 4);
  const RefinedModel model(cfg, params_);
  const LatencyPrediction p = model.predict(1e-12);
  const double expected =
      params_.message_flits * params_.t_cn() + params_.t_cn();
  for (const ClusterLatency& c : p.clusters)
    EXPECT_NEAR(c.t_internal, expected, 1e-6);
}

TEST_F(RefinedModelTest, ZeroLoadMultiStageUsesSwitchBottleneck) {
  const RefinedModel model(org_a_, params_);
  const LatencyPrediction p = model.predict(1e-12);
  // Height-3 clusters (indices 28..31): most internal journeys cross
  // switch channels, so S approaches M * t_cs.
  const double m_tcs = params_.message_flits * params_.t_cs();
  EXPECT_GT(p.clusters[31].s_internal, 0.8 * m_tcs);
  EXPECT_LT(p.clusters[31].s_internal, 1.05 * m_tcs);
}

TEST_F(RefinedModelTest, SaturatesEarlierThanPaperModel) {
  // The refined model sees the d-mod-k concentrator funnel that the
  // paper's uniform channel rates average away, so its saturation point
  // is strictly lower (DESIGN.md §3.2 and §6).
  const RefinedModel refined(org_a_, params_);
  const PaperModel paper(org_a_, params_);
  const SaturationResult rs = find_saturation(refined);
  const SaturationResult ps = find_saturation(paper);
  EXPECT_LT(rs.lambda_sat, ps.lambda_sat);
}

TEST_F(RefinedModelTest, RefinedPredictsMoreContentionThanPaper) {
  const RefinedModel refined(org_a_, params_);
  const PaperModel paper(org_a_, params_);
  const double lambda = 1e-4;
  EXPECT_GT(refined.predict(lambda).mean_latency,
            paper.predict(lambda).mean_latency);
}

TEST_F(RefinedModelTest, ExternalLatencyHasThreeSegmentFloor) {
  const RefinedModel model(org_b_, params_);
  const LatencyPrediction p = model.predict(1e-12);
  // Store-and-forward: at least three full drains even at zero load.
  const double floor = 3.0 * params_.message_flits * params_.t_cn();
  for (const ClusterLatency& c : p.clusters)
    EXPECT_GT(c.t_external, floor);
}

TEST_F(RefinedModelTest, StabilityFlagAgreesWithInfiniteLatency) {
  const RefinedModel model(org_a_, params_);
  for (double lambda = 1e-4; lambda < 1e-3; lambda *= 1.6) {
    const LatencyPrediction p = model.predict(lambda);
    if (!std::isfinite(p.mean_latency)) {
      EXPECT_FALSE(p.stable);
    }
  }
}

TEST_F(RefinedModelTest, EqualHeightClustersGetEqualPredictions) {
  const RefinedModel model(org_b_, params_);
  const LatencyPrediction p = model.predict(1e-4);
  // Clusters 0..7 share height 3.
  for (int i = 1; i < 8; ++i)
    EXPECT_NEAR(p.clusters[static_cast<std::size_t>(i)].latency,
                p.clusters[0].latency, 1e-9);
}

TEST_F(RefinedModelTest, ConcentratorWaitGrowsWithClusterSize) {
  const RefinedModel model(org_a_, params_);
  const LatencyPrediction p = model.predict(1.2e-4);
  // The 128-node cluster funnels 16x the traffic of an 8-node cluster
  // through its concentrator.
  EXPECT_GT(p.clusters[31].w_conc_disp, p.clusters[0].w_conc_disp);
}

TEST_F(RefinedModelTest, OneModelSharedByThreadsGivesSerialBits) {
  // Sweep and search tasks may share a model: predict() keeps its work
  // buffers per call, so concurrent calls (checked for races under TSan)
  // reproduce the serial results bit for bit, on both ICN2 paths.
  topo::SystemConfig torus = topo::SystemConfig::homogeneous(4, 2, 16);
  torus.icn2.kind = topo::Icn2Kind::kTorus;
  for (const topo::SystemConfig& cfg : {org_b_, torus}) {
    const RefinedModel model(cfg, params_);
    const double knee = find_saturation(model).lambda_sat;
    constexpr int kLoads = 16;
    const auto load = [&](int k) { return knee * (k + 1) / kLoads; };
    std::vector<std::uint64_t> serial;
    for (int k = 0; k < kLoads; ++k)
      serial.push_back(
          std::bit_cast<std::uint64_t>(model.predict(load(k)).mean_latency));

    constexpr int kThreads = 4;
    std::vector<std::vector<std::uint64_t>> shared(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (int k = 0; k < kLoads; ++k)
          shared[static_cast<std::size_t>(t)].push_back(
              std::bit_cast<std::uint64_t>(
                  model.predict(load((k + t) % kLoads)).mean_latency));
      });
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t)
      for (int k = 0; k < kLoads; ++k)
        EXPECT_EQ(shared[static_cast<std::size_t>(t)]
                        [static_cast<std::size_t>(k)],
                  serial[static_cast<std::size_t>((k + t) % kLoads)])
            << "thread " << t << " load " << k;
  }
}

}  // namespace
}  // namespace mcs::model
