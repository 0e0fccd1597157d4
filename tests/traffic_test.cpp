#include "sim/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcs::sim {
namespace {

class TrafficTest : public ::testing::Test {
 protected:
  topo::MultiClusterTopology topo_{topo::SystemConfig::homogeneous(4, 2, 4)};
};

TEST_F(TrafficTest, UniformNeverSelectsSelfAndCoversAllNodes) {
  DestinationSampler sampler(topo_, TrafficPattern{});
  util::Rng rng(1);
  const std::int64_t src = 5;
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < 40000; ++i) {
    const std::int64_t d = sampler.sample(src, 0, rng);
    EXPECT_NE(d, src);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, topo_.total_nodes());
    ++counts[d];
  }
  EXPECT_EQ(counts.size(),
            static_cast<std::size_t>(topo_.total_nodes() - 1));
  // Roughly uniform: expected count ~ 40000/31 ~ 1290.
  for (const auto& [node, count] : counts) {
    (void)node;
    EXPECT_GT(count, 900);
    EXPECT_LT(count, 1700);
  }
}

TEST_F(TrafficTest, UniformPOutgoingMatchesEq13Empirically) {
  DestinationSampler sampler(topo_, TrafficPattern{});
  util::Rng rng(2);
  int external = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t d = sampler.sample(0, 0, rng);
    external += topo_.locate(d).first != 0;
  }
  const double expected = topo_.config().p_outgoing(0);
  EXPECT_NEAR(external / static_cast<double>(kDraws), expected, 0.01);
  EXPECT_NEAR(TrafficPattern{}.p_outgoing(topo_, 0), expected, 1e-15);
}

TEST_F(TrafficTest, HotspotFractionIsRespected) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kHotspot;
  pattern.hotspot_fraction = 0.25;
  pattern.hotspot_node = 12;
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(3);
  int hits = 0;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i)
    hits += sampler.sample(0, 0, rng) == 12;
  // Hotspot draws plus the uniform background that lands on node 12.
  const double expected =
      0.25 + 0.75 / static_cast<double>(topo_.total_nodes() - 1);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), expected, 0.01);
}

TEST_F(TrafficTest, HotspotPOutgoingAccountsForHotspotCluster) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kHotspot;
  pattern.hotspot_fraction = 0.5;
  pattern.hotspot_node = 0;  // lives in cluster 0
  // From cluster 0 the hotspot draw stays internal.
  const double from_zero = pattern.p_outgoing(topo_, 0);
  const double from_one = pattern.p_outgoing(topo_, 1);
  EXPECT_LT(from_zero, from_one);
  EXPECT_NEAR(from_one, 0.5 * topo_.config().p_outgoing(1) + 0.5, 1e-12);
}

TEST_F(TrafficTest, LocalFavorControlsInternalFraction) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kLocalFavor;
  pattern.local_fraction = 0.8;
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(4);
  int internal = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t d = sampler.sample(3, 0, rng);
    EXPECT_NE(d, 3);
    internal += topo_.locate(d).first == 0;
  }
  EXPECT_NEAR(internal / static_cast<double>(kDraws), 0.8, 0.01);
  EXPECT_NEAR(pattern.p_outgoing(topo_, 0), 0.2, 1e-15);
}

TEST_F(TrafficTest, LocalFavorExternalDrawsSkipOwnCluster) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kLocalFavor;
  pattern.local_fraction = 0.0;  // always external
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t d = sampler.sample(2, 0, rng);
    EXPECT_NE(topo_.locate(d).first, 0);
  }
}

TEST_F(TrafficTest, ClusterPermutationTargetsShiftedCluster) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kClusterPermutation;
  pattern.cluster_shift = 1;
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(6);
  const int clusters = topo_.config().cluster_count();
  for (int src_cluster = 0; src_cluster < clusters; ++src_cluster) {
    const std::int64_t src = topo_.global_id(src_cluster, 0);
    std::map<std::int64_t, int> counts;
    for (int i = 0; i < 8000; ++i) {
      const std::int64_t d = sampler.sample(src, src_cluster, rng);
      EXPECT_EQ(topo_.locate(d).first, (src_cluster + 1) % clusters);
      ++counts[d];
    }
    // Uniform over the whole target cluster.
    EXPECT_EQ(counts.size(), static_cast<std::size_t>(
                                 topo_.config().cluster_size(src_cluster)));
  }
  EXPECT_NEAR(pattern.p_outgoing(topo_, 0), 1.0, 1e-15);
}

TEST_F(TrafficTest, ClusterPermutationNegativeShiftWrapsAround) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kClusterPermutation;
  pattern.cluster_shift = -1;  // normalized to C - 1
  const int clusters = topo_.config().cluster_count();
  EXPECT_EQ(pattern.shifted_cluster(0, clusters), clusters - 1);
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i)
    EXPECT_EQ(topo_.locate(sampler.sample(0, 0, rng)).first, clusters - 1);
}

TEST_F(TrafficTest, ClusterPermutationIdentityShiftStaysInternal) {
  TrafficPattern pattern;
  pattern.kind = PatternKind::kClusterPermutation;
  pattern.cluster_shift = topo_.config().cluster_count();  // identity
  DestinationSampler sampler(topo_, pattern);
  util::Rng rng(8);
  const std::int64_t src = topo_.global_id(1, 2);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t d = sampler.sample(src, 1, rng);
    EXPECT_NE(d, src);
    EXPECT_EQ(topo_.locate(d).first, 1);
  }
  EXPECT_NEAR(pattern.p_outgoing(topo_, 1), 0.0, 1e-15);
}

// DestinationSampler and the analytical p_outgoing must agree for every
// pattern kind: the sampler drives the simulator while p_outgoing drives
// the models, and a mismatch silently skews any model/sim comparison.
TEST_F(TrafficTest, SamplerMatchesPOutgoingForAllPatternKinds) {
  std::vector<TrafficPattern> patterns(4);
  patterns[0].kind = PatternKind::kUniform;
  patterns[1].kind = PatternKind::kHotspot;
  patterns[1].hotspot_fraction = 0.2;
  patterns[1].hotspot_node = topo_.global_id(2, 1);
  patterns[2].kind = PatternKind::kLocalFavor;
  patterns[2].local_fraction = 0.35;
  patterns[3].kind = PatternKind::kClusterPermutation;
  patterns[3].cluster_shift = 2;

  constexpr int kDraws = 60000;
  util::Rng rng(9);
  for (const TrafficPattern& pattern : patterns) {
    DestinationSampler sampler(topo_, pattern);
    for (int cluster = 0; cluster < topo_.config().cluster_count();
         ++cluster) {
      // p_outgoing is a CLUSTER aggregate over equal-rate sources, so the
      // draws rotate over every node of the cluster (under kHotspot the
      // hotspot node's own redirected draws fall back to uniform, making
      // its per-node probability differ from its neighbours').
      const std::int64_t n_v = topo_.config().cluster_size(cluster);
      int external = 0;
      for (int i = 0; i < kDraws; ++i) {
        const std::int64_t src = topo_.global_id(
            cluster, static_cast<topo::EndpointId>(i % n_v));
        external += topo_.locate(sampler.sample(src, cluster, rng)).first !=
                    cluster;
      }
      const double expected = pattern.p_outgoing(topo_, cluster);
      // 4-sigma band around the binomial expectation (plus an epsilon so
      // degenerate 0/1 probabilities compare exactly).
      const double sigma =
          std::sqrt(std::max(expected * (1.0 - expected), 1e-12) / kDraws);
      EXPECT_NEAR(external / static_cast<double>(kDraws), expected,
                  4.0 * sigma + 1e-9)
          << "pattern kind " << static_cast<int>(pattern.kind)
          << ", cluster " << cluster;
    }
  }
}

// Regression: the hot cluster's p_outgoing must include the hotspot
// node's own redirected draws, which fall back to the uniform sampler (a
// node never targets itself) and leave the cluster with probability p_o.
// With N_v = 2 and f = 0.5 the missing term is f * p_o / N_v = 0.25 p_o
// — two orders of magnitude above the Monte-Carlo noise of 200k draws —
// so the pre-fix value ((1-f) p_o, treating every redirected draw as
// internal) fails this test decisively.
TEST(TrafficHotspotRegression, HotClusterPOutgoingCountsHotspotFallback) {
  const topo::MultiClusterTopology topo(
      topo::SystemConfig::homogeneous(2, 1, 2));  // 2 clusters x 2 nodes
  TrafficPattern pattern;
  pattern.kind = PatternKind::kHotspot;
  pattern.hotspot_fraction = 0.5;
  pattern.hotspot_node = 0;  // cluster 0, which has N_v = 2 nodes
  DestinationSampler sampler(topo, pattern);

  constexpr int kDraws = 200000;
  util::Rng rng(10);
  int external = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t src = i % 2;  // rotate over cluster 0's two nodes
    external += topo.locate(sampler.sample(src, 0, rng)).first != 0;
  }
  const double empirical = external / static_cast<double>(kDraws);
  const double expected = pattern.p_outgoing(topo, 0);

  // Closed form: p_o = (4-2)/3 = 2/3; (1-f) p_o + f p_o / N_v = 0.5.
  const double p_o = topo.config().p_outgoing(0);
  EXPECT_NEAR(expected, 0.5 * p_o + 0.5 * p_o / 2.0, 1e-15);
  const double sigma =
      std::sqrt(expected * (1.0 - expected) / kDraws);
  EXPECT_NEAR(empirical, expected, 4.0 * sigma);
}

TEST_F(TrafficTest, ValidationRejectsBadPatterns) {
  TrafficPattern bad_hotspot;
  bad_hotspot.kind = PatternKind::kHotspot;
  bad_hotspot.hotspot_node = topo_.total_nodes();  // out of range
  EXPECT_THROW(bad_hotspot.validate(topo_), ConfigError);

  TrafficPattern bad_fraction;
  bad_fraction.kind = PatternKind::kLocalFavor;
  bad_fraction.local_fraction = 1.5;
  EXPECT_THROW(bad_fraction.validate(topo_), ConfigError);
}

}  // namespace
}  // namespace mcs::sim
