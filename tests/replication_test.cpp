#include "sim/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/fixed_replications.hpp"
#include "util/error.hpp"

namespace mcs::sim {
namespace {

using testsupport::run_fixed_replications;

class ReplicationTest : public ::testing::Test {
 protected:
  static topo::SystemConfig config() {
    topo::SystemConfig cfg;
    cfg.m = 4;
    cfg.cluster_heights = {2, 2, 3};
    return cfg;
  }
  topo::MultiClusterTopology topo_{config()};
  model::NetworkParams params_;

  static SimConfig small() {
    SimConfig cfg;
    cfg.warmup_messages = 300;
    cfg.measured_messages = 3'000;
    return cfg;
  }
};

TEST_F(ReplicationTest, CrossReplicationIntervalCoversEachRun) {
  const auto result =
      run_fixed_replications(topo_, params_, 1e-4, small(), 5);
  EXPECT_EQ(result.completed, 5);
  EXPECT_EQ(result.saturated, 0);
  ASSERT_EQ(result.runs.size(), 5u);
  // A 95% CI across 5 replications should comfortably cover each
  // individual replication mean at this stable load.
  for (const SimResult& run : result.runs) {
    EXPECT_NEAR(run.latency.mean, result.latency.mean,
                5.0 * result.latency.half_width + 1.0);
  }
  EXPECT_GT(result.latency.half_width, 0.0);
}

TEST_F(ReplicationTest, ReplicationsAreIndependent) {
  const auto result =
      run_fixed_replications(topo_, params_, 1e-4, small(), 3);
  EXPECT_NE(result.runs[0].latency.mean, result.runs[1].latency.mean);
  EXPECT_NE(result.runs[1].latency.mean, result.runs[2].latency.mean);
}

TEST_F(ReplicationTest, DeterministicAcrossCalls) {
  const auto a = run_fixed_replications(topo_, params_, 1e-4, small(), 3);
  const auto b = run_fixed_replications(topo_, params_, 1e-4, small(), 3);
  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.latency.half_width, b.latency.half_width);
}

TEST_F(ReplicationTest, MoreReplicationsTightenTheInterval) {
  const auto few =
      run_fixed_replications(topo_, params_, 1e-4, small(), 3);
  const auto many =
      run_fixed_replications(topo_, params_, 1e-4, small(), 10);
  EXPECT_LT(many.latency.half_width, few.latency.half_width);
}

TEST_F(ReplicationTest, SaturatedRunsAreCountedNotAveraged) {
  SimConfig cfg = small();
  cfg.max_generated = 20'000;
  const auto result = run_fixed_replications(topo_, params_, 0.05, cfg, 2);
  EXPECT_EQ(result.saturated, 2);
  EXPECT_EQ(result.completed, 0);
  // Regression (all-saturated aggregation): a fully saturated point must
  // not read as a confidently converged latency of 0.0 +- 0.0.
  EXPECT_TRUE(result.all_saturated);
  EXPECT_TRUE(std::isnan(result.latency.mean));
  EXPECT_TRUE(std::isnan(result.latency.half_width));
  EXPECT_TRUE(std::isnan(result.internal_latency.mean));
  EXPECT_TRUE(std::isnan(result.external_latency.mean));
}

TEST_F(ReplicationTest, PartiallySaturatedSetsAreNotFlagged) {
  // Build a genuinely mixed set: measure the per-replication end times at
  // a stable load, then re-run with a simulated-time cap between the
  // fastest and slowest — runs past the cap are flagged saturated, the
  // rest complete (seeds are deterministic, so the split is too).
  const auto base =
      run_fixed_replications(topo_, params_, 1e-4, small(), 4);
  ASSERT_EQ(base.completed, 4);
  double lo = base.runs[0].end_time, hi = base.runs[0].end_time;
  for (const SimResult& run : base.runs) {
    lo = std::min(lo, run.end_time);
    hi = std::max(hi, run.end_time);
  }
  ASSERT_LT(lo, hi);

  SimConfig capped = small();
  capped.max_time = 0.5 * (lo + hi);
  const auto mixed =
      run_fixed_replications(topo_, params_, 1e-4, capped, 4);
  EXPECT_GT(mixed.completed, 0);
  EXPECT_GT(mixed.saturated, 0);
  EXPECT_EQ(mixed.completed + mixed.saturated, 4);
  // Partially saturated: aggregates come from the completed runs only,
  // and the degenerate-state flag stays off.
  EXPECT_FALSE(mixed.all_saturated);
  EXPECT_FALSE(std::isnan(mixed.latency.mean));
  EXPECT_GT(mixed.latency.mean, 0.0);
}

TEST_F(ReplicationTest, NearbyBaseSeedsShareNoRuns) {
  // Regression (replication seeding): with `seed + r` derivation,
  // replication r of base seed S is bit-identical to replication r-1 of
  // base seed S+1, so replication sets launched from consecutive seeds
  // overlap almost entirely. The splitmix64 stream must decorrelate them.
  SimConfig lo = small();
  lo.seed = 42;
  SimConfig hi = small();
  hi.seed = 43;
  const auto a = run_fixed_replications(topo_, params_, 1e-4, lo, 4);
  const auto b = run_fixed_replications(topo_, params_, 1e-4, hi, 4);
  for (const SimResult& ra : a.runs)
    for (const SimResult& rb : b.runs) {
      EXPECT_NE(ra.latency.mean, rb.latency.mean);
      EXPECT_NE(ra.end_time, rb.end_time);
    }
}

// --- sequential (CI-driven) mode -----------------------------------------

TEST_F(ReplicationTest, SequentialAchievesRequestedPrecision) {
  SequentialSpec spec;
  spec.r_min = 3;
  spec.r_max = 24;
  spec.rel_precision = 0.10;
  const auto result =
      run_replications_sequential(topo_, params_, 1e-4, small(), spec);
  EXPECT_TRUE(result.precision_met);
  EXPECT_LE(result.rel_half_width, 0.10);
  EXPECT_GE(result.replications, spec.r_min);
  EXPECT_LE(result.replications, spec.r_max);
  EXPECT_EQ(result.runs.size(),
            static_cast<std::size_t>(result.replications));
}

TEST_F(ReplicationTest, SequentialSpendsMoreForTighterTargets) {
  SequentialSpec loose;
  loose.r_min = 3;
  loose.r_max = 32;
  loose.rel_precision = 0.25;
  SequentialSpec tight = loose;
  tight.rel_precision = 0.04;
  const auto a =
      run_replications_sequential(topo_, params_, 1e-4, small(), loose);
  const auto b =
      run_replications_sequential(topo_, params_, 1e-4, small(), tight);
  EXPECT_LE(a.replications, b.replications);
  EXPECT_LE(a.rel_half_width, 0.25);
}

TEST_F(ReplicationTest, SequentialPrefixMatchesFixedModeBitForBit) {
  // Replication r's seed depends only on (base.seed, r): the sequential
  // stopping point R reproduces a fixed-count run of R replications
  // exactly.
  SequentialSpec spec;
  spec.r_min = 3;
  spec.r_max = 16;
  spec.rel_precision = 0.10;
  const auto seq =
      run_replications_sequential(topo_, params_, 1e-4, small(), spec);
  const auto fixed = run_fixed_replications(topo_, params_, 1e-4, small(),
                                            seq.replications);
  EXPECT_EQ(seq.latency.mean, fixed.latency.mean);
  EXPECT_EQ(seq.latency.half_width, fixed.latency.half_width);
  EXPECT_EQ(seq.rel_half_width, fixed.rel_half_width);
  ASSERT_EQ(seq.runs.size(), fixed.runs.size());
  for (std::size_t r = 0; r < seq.runs.size(); ++r)
    EXPECT_EQ(seq.runs[r].latency.mean, fixed.runs[r].latency.mean);
}

TEST_F(ReplicationTest, SequentialStopsEarlyWhenEveryRunSaturates) {
  SimConfig cfg = small();
  cfg.max_generated = 20'000;
  SequentialSpec spec;
  spec.r_min = 2;
  spec.r_max = 12;
  spec.rel_precision = 0.05;
  const auto result =
      run_replications_sequential(topo_, params_, 0.05, cfg, spec);
  // r_min saturated runs are decisive: the budget is not burned to r_max.
  EXPECT_EQ(result.replications, spec.r_min);
  EXPECT_TRUE(result.all_saturated);
  EXPECT_FALSE(result.precision_met);
  EXPECT_TRUE(std::isnan(result.latency.mean));
}

TEST_F(ReplicationTest, SequentialCapsAtRMax) {
  SequentialSpec spec;
  spec.r_min = 2;
  spec.r_max = 3;
  spec.rel_precision = 1e-9;  // unreachable target
  const auto result =
      run_replications_sequential(topo_, params_, 1e-4, small(), spec);
  EXPECT_EQ(result.replications, 3);
  EXPECT_FALSE(result.precision_met);
  EXPECT_GT(result.rel_half_width, 1e-9);
}

// Regression: the CI rule must not fire before two completed runs exist.
// relative_half_width() over fewer than two samples returns infinity, and
// a permissive target — rel_precision = inf passes validate(), since any
// positive value does — made `inf <= inf` stop the sequence at r = 1 with
// a meaningless one-run "interval" and precision_met = false. The rule
// now waits for two completed runs, so the permissive target stops at
// r = 2 with a real interval and precision_met = true.
TEST_F(ReplicationTest, SequentialNeverStopsOnFewerThanTwoCompletedRuns) {
  SequentialSpec spec;
  spec.r_min = 1;
  spec.r_max = 4;
  spec.rel_precision = std::numeric_limits<double>::infinity();
  const auto result =
      run_replications_sequential(topo_, params_, 1e-4, small(), spec);
  EXPECT_GE(result.completed, 2);
  EXPECT_EQ(result.replications, 2);  // permissive target: stops ASAP
  EXPECT_TRUE(result.precision_met);
}

TEST_F(ReplicationTest, SequentialRejectsBadSpecs) {
  SequentialSpec bad;
  bad.r_min = 0;
  EXPECT_THROW(
      run_replications_sequential(topo_, params_, 1e-4, small(), bad),
      ConfigError);
  bad = SequentialSpec{};
  bad.r_max = bad.r_min - 1;
  EXPECT_THROW(
      run_replications_sequential(topo_, params_, 1e-4, small(), bad),
      ConfigError);
  bad = SequentialSpec{};
  bad.rel_precision = 0.0;
  EXPECT_THROW(
      run_replications_sequential(topo_, params_, 1e-4, small(), bad),
      ConfigError);
}

TEST_F(ReplicationTest, SingleRunBatchMeansCiIsConsistent) {
  // The single-run batch-means CI should be of the same order as the
  // cross-replication CI (both estimate the same sampling variance).
  const auto result =
      run_fixed_replications(topo_, params_, 1e-4, small(), 6);
  const double batch_ci = result.runs[0].latency.half_width;
  EXPECT_GT(batch_ci, 0.1 * result.latency.half_width);
  EXPECT_LT(batch_ci, 10.0 * result.latency.half_width + 1.0);
}

}  // namespace
}  // namespace mcs::sim
