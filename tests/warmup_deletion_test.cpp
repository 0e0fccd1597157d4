// Initial-transient (warmup) deletion in the simulator (DESIGN.md §11):
// the post-run MSER-5 truncation of the measured latency stream.
// Deletion must never perturb the event flow — only the reported latency
// statistics change — and off must mean bit-identical (the PR 3 golden
// fingerprints separately pin the off path).
#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulator.hpp"

namespace mcs::sim {
namespace {

topo::SystemConfig system_config() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

SimConfig phases(std::int64_t warmup, std::int64_t measured) {
  SimConfig cfg;
  cfg.warmup_messages = warmup;
  cfg.measured_messages = measured;
  cfg.batch_size = 100;
  return cfg;
}

SimResult run(SimConfig cfg, double lambda = 2e-4) {
  topo::MultiClusterTopology topology(system_config());
  model::NetworkParams params;
  Simulator sim(topology, params, lambda, std::move(cfg));
  return sim.run();
}

TEST(WarmupDeletion, OffByDefaultAndReportsZero) {
  const SimResult r = run(phases(200, 2'000));
  EXPECT_EQ(r.warmup_deleted, 0);
  EXPECT_FALSE(r.warmup_fallback);
}

TEST(WarmupDeletion, DeletionNeverPerturbsTheEventFlow) {
  SimConfig off = phases(0, 4'000);
  SimConfig mser = off;
  mser.warmup_deletion = WarmupDeletion::kMser5;
  const SimResult a = run(off);
  const SimResult b = run(mser);
  // Same events, same end time, same generation: deletion is a post-run
  // reporting transform, invisible to the simulation itself.
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered_measured, b.delivered_measured);
  // The deleted messages leave the latency accounting.
  EXPECT_EQ(b.measured_internal + b.measured_external + b.warmup_deleted,
            b.delivered_measured);
  std::int64_t per_cluster = 0;
  for (const std::int64_t c : b.per_cluster_count) per_cluster += c;
  EXPECT_EQ(per_cluster + b.warmup_deleted, b.delivered_measured);
}

TEST(WarmupDeletion, ZeroFixedWarmupNearTheKneeGetsACut) {
  // With no fixed warmup phase and a load near the knee, the
  // empty-network start is a real transient (the synchronized first
  // arrivals congest, then the system settles): MSER-5 must find a
  // non-trivial cutoff and move the reported mean. (At deeply low loads
  // a zero cutoff is correct — the stream is stationary from the start;
  // see OffByDefaultAndReportsZero.)
  SimConfig cfg = phases(0, 4'000);
  cfg.warmup_deletion = WarmupDeletion::kMser5;
  const double lambda = 6e-3;
  const SimResult biased = run(phases(0, 4'000), lambda);
  const SimResult cleaned = run(cfg, lambda);
  EXPECT_GT(cleaned.warmup_deleted, 0);
  EXPECT_LE(cleaned.warmup_deleted, 4'000 / 2);  // half-data bound
  EXPECT_NE(cleaned.latency.mean, biased.latency.mean);
  EXPECT_EQ(cleaned.end_time, biased.end_time);  // reporting-only change
}

TEST(WarmupDeletion, Mser5FallsBackOnShortStreams) {
  // 30 measured messages -> 6 MSER-5 batch means: undetermined, so the
  // fixed 10% fallback applies (and says so).
  SimConfig cfg = phases(100, 30);
  cfg.warmup_deletion = WarmupDeletion::kMser5;
  const SimResult r = run(cfg);
  EXPECT_TRUE(r.warmup_fallback);
  EXPECT_EQ(r.warmup_deleted, static_cast<std::int64_t>(0.1 * 30));
}

TEST(WarmupDeletion, DeterministicAcrossRuns) {
  SimConfig cfg = phases(0, 3'000);
  cfg.warmup_deletion = WarmupDeletion::kMser5;
  const SimResult a = run(cfg);
  const SimResult b = run(cfg);
  EXPECT_EQ(a.warmup_deleted, b.warmup_deleted);
  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
}

}  // namespace
}  // namespace mcs::sim
