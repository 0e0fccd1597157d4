// Golden regression tests: pin the exact fixed-seed output of the
// simulator for small configurations spanning both flow controls and both
// ICN2 families (fat tree, torus/mesh graph) plus the cut-through relay.
//
// These are the safety net for hot-path optimisation work: any engine or
// event-queue change must reproduce these strings BIT-IDENTICALLY, not
// just "statistically close". Doubles are rendered as C hexfloats (%a), so
// the comparison is exact and a failure message contains everything needed
// to inspect a divergence. If a change intentionally alters simulation
// semantics (event order, RNG consumption, metric definitions), regenerate
// the strings from the test failure output and say so in the PR.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/simulator.hpp"

namespace mcs::sim {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Serialize every pinned metric of one run. Field order is part of the
/// golden contract; append new fields at the end if the struct grows.
std::string fingerprint(const SimResult& r) {
  std::string s;
  s += "mean=" + hex(r.latency.mean);
  s += " p50=" + hex(r.latency_p50);
  s += " p95=" + hex(r.latency_p95);
  s += " p99=" + hex(r.latency_p99);
  s += " int=" + hex(r.internal_latency.mean);
  s += " ext=" + hex(r.external_latency.mean);
  s += " srcw=" + hex(r.mean_source_wait);
  s += " end=" + hex(r.end_time);
  s += " events=" + std::to_string(r.events_processed);
  s += " gen=" + std::to_string(r.generated);
  s += " nint=" + std::to_string(r.measured_internal);
  s += " next=" + std::to_string(r.measured_external);
  return s;
}

SimConfig golden_config() {
  SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.batch_size = 100;
  return cfg;
}

topo::SystemConfig tree_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

topo::SystemConfig torus_system(bool wrap) {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 6);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.icn2.torus_wrap = wrap;
  return cfg;
}

std::string run(const topo::SystemConfig& system, SimConfig cfg) {
  topo::MultiClusterTopology topology(system);
  model::NetworkParams params;  // M = 32 flits, paper timing constants
  Simulator sim(topology, params, 2e-4, std::move(cfg));
  return fingerprint(sim.run());
}

TEST(SimGolden, WormholeFatTree) {
  EXPECT_EQ(run(tree_system(), golden_config()),
            "mean=0x1.0c86614b7fba3p+5 p50=0x1.284dd2f1a2p+5 "
            "p95=0x1.6da9fbe776p+5 p99=0x1.a984401af0c8fp+5 "
            "int=0x1.1a8ca7212bc6ep+4 ext=0x1.517f4110574acp+5 "
            "srcw=0x1.6106691841892p-6 end=0x1.41d917121a988p+18 "
            "events=25967 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, WormholeTorus) {
  EXPECT_EQ(run(torus_system(/*wrap=*/true), golden_config()),
            "mean=0x1.60c644faa8518p+5 p50=0x1.a67ef9db19p+5 "
            "p95=0x1.aaac08312p+5 p99=0x1.f7811de43c87p+5 "
            "int=0x1.0a9e689bc318ap+4 ext=0x1.8a6c045fd2c29p+5 "
            "srcw=0x1.f7aa0a37a4dcfp-7 end=0x1.b49bc7a1a3dep+17 "
            "events=28830 gen=2201 nint=319 next=1681");
}

TEST(SimGolden, StoreAndForwardFatTree) {
  SimConfig cfg = golden_config();
  cfg.flow_control = FlowControl::kStoreAndForward;
  EXPECT_EQ(run(tree_system(), std::move(cfg)),
            "mean=0x1.a71ae7ec384bap+6 p50=0x1.df3b645a1cp+6 "
            "p95=0x1.326e978d51p+7 p99=0x1.37316084ce2f6p+7 "
            "int=0x1.0ab046916a017p+6 ext=0x1.fbe2d07416725p+6 "
            "srcw=0x1.f0eed1c3fcee3p-8 end=0x1.41e5b10e02044p+18 "
            "events=25858 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, StoreAndForwardMesh) {
  SimConfig cfg = golden_config();
  cfg.flow_control = FlowControl::kStoreAndForward;
  EXPECT_EQ(run(torus_system(/*wrap=*/false), std::move(cfg)),
            "mean=0x1.da57caacf0ddp+6 p50=0x1.110624dd2ecp+7 "
            "p95=0x1.53d70a3d704p+7 p99=0x1.53d70a3d70ap+7 "
            "int=0x1.7639b7639b15ep+5 ext=0x1.086cce05861p+7 "
            "srcw=0x1.2d14c8c8e45ap-7 end=0x1.b4d2010b0f2edp+17 "
            "events=29233 gen=2201 nint=319 next=1681");
}

TEST(SimGolden, WormholeHeteroTechnology) {
  // PR 4 heterogeneous path: per-cluster channel timing (one fast, one
  // slow cluster) plus a distinct long-haul ICN2 technology. Pins the
  // per-net service-table resolution bit-exactly.
  topo::SystemConfig cfg = tree_system();
  cfg.cluster_net.assign(3, {});
  cfg.cluster_net[0].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;
  cfg.icn2_net.beta_net = 0.001;
  EXPECT_EQ(run(cfg, golden_config()),
            "mean=0x1.4d2b828713f3cp+5 p50=0x1.2cd4fdf3b84p+5 "
            "p95=0x1.e76872b01ep+5 p99=0x1.31ae3e1f8b6b8p+6 "
            "int=0x1.cb15ee2d01fd2p+4 ext=0x1.8556834ce0efep+5 "
            "srcw=0x1.8cbfeca8424e5p-5 end=0x1.41d605eb311f9p+18 "
            "events=25977 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, WormholeHeteroLoadScale) {
  // PR 4 hot-spot path: per-cluster offered-load multipliers with a
  // node-weighted mean of 1.0 (matched total load; clusters are 8/8/16
  // nodes). Pins the per-cluster arrival-rate path bit-exactly.
  topo::SystemConfig cfg = tree_system();
  cfg.load_scale = {2.5, 0.5, 0.5};
  EXPECT_EQ(run(cfg, golden_config()),
            "mean=0x1.18a679b8906e9p+5 p50=0x1.284dd2f1c4p+5 "
            "p95=0x1.6da9fbe776p+5 p99=0x1.ac2bc518f3599p+5 "
            "int=0x1.14900995c48f7p+4 ext=0x1.4f9adbb91f0c3p+5 "
            "srcw=0x1.17f283224148p-6 end=0x1.464d187fb1ef5p+18 "
            "events=26638 gen=2200 nint=557 next=1443");
}

TEST(SimGolden, WormholeCutThroughRelay) {
  SimConfig cfg = golden_config();
  cfg.relay_mode = RelayMode::kCutThrough;
  EXPECT_EQ(run(tree_system(), std::move(cfg)),
            "mean=0x1.35ceb9f08c9e3p+4 p50=0x1.3ed0e5603ap+4 "
            "p95=0x1.4f851eb85p+4 p99=0x1.f5ba2d2d3979ap+4 "
            "int=0x1.1a8ca7212bc6ep+4 ext=0x1.4494fb66ad2d4p+4 "
            "srcw=0x1.ad83128d0106dp-6 end=0x1.41d4cfe7188b6p+18 "
            "events=23130 gen=2200 nint=703 next=1297");
}

TEST(SimGolden, DriftStopOverloaded) {
  // 2.4x the refined knee (4.13e-3) of the tree system: the latency batch
  // means climb from the first batch and the drift test stops the run at
  // the end of its 7th of 20 batches, long before the 8800-message
  // generation cap. Without the test the run delivered all 2000 measured
  // messages and reported a 736.8-cycle mean as a completed run.
  topo::MultiClusterTopology topology(tree_system());
  model::NetworkParams params;
  Simulator sim(topology, params, 1e-2, golden_config());
  const SimResult r = sim.run();
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.saturation_cause, "drift");
  EXPECT_EQ("end=" + hex(r.end_time) +
                " events=" + std::to_string(r.events_processed) +
                " gen=" + std::to_string(r.generated) +
                " delivered=" + std::to_string(r.delivered_measured),
            "end=0x1.867a18d04d9fdp+11 events=13286 gen=1050 delivered=700");
}

TEST(SimGolden, EventKindCounts) {
  // Pops by EventKind on the fat-tree and torus goldens. The generate,
  // header-advance and worm-done counts equal those of an engine that
  // pushes every channel release; only the release pops may differ, since
  // a release nobody waits for is never pushed (DESIGN.md §9.1). Pushing
  // every release pops 18616 and 20624 of them here.
  const auto kinds = [](const topo::SystemConfig& system) {
    topo::MultiClusterTopology topology(system);
    model::NetworkParams params;
    Simulator sim(topology, params, 2e-4, golden_config());
    const SimResult r = sim.run();
    std::uint64_t sum = 0;
    for (const std::uint64_t n : r.events_by_kind) sum += n;
    EXPECT_EQ(sum, r.events_processed);
    EXPECT_EQ(r.events_by_kind[0], static_cast<std::uint64_t>(r.generated));
    return "gen=" + std::to_string(r.events_by_kind[0]) +
           " hdr=" + std::to_string(r.events_by_kind[1]) +
           " rel=" + std::to_string(r.events_by_kind[2]) +
           " done=" + std::to_string(r.events_by_kind[3]);
  };
  EXPECT_EQ(kinds(tree_system()), "gen=2200 hdr=18616 rel=109 done=5042");
  EXPECT_EQ(kinds(torus_system(/*wrap=*/true)),
            "gen=2201 hdr=20627 rel=106 done=5896");
}

}  // namespace
}  // namespace mcs::sim
