// Golden regression tests for the analytical models: pin the exact output
// of PaperModel/RefinedModel predict() and of find_saturation() on
// configurations spanning both Table 1 organizations, a large homogeneous
// fat tree, per-cluster technology and load overrides, a locality-biased
// p_out_override, store-and-forward flow control and every graph ICN2
// (the torus also as a mesh, under store-and-forward, with mixed cluster
// heights and overrides, and at 128 clusters).
//
// Like sim_golden_test these are bit-exact: doubles are rendered as C
// hexfloats (%a), so any restructuring of the model kernels (hoisting,
// pair deduplication, buffer reuse) must reproduce every output bit, not
// just "close" numbers. Each model is probed at 0.3x, 0.9x and 1.5x its own
// knee, so one load per config sits past saturation and pins the unstable
// branch as well. Per-cluster fields are folded into a SHA-256 digest of
// their hexfloat rendering (the 128-cluster system would otherwise pin
// ~4k numbers); the system mean is pinned in the clear. If a change
// intentionally alters a model's numbers, regenerate the strings from the
// test failure output and say so in the change description.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "model/paper_model.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "sim/traffic.hpp"
#include "util/hash.hpp"

namespace mcs::model {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Field order is part of the golden contract; append new fields at the
/// end if ClusterLatency grows.
std::string cluster_fields(const ClusterLatency& c) {
  std::string s;
  s += hex(c.p_outgoing);
  s += ' ';
  s += hex(c.t_internal);
  s += ' ';
  s += hex(c.t_external);
  s += ' ';
  s += hex(c.w_source_internal);
  s += ' ';
  s += hex(c.w_source_external);
  s += ' ';
  s += hex(c.w_conc_disp);
  s += ' ';
  s += hex(c.s_internal);
  s += ' ';
  s += hex(c.s_external);
  s += ' ';
  s += hex(c.latency);
  s += c.stable ? " 1\n" : " 0\n";
  return s;
}

/// "<model> sat=<hex> it=<n>" followed by one line per probed load.
std::string fingerprint(const LatencyModel& model) {
  const SaturationResult sat = find_saturation(model);
  std::string s = model.name();
  s += " sat=" + hex(sat.lambda_sat);
  s += " it=" + std::to_string(sat.iterations);
  for (const double fraction : {0.3, 0.9, 1.5}) {
    const LatencyPrediction p = model.predict(fraction * sat.lambda_sat);
    std::string clusters;
    for (const ClusterLatency& c : p.clusters) clusters += cluster_fields(c);
    s += "\n  mean=" + hex(p.mean_latency);
    s += p.stable ? " stable=1" : " stable=0";
    s += " clusters=" + util::sha256_hex(clusters).substr(0, 16);
  }
  return s;
}

std::string paper(const topo::SystemConfig& system,
                  std::vector<double> p_out = {}) {
  return fingerprint(PaperModel(system, NetworkParams{}, std::move(p_out)));
}

std::string refined(const topo::SystemConfig& system,
                    std::vector<double> p_out = {},
                    FlowControl flow = FlowControl::kWormhole) {
  return fingerprint(
      RefinedModel(system, NetworkParams{}, std::move(p_out), flow));
}

topo::SystemConfig tree_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

topo::SystemConfig graph_system(topo::Icn2Kind kind) {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 8);
  cfg.icn2.kind = kind;
  return cfg;
}

TEST(ModelGolden, OrgA) {
  const topo::SystemConfig org_a = topo::SystemConfig::table1_org_a();
  EXPECT_EQ(paper(org_a),
            "paper sat=0x1.5ad5c43341c7ap-12 it=11\n"
            "  mean=0x1.5f5a0d20e33c9p+4 stable=1 clusters=50a4bcddbcb8ec2e\n"
            "  mean=0x1.f9041b2c65a7dp+4 stable=1 clusters=38abad3a0dbf5aac\n"
            "  mean=inf stable=0 clusters=44a26179509d9ff8");
  EXPECT_EQ(refined(org_a),
            "refined sat=0x1.831540736c4ddp-13 it=12\n"
            "  mean=0x1.9d7c11ed23d15p+5 stable=1 clusters=4eaf7224ca730059\n"
            "  mean=0x1.2f04193cd8191p+6 stable=1 clusters=71752cec715e9f03\n"
            "  mean=inf stable=0 clusters=22fdd2603dbd7df8");
}

TEST(ModelGolden, OrgB) {
  const topo::SystemConfig org_b = topo::SystemConfig::table1_org_b();
  EXPECT_EQ(paper(org_b),
            "paper sat=0x1.192fe875b37e9p-11 it=11\n"
            "  mean=0x1.a73fbc8abff1cp+4 stable=1 clusters=b8ddc9a2c861feba\n"
            "  mean=0x1.abeccf9c610dp+5 stable=1 clusters=8835a7403cf0dc56\n"
            "  mean=inf stable=0 clusters=9b996f10549f7f7a");
  EXPECT_EQ(refined(org_b),
            "refined sat=0x1.29b62d1e67f83p-12 it=12\n"
            "  mean=0x1.db052ac5cb845p+5 stable=1 clusters=fa365ef52e086a5f\n"
            "  mean=0x1.65e7b06e94f95p+6 stable=1 clusters=4d0bf067fb4f97bf\n"
            "  mean=inf stable=0 clusters=6c6ea93624003e99");
}

TEST(ModelGolden, LargeHomogeneousFatTree) {
  // 128 clusters, 4096 nodes: every ordered pair but the NCA level is
  // identical, the case where per-pair work dominates predict().
  const topo::SystemConfig big = topo::SystemConfig::homogeneous(8, 2, 128);
  EXPECT_EQ(paper(big),
            "paper sat=0x1.e85f143a1bf14p-11 it=11\n"
            "  mean=0x1.de129e6b492fep+4 stable=1 clusters=fc7587efc2c90d32\n"
            "  mean=0x1.3e17bb398feb3p+7 stable=1 clusters=fb55e33297aa2b48\n"
            "  mean=inf stable=0 clusters=44045e3bd6a2e264");
  EXPECT_EQ(refined(big),
            "refined sat=0x1.08efc8f3007c8p-12 it=13\n"
            "  mean=0x1.ca5a9177097fcp+5 stable=1 clusters=52cfe96e1f39d418\n"
            "  mean=0x1.ea3b912f3a3fep+6 stable=1 clusters=6770b4d43b1b31de\n"
            "  mean=inf stable=0 clusters=93e7c0222dc65156");
}

TEST(ModelGolden, HeterogeneousTechnologyAndLoad) {
  topo::SystemConfig cfg = tree_system();
  cfg.cluster_net.assign(3, {});
  cfg.cluster_net[0].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;
  cfg.icn2_net.beta_net = 0.001;
  cfg.load_scale = {2.5, 0.5, 0.5};
  EXPECT_EQ(refined(cfg),
            "refined sat=0x1.bc02aaaaaaaacp-10 it=13\n"
            "  mean=0x1.4cdbbd49fc778p+5 stable=1 clusters=fad7aa036ee9d856\n"
            "  mean=0x1.2b57b4ad19846p+6 stable=1 clusters=bd44aee46ad876b2\n"
            "  mean=inf stable=0 clusters=e24526e21f3f5ae8");
}

TEST(ModelGolden, LocalFavorOverride) {
  const topo::SystemConfig cfg = topo::SystemConfig::table1_org_b();
  const topo::MultiClusterTopology topology(cfg);
  sim::TrafficPattern pattern;
  pattern.kind = sim::PatternKind::kLocalFavor;
  pattern.local_fraction = 0.7;
  std::vector<double> p_out;
  for (int c = 0; c < cfg.cluster_count(); ++c)
    p_out.push_back(pattern.p_outgoing(topology, c));
  EXPECT_EQ(paper(cfg, p_out),
            "paper sat=0x1.58937e875b37ep-10 it=10\n"
            "  mean=0x1.7e14317ce541p+4 stable=1 clusters=c18900a61f1d8e53\n"
            "  mean=0x1.034859b6adc07p+6 stable=1 clusters=a4d2b5e4d1e7b5ce\n"
            "  mean=inf stable=0 clusters=4aa55ed210e28af2");
  EXPECT_EQ(refined(cfg, p_out),
            "refined sat=0x1.c5bf00fb18857p-11 it=11\n"
            "  mean=0x1.07caddefe78ep+5 stable=1 clusters=a3f279b058e95184\n"
            "  mean=0x1.5dab2e348b811p+5 stable=1 clusters=bc576ffc511c35c2\n"
            "  mean=inf stable=0 clusters=370abfa65115744b");
}

TEST(ModelGolden, UnevenOverride) {
  // Equal-height clusters with different outgoing probabilities: their
  // pairs must not be treated as interchangeable.
  const topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 4);
  const std::vector<double> p_out = {0.3, 0.6, 0.6, 0.9};
  EXPECT_EQ(paper(cfg, p_out),
            "paper sat=0x1.ef33645f77fd6p-8 it=11\n"
            "  mean=0x1.79354c47fe079p+4 stable=1 clusters=143b0aae0f68e040\n"
            "  mean=0x1.1c123d780e773p+6 stable=1 clusters=dfe2174c283257cc\n"
            "  mean=inf stable=0 clusters=7de787b064b537ba");
  EXPECT_EQ(refined(cfg, p_out),
            "refined sat=0x1.a683794c2dc5cp-8 it=11\n"
            "  mean=0x1.108844dd429fp+5 stable=1 clusters=5251ef1606d0ba02\n"
            "  mean=0x1.8cffef32beec8p+5 stable=1 clusters=5f5dfeed78fff5fc\n"
            "  mean=inf stable=0 clusters=93cc4b2fa8a29108");
}

TEST(ModelGolden, StoreAndForward) {
  EXPECT_EQ(refined(tree_system(), {}, FlowControl::kStoreAndForward),
            "refined sat=0x1.0eb89902f1498p-8 it=11\n"
            "  mean=0x1.af6b15ab7672bp+6 stable=1 clusters=cd9a60e94ea5ae1b\n"
            "  mean=0x1.fa0a36604f07p+6 stable=1 clusters=35fb8328b588d0d5\n"
            "  mean=inf stable=0 clusters=cf5ffac528c25484");
}

TEST(ModelGolden, GraphIcn2s) {
  EXPECT_EQ(refined(graph_system(topo::Icn2Kind::kTorus)),
            "refined sat=0x1.61b7b9611a7bbp-9 it=12\n"
            "  mean=0x1.8ed4262c192b7p+5 stable=1 clusters=8f82e5186f4886d1\n"
            "  mean=0x1.0b668292f1d71p+6 stable=1 clusters=8720fe7f6bff0b07\n"
            "  mean=inf stable=0 clusters=037dbc24455a0c71");
  EXPECT_EQ(refined(graph_system(topo::Icn2Kind::kDragonfly)),
            "refined sat=0x1.ffda7b9611a7cp-10 it=13\n"
            "  mean=0x1.8abf6cc42c981p+5 stable=1 clusters=e2b55ce997fade84\n"
            "  mean=0x1.ff39a320f5b2ep+5 stable=1 clusters=4a9e0cebb417fad6\n"
            "  mean=inf stable=0 clusters=f5709aa473d0f82e");
  EXPECT_EQ(refined(graph_system(topo::Icn2Kind::kRandomRegular)),
            "refined sat=0x1.b7ecb08d3dcb1p-9 it=12\n"
            "  mean=0x1.919b57b7c40c3p+5 stable=1 clusters=86b807eec19dc034\n"
            "  mean=0x1.12192c205d15dp+6 stable=1 clusters=15bbf572e3047b3c\n"
            "  mean=inf stable=0 clusters=2e3b2df1b6b983cf");
  EXPECT_EQ(refined(graph_system(topo::Icn2Kind::kTorus), {},
                    FlowControl::kStoreAndForward),
            "refined sat=0x1.6d4d3dcb08d3fp-9 it=12\n"
            "  mean=0x1.f5143155c907ap+6 stable=1 clusters=aa8d487540ea10d6\n"
            "  mean=0x1.13758218348f4p+7 stable=1 clusters=27ffaeaf200c5fd4\n"
            "  mean=inf stable=0 clusters=96b3dcf5beaa0ca3");
  topo::SystemConfig mesh = graph_system(topo::Icn2Kind::kTorus);
  mesh.icn2.torus_wrap = false;
  EXPECT_EQ(refined(mesh),
            "refined sat=0x1.f91e58469ee59p-10 it=13\n"
            "  mean=0x1.8a5fc43cab862p+5 stable=1 clusters=0b35353b36bc92ab\n"
            "  mean=0x1.000b75cc52dfep+6 stable=1 clusters=e0960ab7201dfe27\n"
            "  mean=inf stable=0 clusters=c67ff384dfdb8503");

  // A torus whose clusters differ in height and load, behind an ICN2 of
  // its own technology: every per-source and per-destination input of
  // the graph leg differs.
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 3, 2, 1, 2, 3};
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.icn2_net.alpha_net = 0.04;
  cfg.icn2_net.beta_net = 0.001;
  cfg.load_scale = {2.0, 0.5, 1.0, 1.5, 0.75, 1.0};
  EXPECT_EQ(refined(cfg),
            "refined sat=0x1.76b8f1d286494p-9 it=11\n"
            "  mean=0x1.4958373d406a6p+5 stable=1 clusters=d8dfa7c5c90eb658\n"
            "  mean=0x1.150d6df43ae8cp+6 stable=1 clusters=612ff156a11cb8b9\n"
            "  mean=inf stable=0 clusters=d9ae3b97628b9521");

  // The 128-cluster 16x8 torus of the model campaign: 16,256 routed pairs.
  topo::SystemConfig big = topo::SystemConfig::homogeneous(8, 2, 128);
  big.icn2.kind = topo::Icn2Kind::kTorus;
  big.icn2.torus_rows = 16;
  big.icn2.torus_cols = 8;
  EXPECT_EQ(refined(big),
            "refined sat=0x1.cb2cdf8a1d0dfp-16 it=17\n"
            "  mean=0x1.bc4ee83d9dcf7p+5 stable=1 clusters=7a8e595d13870187\n"
            "  mean=0x1.e23c51686f264p+5 stable=1 clusters=1b715f662917ee6e\n"
            "  mean=inf stable=0 clusters=72a9ccedd910fcf0");
}

}  // namespace
}  // namespace mcs::model
