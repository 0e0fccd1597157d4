// True-heterogeneity coverage (DESIGN.md §10): per-cluster / ICN2
// technology overrides and per-cluster load multipliers, end to end.
//
//  * Bit-identity: overrides that restate the shared parameters (and
//    load_scale all-1.0) must reproduce the homogeneous simulation and
//    model outputs EXACTLY — the same contract the PR 3 golden
//    fingerprints pin for the default path.
//  * Fidelity: on genuinely mixed-technology / skewed-load systems the
//    refined model tracks the simulator at low load (<= 15%), while the
//    paper-literal model refuses the configs its equations cannot carry.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_io.hpp"
#include "model/graph_load.hpp"
#include "model/icn2_funnel.hpp"
#include "model/paper_model.hpp"
#include "model/refined_model.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace mcs {
namespace {

topo::SystemConfig base_system() {
  return topo::SystemConfig::homogeneous(/*m=*/4, /*height=*/2,
                                         /*clusters=*/4);
}

/// The shared-technology parameters restated as explicit overrides: the
/// resolved per-cluster params carry the exact same bits as the shared
/// NetworkParams, so every downstream computation must be unchanged.
topo::SystemConfig restated_system(const model::NetworkParams& params) {
  topo::SystemConfig cfg = base_system();
  model::NetworkParamsOverride same;
  same.alpha_net = params.alpha_net;
  same.alpha_sw = params.alpha_sw;
  same.beta_net = params.beta_net;
  same.flit_bytes = params.flit_bytes;
  cfg.cluster_net.assign(4, same);
  cfg.icn2_net = same;
  cfg.load_scale.assign(4, 1.0);
  return cfg;
}

/// Two fast clusters, two slow clusters, a long-haul backbone.
topo::SystemConfig mixed_tech_system() {
  topo::SystemConfig cfg = base_system();
  cfg.cluster_net.assign(4, {});
  cfg.cluster_net[0].beta_net = 0.001;
  cfg.cluster_net[1].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.cluster_net[3].beta_net = 0.004;
  cfg.cluster_net[3].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;
  cfg.icn2_net.beta_net = 0.001;
  return cfg;
}

/// One hot-spot cluster at 2.5x load, the rest throttled to 0.5x (the
/// node-weighted mean multiplier is 1.0: matched total offered load).
topo::SystemConfig hot_cluster_system() {
  topo::SystemConfig cfg = base_system();
  cfg.load_scale = {2.5, 0.5, 0.5, 0.5};
  return cfg;
}

sim::SimConfig sim_phases(std::int64_t warmup, std::int64_t measured) {
  sim::SimConfig cfg;
  cfg.warmup_messages = warmup;
  cfg.measured_messages = measured;
  return cfg;
}

// --- bit-identity of the homogeneous default -----------------------------

TEST(HeteroParams, RestatedOverridesAreBitIdenticalInTheSimulator) {
  const model::NetworkParams params;
  const topo::MultiClusterTopology plain(base_system());
  const topo::MultiClusterTopology restated(restated_system(params));

  sim::Simulator sim_a(plain, params, 2e-4, sim_phases(200, 2'000));
  sim::Simulator sim_b(restated, params, 2e-4, sim_phases(200, 2'000));
  const sim::SimResult a = sim_a.run();
  const sim::SimResult b = sim_b.run();

  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.latency.half_width, b.latency.half_width);
  EXPECT_EQ(a.internal_latency.mean, b.internal_latency.mean);
  EXPECT_EQ(a.external_latency.mean, b.external_latency.mean);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.generated, b.generated);
}

TEST(HeteroParams, RestatedOverridesAreBitIdenticalInTheModels) {
  const model::NetworkParams params;
  const model::RefinedModel plain(base_system(), params);
  const model::RefinedModel restated(restated_system(params), params);
  for (const double lambda : {5e-5, 2e-4, 8e-4}) {
    const model::LatencyPrediction a = plain.predict(lambda);
    const model::LatencyPrediction b = restated.predict(lambda);
    EXPECT_EQ(a.mean_latency, b.mean_latency) << lambda;
    EXPECT_EQ(a.stable, b.stable) << lambda;
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t i = 0; i < a.clusters.size(); ++i) {
      EXPECT_EQ(a.clusters[i].t_internal, b.clusters[i].t_internal);
      EXPECT_EQ(a.clusters[i].t_external, b.clusters[i].t_external);
    }
  }
}

// --- model vs simulator on genuinely heterogeneous systems ---------------

class HeteroModelVsSim
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(HeteroModelVsSim, RefinedModelTracksSimulatorAtLowLoad) {
  const topo::SystemConfig cfg = GetParam().second == 0
                                     ? mixed_tech_system()
                                     : hot_cluster_system();
  const model::NetworkParams params;
  const model::RefinedModel refined(cfg, params);
  const double lambda = 1e-4;  // far below the knee

  const topo::MultiClusterTopology topology(cfg);
  sim::Simulator simulator(topology, params, lambda,
                           sim_phases(2'000, 20'000));
  const sim::SimResult measured = simulator.run();
  ASSERT_FALSE(measured.saturated);

  const model::LatencyPrediction predicted = refined.predict(lambda);
  ASSERT_TRUE(predicted.stable);
  const double rel_err =
      std::abs(predicted.mean_latency - measured.latency.mean) /
      measured.latency.mean;
  EXPECT_LT(rel_err, 0.15) << "model " << predicted.mean_latency
                           << " vs sim " << measured.latency.mean;
}

INSTANTIATE_TEST_SUITE_P(
    MixedTechAndHotCluster, HeteroModelVsSim,
    ::testing::Values(std::make_pair("mixed_tech", 0),
                      std::make_pair("hot_cluster", 1)),
    [](const auto& suite_info) {
      return std::string(suite_info.param.first);
    });

TEST(HeteroParams, MixedTechnologyActuallyChangesTheSimulation) {
  const model::NetworkParams params;
  const topo::MultiClusterTopology plain(base_system());
  const topo::MultiClusterTopology mixed(mixed_tech_system());
  sim::Simulator sim_a(plain, params, 1e-4, sim_phases(500, 5'000));
  sim::Simulator sim_b(mixed, params, 1e-4, sim_phases(500, 5'000));
  // Slow clusters + long-haul backbone must show up in the mean.
  EXPECT_GT(sim_b.run().latency.mean, sim_a.run().latency.mean);
}

TEST(HeteroParams, LoadScaleShiftsPerClusterTraffic) {
  const model::NetworkParams params;
  const topo::MultiClusterTopology topology(hot_cluster_system());
  sim::Simulator simulator(topology, params, 1e-4,
                           sim_phases(1'000, 20'000));
  const sim::SimResult result = simulator.run();
  ASSERT_FALSE(result.saturated);
  ASSERT_EQ(result.per_cluster_count.size(), 4u);
  // Cluster 0 offers 5x the per-node load of clusters 1..3; its share of
  // measured messages must reflect that (2.5 / (2.5 + 3 * 0.5) = 62.5%).
  const double hot = static_cast<double>(result.per_cluster_count[0]);
  const double total = static_cast<double>(result.delivered_measured);
  EXPECT_NEAR(hot / total, 0.625, 0.02);
}

// --- guards and validation ----------------------------------------------

TEST(HeteroParams, PaperModelRejectsHeterogeneousConfigs) {
  const model::NetworkParams params;
  EXPECT_THROW(model::PaperModel(mixed_tech_system(), params), ConfigError);
  EXPECT_THROW(model::PaperModel(hot_cluster_system(), params), ConfigError);
  // All-1.0 load_scale and empty overrides are homogeneous: accepted.
  topo::SystemConfig trivial = base_system();
  trivial.load_scale.assign(4, 1.0);
  EXPECT_NO_THROW(model::PaperModel(trivial, params));
  EXPECT_TRUE(model::PaperModel::supports(trivial));

  // Each rejection names the condition that failed.
  const auto reason = [](const topo::SystemConfig& config) {
    const char* text = model::PaperModel::unsupported_reason(config);
    return std::string(text == nullptr ? "" : text);
  };
  EXPECT_NE(reason(mixed_tech_system()).find("cluster_net"),
            std::string::npos);
  EXPECT_NE(reason(hot_cluster_system()).find("load_scale"),
            std::string::npos);
  topo::SystemConfig torus = base_system();
  torus.icn2.kind = topo::Icn2Kind::kTorus;
  EXPECT_NE(reason(torus).find("graph topologies"), std::string::npos);
  EXPECT_FALSE(model::PaperModel::supports(torus));
}

TEST(HeteroParams, SystemConfigValidatesHeterogeneityFields) {
  topo::SystemConfig bad_count = base_system();
  bad_count.cluster_net.assign(3, {});  // 4 clusters
  bad_count.cluster_net[0].beta_net = 0.001;
  EXPECT_THROW(bad_count.validate(), ConfigError);

  topo::SystemConfig bad_scale_count = base_system();
  bad_scale_count.load_scale = {1.0, 2.0};
  EXPECT_THROW(bad_scale_count.validate(), ConfigError);

  topo::SystemConfig zero_scale = base_system();
  zero_scale.load_scale = {1.0, 1.0, 1.0, 0.0};
  EXPECT_THROW(zero_scale.validate(), ConfigError);

  topo::SystemConfig bad_beta = base_system();
  bad_beta.icn2_net.beta_net = 0.0;
  EXPECT_THROW(bad_beta.validate(), ConfigError);

  EXPECT_NO_THROW(mixed_tech_system().validate());
  EXPECT_NO_THROW(hot_cluster_system().validate());
}

// --- load-scale weighting in the flow models -----------------------------

TEST(HeteroParams, GraphLoadWeightsFlowByLoadScale) {
  topo::SystemConfig cfg = base_system();
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.load_scale = {2.0, 1.0, 1.0, 1.0};
  const topo::ChannelGraph graph = topo::make_icn2_graph(cfg);
  const model::GraphLoad load = model::GraphLoad::compute(graph, cfg);
  ASSERT_EQ(load.out_coeff.size(), 4u);
  // Equal sizes and p_out: cluster 0's outbound coefficient is exactly
  // twice its peers', and its injection channel carries exactly it.
  EXPECT_DOUBLE_EQ(load.out_coeff[0], 2.0 * load.out_coeff[1]);
  EXPECT_DOUBLE_EQ(load.out_coeff[1], load.out_coeff[2]);
  for (int i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(
        load.coeff[static_cast<std::size_t>(graph.injection_channel(
            static_cast<topo::EndpointId>(i)))],
        load.out_coeff[static_cast<std::size_t>(i)]);
}

TEST(HeteroParams, Icn2FunnelWeightsFlowByLoadScale) {
  topo::SystemConfig scaled = base_system();
  scaled.load_scale = {2.0, 1.0, 1.0, 1.0};
  const model::Icn2Funnel plain = model::Icn2Funnel::compute(base_system());
  const model::Icn2Funnel hot = model::Icn2Funnel::compute(scaled);
  EXPECT_DOUBLE_EQ(hot.out_coeff[0], 2.0 * plain.out_coeff[0]);
  EXPECT_DOUBLE_EQ(hot.out_coeff[1], plain.out_coeff[1]);
}

// --- scenario round-trip -------------------------------------------------

TEST(HeteroScenario, ParsesClusterAndIcn2ParamSections) {
  const exp::ScenarioSpec spec = exp::parse_scenario_string(R"(
    [sweep]
    loads = 1e-4
    [system mixed]
    preset = homogeneous
    m = 4
    height = 2
    clusters = 4
    [cluster.0]
    beta_net = 0.001
    load_scale = 2.0
    [cluster.3]
    alpha_sw = 0.02
    flit_bytes = 128
    [icn2_params]
    alpha_net = 0.04
    beta_net = 0.001
    [system plain]
    preset = homogeneous
    m = 4
    height = 2
    clusters = 4
  )");
  ASSERT_EQ(spec.systems.size(), 2u);
  const topo::SystemConfig& mixed = spec.systems[0].config;
  ASSERT_EQ(mixed.cluster_net.size(), 4u);
  EXPECT_DOUBLE_EQ(mixed.cluster_net[0].beta_net, 0.001);
  EXPECT_LT(mixed.cluster_net[0].alpha_net, 0.0);  // unset: inherits
  EXPECT_FALSE(mixed.cluster_net[1].any());
  EXPECT_FALSE(mixed.cluster_net[2].any());
  EXPECT_DOUBLE_EQ(mixed.cluster_net[3].alpha_sw, 0.02);
  EXPECT_DOUBLE_EQ(mixed.cluster_net[3].flit_bytes, 128.0);
  ASSERT_EQ(mixed.load_scale.size(), 4u);
  EXPECT_DOUBLE_EQ(mixed.load_scale[0], 2.0);
  EXPECT_DOUBLE_EQ(mixed.load_scale[1], 1.0);
  EXPECT_DOUBLE_EQ(mixed.icn2_net.alpha_net, 0.04);
  EXPECT_DOUBLE_EQ(mixed.icn2_net.beta_net, 0.001);
  EXPECT_TRUE(mixed.heterogeneous_params());
  EXPECT_TRUE(mixed.heterogeneous_load());

  // The following [system plain] was not polluted by the sub-sections.
  const topo::SystemConfig& plain = spec.systems[1].config;
  EXPECT_TRUE(plain.cluster_net.empty());
  EXPECT_TRUE(plain.load_scale.empty());
  EXPECT_FALSE(plain.icn2_net.any());
  EXPECT_FALSE(plain.heterogeneous_params());
}

TEST(HeteroScenario, BundledScenarioRunsEndToEnd) {
  exp::ScenarioSpec spec = exp::load_scenario(exp::default_scenario_dir() +
                                              "/hetero_technology.ini");
  spec.warmup = 300;
  spec.measured = 3'000;
  spec.loads = {1e-4};
  const exp::SweepResult result = exp::SweepRunner(std::move(spec)).run();

  ASSERT_EQ(result.rows.size(), 3u);
  for (const exp::SweepRow& row : result.rows) {
    EXPECT_TRUE(row.refined_run) << row.system_id;
    EXPECT_TRUE(row.refined_stable) << row.system_id;
    EXPECT_FALSE(row.paper_run) << row.system_id;  // models = refined
    EXPECT_EQ(row.completed, 1) << row.system_id;
    EXPECT_EQ(row.sim_state, 0) << row.system_id;
    const double rel_err =
        std::abs(row.refined_latency - row.sim_latency) / row.sim_latency;
    EXPECT_LT(rel_err, 0.2) << row.system_id;
  }
  EXPECT_EQ(result.rows[0].hetero, "uniform");
  EXPECT_EQ(result.rows[1].hetero, "net");
  EXPECT_EQ(result.rows[2].hetero, "load");
}

// --- all-saturated sweep rendering (replication satellite) ---------------

TEST(SweepSaturatedRendering, FullySaturatedRowsRenderAsSaturatedNotZero) {
  // A load far past the knee: every replication hits a saturation cap, so
  // the row must render as "saturated" — never as latency 0.00 +- 0.00.
  exp::ScenarioSpec spec = exp::parse_scenario_string(R"(
    [sweep]
    loads = 0.05
    measured = 2000
    warmup = 200
    replications = 2
    models = none
    sim = true
    [system s]
    preset = homogeneous
    m = 4
    height = 2
    clusters = 4
  )");
  const exp::SweepResult result = exp::SweepRunner(std::move(spec)).run();
  ASSERT_EQ(result.rows.size(), 1u);
  const exp::SweepRow& row = result.rows[0];
  EXPECT_EQ(row.completed, 0);
  EXPECT_EQ(row.saturated, 2);
  EXPECT_EQ(row.sim_state, 1);
  EXPECT_EQ(result.saturated_points, 1);

  const std::string table = exp::to_table(result).render();
  EXPECT_NE(table.find("saturated"), std::string::npos) << table;
  EXPECT_EQ(table.find("0.00"), std::string::npos) << table;

  std::ostringstream json;
  exp::write_json(result, json);
  EXPECT_EQ(json.str().find("\"sim_latency\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"sim_state\":1"), std::string::npos)
      << json.str();
}

}  // namespace
}  // namespace mcs
