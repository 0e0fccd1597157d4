// Latency anatomy vs model attribution (DESIGN.md §13).
//
// Three layers under test:
//  1. RefinedModel::breakdown() is EXACTLY consistent with predict(): the
//     per-station M/G/1 terms it reports are the same numbers predict()
//     folds into the cluster latencies (no second implementation allowed
//     to drift).
//  2. At low load the measured per-stage anatomy of a simulation matches
//     the breakdown's station terms (the per-stage analogue of the paper's
//     end-to-end validation): residence within 25% per station, wait gap
//     within 25% of the station residence.
//  3. exp::build_explain joins the two views, degrades to one-sided
//     reports, and serializes stable JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "exp/explain.hpp"
#include "model/refined_model.hpp"
#include "sim/simulator.hpp"

namespace mcs {
namespace {

topo::SystemConfig homogeneous_system() {
  return topo::SystemConfig::homogeneous(/*m=*/4, /*height=*/2,
                                         /*clusters=*/4);
}

topo::SystemConfig hetero_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

topo::SystemConfig torus_system() {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 8);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  return cfg;
}

TEST(ModelBreakdown, StationTermsExactlyMatchPredict) {
  // The fat-tree systems read the ICN2 leg from the pair-class table (16
  // homogeneous clusters collapse to a handful of classes); the torus
  // evaluates every pair. Both paths must agree with predict() bit for bit.
  for (const topo::SystemConfig& system :
       {homogeneous_system(), hetero_system(), torus_system(),
        topo::SystemConfig::homogeneous(/*m=*/4, /*height=*/2,
                                        /*clusters=*/16)}) {
    const model::RefinedModel refined(system, model::NetworkParams{});
    const auto total = static_cast<double>(system.total_nodes());
    for (double lambda : {1e-5, 5e-5, 2e-4}) {
      const model::LatencyPrediction p = refined.predict(lambda);
      const model::ModelBreakdown b = refined.breakdown(lambda);
      ASSERT_EQ(p.clusters.size(), b.clusters.size());
      EXPECT_EQ(b.stable, p.stable);
      for (std::size_t i = 0; i < p.clusters.size(); ++i) {
        const model::ClusterLatency& cl = p.clusters[i];
        const model::ClusterBreakdown& cb = b.clusters[i];
        EXPECT_EQ(cb.p_outgoing, cl.p_outgoing);
        // Source-side waits are the exact same M/G/1 evaluations.
        EXPECT_EQ(cb.stations[0].wait, cl.w_source_internal);
        EXPECT_EQ(cb.stations[1].wait, cl.w_source_external);
        // The v-averaged ICN2 leg: service and concentrator wait, plus
        // the destinations' dispatcher waits with predict()'s weights.
        EXPECT_EQ(cb.stations[1].s_mean + cb.stations[2].s_mean,
                  cl.s_external);
        const auto n_i = static_cast<double>(
            system.cluster_size(static_cast<int>(i)));
        double w_disp_avg = 0.0;
        for (std::size_t v = 0; v < p.clusters.size(); ++v) {
          if (v == i) continue;
          const auto n_v = static_cast<double>(
              system.cluster_size(static_cast<int>(v)));
          w_disp_avg += n_v / (total - n_i) * b.clusters[v].stations[3].wait;
        }
        EXPECT_EQ(cb.stations[2].wait + w_disp_avg, cl.w_conc_disp);
      }
    }
  }
}

TEST(ModelBreakdown, ConcPlusDispatcherReassembleWConcDisp) {
  // Homogeneous system: every destination cluster is identical, so
  // predict()'s v-averaged dispatcher wait equals any single cluster's
  // dispatcher term and w_conc_disp must reassemble exactly.
  const model::RefinedModel refined(homogeneous_system(),
                                    model::NetworkParams{});
  for (double lambda : {1e-5, 5e-5, 2e-4}) {
    const model::LatencyPrediction p = refined.predict(lambda);
    const model::ModelBreakdown b = refined.breakdown(lambda);
    for (std::size_t i = 0; i < p.clusters.size(); ++i) {
      const std::size_t v = i == 0 ? 1 : 0;  // any destination != i
      EXPECT_DOUBLE_EQ(
          b.clusters[i].stations[2].wait + b.clusters[v].stations[3].wait,
          p.clusters[i].w_conc_disp);
    }
  }
}

TEST(ModelBreakdown, SystemAggregatesAndBottleneck) {
  const model::RefinedModel refined(hetero_system(), model::NetworkParams{});
  const model::ModelBreakdown b = refined.breakdown(5e-5);
  ASSERT_TRUE(b.stable);
  for (int k = 0; k < model::kBreakdownStations; ++k) {
    ASSERT_TRUE(b.system[k].present) << model::breakdown_station_name(k);
    EXPECT_TRUE(b.system[k].stable);
    EXPECT_GT(b.system[k].lambda, 0.0);
    EXPECT_GT(b.system[k].s_mean, 0.0);
    EXPECT_GE(b.system[k].wait, 0.0);
    EXPECT_GT(b.system[k].rho, 0.0);
    EXPECT_LT(b.system[k].rho, 1.0);
  }
  const int bottleneck = b.bottleneck_station();
  ASSERT_GE(bottleneck, 0);
  for (int k = 0; k < model::kBreakdownStations; ++k)
    EXPECT_GE(b.system[bottleneck].rho, b.system[k].rho);

  // Station names line up with the obs convention so the joined report
  // never mislabels a row.
  for (int k = 0; k < model::kBreakdownStations; ++k)
    EXPECT_STREQ(model::breakdown_station_name(k), obs::station_name(k));
}

TEST(ModelBreakdown, UnstableLoadIsFlaggedPerStation) {
  // Far past saturation: the breakdown must mark the overloaded stations
  // unstable (mirroring predict()'s stable=false) instead of reporting
  // finite waits.
  const model::RefinedModel refined(hetero_system(), model::NetworkParams{});
  const double lambda = 5e-2;
  const model::LatencyPrediction p = refined.predict(lambda);
  const model::ModelBreakdown b = refined.breakdown(lambda);
  EXPECT_FALSE(p.stable);
  EXPECT_FALSE(b.stable);
  bool any_unstable = false;
  for (int k = 0; k < model::kBreakdownStations; ++k)
    any_unstable = any_unstable || !b.system[k].stable;
  EXPECT_TRUE(any_unstable);
}

/// Run one low-load simulation with an anatomy attached and return it
/// together with the matching breakdown.
struct JoinedPoint {
  obs::LatencyAnatomy anatomy;
  model::ModelBreakdown breakdown;
};

JoinedPoint measure_point(const topo::SystemConfig& system, double lambda,
                          sim::FlowControl flow) {
  JoinedPoint point;
  sim::SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = 2'000;
  cfg.measured_messages = 20'000;
  cfg.flow_control = flow;
  cfg.anatomy = &point.anatomy;
  topo::MultiClusterTopology topology(system);
  sim::Simulator sim(topology, model::NetworkParams{}, lambda, cfg);
  const sim::SimResult result = sim.run();
  EXPECT_FALSE(result.saturated);
  const model::RefinedModel refined(system, model::NetworkParams{}, {},
                                    flow);
  point.breakdown = refined.breakdown(lambda);
  return point;
}

TEST(AnatomyVsModel, LowLoadPerStageAgreementWithin25Percent) {
  for (const sim::FlowControl flow :
       {sim::FlowControl::kWormhole, sim::FlowControl::kStoreAndForward}) {
    const JoinedPoint point =
        measure_point(hetero_system(), /*lambda=*/5e-5, flow);
    ASSERT_TRUE(point.breakdown.stable);
    for (int k = 0; k < obs::kStations; ++k) {
      const obs::StationMeasure st = point.anatomy.station(k);
      const model::StationTerm& term = point.breakdown.system[k];
      ASSERT_TRUE(term.present) << obs::station_name(k);
      const double model_residence = term.residence();
      ASSERT_GT(model_residence, 0.0);
      const double measured_residence = st.mean_wait + st.mean_service;
      EXPECT_NEAR(measured_residence, model_residence,
                  0.25 * model_residence)
          << obs::station_name(k) << " flow " << static_cast<int>(flow);
      EXPECT_LE(std::abs(st.mean_wait - term.wait), 0.25 * model_residence)
          << obs::station_name(k) << " flow " << static_cast<int>(flow);
    }
  }
}

TEST(Explain, JoinedReportFlagsDivergenceAndBottleneck) {
  const JoinedPoint point = measure_point(hetero_system(), 5e-5,
                                          sim::FlowControl::kWormhole);
  const exp::ExplainReport report = exp::build_explain(
      "test_point", 5e-5, &point.anatomy, &point.breakdown);
  EXPECT_TRUE(report.has_measured);
  EXPECT_TRUE(report.has_model);
  EXPECT_EQ(report.messages, point.anatomy.messages());
  ASSERT_GE(report.bottleneck_station, 0);
  ASSERT_GE(report.worst_station, 0);
  for (int k = 0; k < obs::kStations; ++k) {
    const exp::ExplainStation& st = report.stations[k];
    EXPECT_EQ(st.station, k);
    EXPECT_TRUE(st.has_measured);
    EXPECT_TRUE(st.has_model);
    ASSERT_TRUE(st.joined);
    EXPECT_LE(st.residence_divergence, 0.25);
    EXPECT_GE(report.stations[report.worst_station].residence_divergence,
              st.residence_divergence);
  }
  // bottleneck = argmax measured rho-hat.
  for (int k = 0; k < obs::kStations; ++k)
    EXPECT_GE(report.stations[report.bottleneck_station].measured_rho,
              report.stations[k].measured_rho);
  EXPECT_FALSE(report.hot_channels.empty());
}

TEST(Explain, ModelOnlyReportNamesModelBottleneck) {
  const model::RefinedModel refined(hetero_system(), model::NetworkParams{});
  const model::ModelBreakdown b = refined.breakdown(5e-5);
  const exp::ExplainReport report =
      exp::build_explain("model_only", 5e-5, nullptr, &b);
  EXPECT_FALSE(report.has_measured);
  EXPECT_TRUE(report.has_model);
  EXPECT_EQ(report.worst_station, -1);
  EXPECT_EQ(report.bottleneck_station, b.bottleneck_station());
  for (int k = 0; k < obs::kStations; ++k) {
    EXPECT_FALSE(report.stations[k].has_measured);
    EXPECT_FALSE(report.stations[k].joined);
  }
}

TEST(Explain, SimOnlyReportRanksMeasuredStations) {
  const JoinedPoint point = measure_point(hetero_system(), 5e-5,
                                          sim::FlowControl::kWormhole);
  const exp::ExplainReport report =
      exp::build_explain("sim_only", 5e-5, &point.anatomy, nullptr);
  EXPECT_TRUE(report.has_measured);
  EXPECT_FALSE(report.has_model);
  EXPECT_EQ(report.worst_station, -1);
  ASSERT_GE(report.bottleneck_station, 0);
  EXPECT_GT(report.messages, 0u);
}

TEST(Explain, EmptyReportIsInert) {
  const exp::ExplainReport report =
      exp::build_explain("empty", 1e-4, nullptr, nullptr);
  EXPECT_FALSE(report.has_measured);
  EXPECT_FALSE(report.has_model);
  EXPECT_EQ(report.bottleneck_station, -1);
  EXPECT_EQ(report.worst_station, -1);
}

TEST(Explain, JsonCarriesRequiredKeysInBothModes) {
  const JoinedPoint point = measure_point(hetero_system(), 5e-5,
                                          sim::FlowControl::kWormhole);
  const exp::ExplainReport joined = exp::build_explain(
      "json_point", 5e-5, &point.anatomy, &point.breakdown);
  std::ostringstream out;
  exp::write_explain_json(joined, out);
  const std::string json = out.str();
  for (const char* key :
       {"\"lambda\"", "\"has_measured\"", "\"has_model\"",
        "\"bottleneck_station\"", "\"worst_station\"", "\"stations\"",
        "\"measured_wait\"", "\"model_wait\"", "\"residence_divergence\"",
        "\"hot_channels\"", "\"conservation\"", "\"messages\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // The bottleneck is emitted by station NAME (CI greps for it).
  EXPECT_NE(json.find(obs::station_name(joined.bottleneck_station)),
            std::string::npos);

  const exp::ExplainReport model_only =
      exp::build_explain("model_only", 5e-5, nullptr, &point.breakdown);
  std::ostringstream out2;
  exp::write_explain_json(model_only, out2);
  const std::string json2 = out2.str();
  EXPECT_NE(json2.find("\"bottleneck_station\""), std::string::npos);
  EXPECT_NE(json2.find("\"has_measured\":false"), std::string::npos);
  EXPECT_EQ(json2.find("\"measured_wait\""), std::string::npos);
}

TEST(Explain, RenderNamesEveryStation) {
  const JoinedPoint point = measure_point(hetero_system(), 5e-5,
                                          sim::FlowControl::kWormhole);
  const exp::ExplainReport report = exp::build_explain(
      "render_point", 5e-5, &point.anatomy, &point.breakdown);
  const std::string text = exp::render_explain(report);
  for (int k = 0; k < obs::kStations; ++k)
    EXPECT_NE(text.find(obs::station_name(k)), std::string::npos)
        << obs::station_name(k);
  EXPECT_NE(text.find("bottleneck station"), std::string::npos);
  EXPECT_NE(text.find("conservation"), std::string::npos);
}

}  // namespace
}  // namespace mcs
