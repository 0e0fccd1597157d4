// Property tests for exp::SaturationSearch (DESIGN.md §11): on small
// randomized configurations the simulation-side knee must land in a
// documented tolerance band around model::find_saturation's analytical
// knee, loads below the returned lambda_sat must complete unsaturated,
// and 1.2x the returned lambda_sat must classify as saturated under the
// search's own predicate. Everything is fixed-seed and deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exp/saturation_search.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "support/fixed_replications.hpp"
#include "util/error.hpp"

namespace mcs::exp {
namespace {

struct Case {
  const char* name;
  topo::SystemConfig system;
  model::NetworkParams params;
};

std::vector<Case> small_cases() {
  std::vector<Case> cases;
  {
    Case c{"homogeneous_4_2_3",
           topo::SystemConfig::homogeneous(4, 2, 3),
           {}};
    cases.push_back(c);
  }
  {
    Case c{"uneven_tree", {}, {}};
    c.system.m = 4;
    c.system.cluster_heights = {2, 2, 3};
    cases.push_back(c);
  }
  {
    Case c{"slow_network", topo::SystemConfig::homogeneous(4, 2, 4), {}};
    c.params.beta_net = 0.004;  // 4x slower links
    cases.push_back(c);
  }
  return cases;
}

/// Probe phases kept small: a probe classifies saturated/stable, it does
/// not need tight latency estimates.
sim::SimConfig probe_config(std::uint64_t seed = 20060814) {
  sim::SimConfig cfg;
  cfg.seed = seed;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2'000;
  cfg.warmup_deletion = sim::WarmupDeletion::kMser5;
  return cfg;
}

SaturationSearchConfig search_config() {
  SaturationSearchConfig cfg;
  cfg.seq.r_min = 2;
  cfg.seq.r_max = 5;
  cfg.seq.rel_precision = 0.2;
  cfg.rel_tol = 0.08;
  return cfg;
}

/// The search's saturation predicate, restated for independent checks:
/// all saturated, r_min saturated (the sequential layer's own decisive
/// termination count), majority saturated, or latency blown up over the
/// reference.
bool predicate_saturated(const sim::ReplicationResult& r, double reference,
                         double blowup, int r_min) {
  if (r.all_saturated) return true;
  if (r.saturated >= r_min) return true;
  if (2 * r.saturated > r.replications) return true;
  return reference > 0.0 && r.latency.mean > blowup * reference;
}

TEST(SaturationSearch, AgreesWithModelWithinToleranceBand) {
  // Documented tolerance band vs the refined model's analytical knee:
  // ratio in [0.5, 2.5]. The simulator's knee is genuinely different
  // from the model's (the model saturates its queue approximations
  // before the flow bound; short probe windows detect blowup late), and
  // the band is wide on purpose — the value under test is that the
  // closed-loop search lands on the same ORDER, for every topology,
  // without any hand-tuned lambda grid.
  for (const Case& c : small_cases()) {
    const topo::MultiClusterTopology topology(c.system);
    const model::RefinedModel refined(c.system, c.params, {},
                                      model::FlowControl::kWormhole);
    const double model_sat = model::find_saturation(refined).lambda_sat;
    ASSERT_GT(model_sat, 0.0) << c.name;

    const SaturationSearch search(topology, c.params, probe_config(),
                                  search_config());
    const SaturationSearchResult r = search.run(model_sat);
    EXPECT_GT(r.lambda_sat, 0.0) << c.name;
    EXPECT_DOUBLE_EQ(r.model_lambda_sat, model_sat) << c.name;
    EXPECT_GE(r.ratio, 0.5) << c.name << ": sim knee " << r.lambda_sat
                            << " vs model " << model_sat;
    EXPECT_LE(r.ratio, 2.5) << c.name << ": sim knee " << r.lambda_sat
                            << " vs model " << model_sat;
    EXPECT_LE(r.probes, search_config().max_probes) << c.name;
    EXPECT_EQ(r.probes, static_cast<int>(r.trace.size())) << c.name;
    EXPECT_GT(r.reference_latency, 0.0) << c.name;
  }
}

TEST(SaturationSearch, LoadsBelowTheKneeCompleteUnsaturated) {
  for (const Case& c : small_cases()) {
    const topo::MultiClusterTopology topology(c.system);
    const model::RefinedModel refined(c.system, c.params, {},
                                      model::FlowControl::kWormhole);
    const SaturationSearchConfig cfg = search_config();
    const SaturationSearch search(topology, c.params, probe_config(), cfg);
    const SaturationSearchResult r =
        search.run(model::find_saturation(refined).lambda_sat);
    ASSERT_GT(r.lambda_sat, 0.0) << c.name;

    // Independent replications (fresh seed stream) below the knee: never
    // saturated, latency comfortably under the blowup threshold.
    for (const double f : {0.5, 0.8}) {
      const auto below = sim::testsupport::run_fixed_replications(
          topology, c.params, f * r.lambda_sat, probe_config(/*seed=*/7), 2);
      EXPECT_EQ(below.saturated, 0)
          << c.name << " at " << f << "x lambda_sat";
      EXPECT_FALSE(predicate_saturated(below, r.reference_latency,
                                       cfg.latency_blowup, cfg.seq.r_min))
          << c.name << " at " << f << "x lambda_sat";
    }
  }
}

TEST(SaturationSearch, TwentyPercentPastTheKneeSaturates) {
  for (const Case& c : small_cases()) {
    const topo::MultiClusterTopology topology(c.system);
    const model::RefinedModel refined(c.system, c.params, {},
                                      model::FlowControl::kWormhole);
    const SaturationSearchConfig cfg = search_config();
    const SaturationSearch search(topology, c.params, probe_config(), cfg);
    const SaturationSearchResult r =
        search.run(model::find_saturation(refined).lambda_sat);
    ASSERT_GT(r.lambda_sat, 0.0) << c.name;

    sim::SequentialSpec seq = cfg.seq;
    const auto past = sim::run_replications_sequential(
        topology, c.params, 1.2 * r.lambda_sat, probe_config(/*seed=*/7),
        seq);
    EXPECT_TRUE(predicate_saturated(past, r.reference_latency,
                                    cfg.latency_blowup, cfg.seq.r_min))
        << c.name << ": lambda_sat " << r.lambda_sat << " latency "
        << past.latency.mean << " reference " << r.reference_latency;
  }
}

TEST(SaturationSearch, DeterministicAcrossRuns) {
  const Case c = small_cases().front();
  const topo::MultiClusterTopology topology(c.system);
  const SaturationSearch search(topology, c.params, probe_config(),
                                search_config());
  const SaturationSearchResult a = search.run(/*model_lambda_sat=*/1e-3);
  const SaturationSearchResult b = search.run(/*model_lambda_sat=*/1e-3);
  EXPECT_EQ(a.lambda_sat, b.lambda_sat);
  EXPECT_EQ(a.probes, b.probes);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].lambda, b.trace[i].lambda);
    EXPECT_EQ(a.trace[i].saturated, b.trace[i].saturated);
  }
}

TEST(SaturationSearch, FallsBackToConcentratorEstimateWithoutAModel) {
  // model_lambda_sat <= 0: the closed-form estimate seeds the bracket and
  // becomes the ratio denominator.
  const Case c = small_cases().front();
  const topo::MultiClusterTopology topology(c.system);
  const SaturationSearch search(topology, c.params, probe_config(),
                                search_config());
  const SaturationSearchResult r = search.run(-1.0);
  EXPECT_DOUBLE_EQ(
      r.model_lambda_sat,
      model::concentrator_saturation_estimate(c.system, c.params));
  EXPECT_GT(r.lambda_sat, 0.0);
}

TEST(SaturationSearch, RejectsBadConfigs) {
  const Case c = small_cases().front();
  const topo::MultiClusterTopology topology(c.system);
  SaturationSearchConfig bad = search_config();
  bad.rel_tol = 0.0;
  EXPECT_THROW(SaturationSearch(topology, c.params, probe_config(), bad),
               ConfigError);
  bad = search_config();
  bad.latency_blowup = 1.0;
  EXPECT_THROW(SaturationSearch(topology, c.params, probe_config(), bad),
               ConfigError);
  bad = search_config();
  bad.seq.r_min = 0;
  EXPECT_THROW(SaturationSearch(topology, c.params, probe_config(), bad),
               ConfigError);
}

}  // namespace
}  // namespace mcs::exp
