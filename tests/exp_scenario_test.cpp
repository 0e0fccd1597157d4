#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace mcs::exp {
namespace {

const char* kFullSpec = R"(
# A fully-specified scenario exercising every section and key.
[sweep]
name          = full
seed          = 99
replications  = 3
warmup        = 500
measured      = 4000
message_flits = 32, 64
flit_bytes    = 256, 512
loads         = 1e-5, 2e-5
models        = paper, refined
sim           = true
knee          = true
relay         = store_forward, cut_through
flow          = wormhole, store_and_forward
alpha_net     = 0.03
alpha_sw      = 0.02
beta_net      = 0.004

[system tiny]
m       = 4
heights = 1, 1

[system homog]
preset   = homogeneous
m        = 4
height   = 2
clusters = 3

[system org_a]
preset = table1_org_a

[pattern uniform]
kind = uniform

[pattern local]
kind           = local_favor
local_fraction = 0.7   ; inline comment

[pattern hot]
kind             = hotspot
hotspot_fraction = 0.1
hotspot_node     = 2

[pattern tornado]
kind          = cluster_permutation
cluster_shift = 2
)";

TEST(Scenario, ParsesEverySectionAndKey) {
  const ScenarioSpec spec = parse_scenario_string(kFullSpec);
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.replications, 3);
  EXPECT_EQ(spec.warmup, 500);
  EXPECT_EQ(spec.measured, 4000);
  ASSERT_EQ(spec.message_flits.size(), 2u);
  EXPECT_EQ(spec.message_flits[1], 64);
  ASSERT_EQ(spec.flit_bytes.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.flit_bytes[1], 512);
  ASSERT_EQ(spec.loads.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.loads[0], 1e-5);
  EXPECT_TRUE(spec.run_sim);
  EXPECT_TRUE(spec.run_paper_model);
  EXPECT_TRUE(spec.run_refined_model);
  EXPECT_TRUE(spec.find_knee);
  ASSERT_EQ(spec.relay_modes.size(), 2u);
  EXPECT_EQ(spec.relay_modes[1], sim::RelayMode::kCutThrough);
  ASSERT_EQ(spec.flow_controls.size(), 2u);
  EXPECT_EQ(spec.flow_controls[1], sim::FlowControl::kStoreAndForward);
  EXPECT_DOUBLE_EQ(spec.base_params.alpha_net, 0.03);
  EXPECT_DOUBLE_EQ(spec.base_params.alpha_sw, 0.02);
  EXPECT_DOUBLE_EQ(spec.base_params.beta_net, 0.004);

  ASSERT_EQ(spec.systems.size(), 3u);
  EXPECT_EQ(spec.systems[0].id, "tiny");
  EXPECT_EQ(spec.systems[0].config.m, 4);
  EXPECT_EQ(spec.systems[0].config.cluster_heights,
            (std::vector<int>{1, 1}));
  EXPECT_EQ(spec.systems[1].config.cluster_count(), 3);
  EXPECT_EQ(spec.systems[2].config, topo::SystemConfig::table1_org_a());

  ASSERT_EQ(spec.patterns.size(), 4u);
  EXPECT_EQ(spec.patterns[1].pattern.kind, sim::PatternKind::kLocalFavor);
  EXPECT_DOUBLE_EQ(spec.patterns[1].pattern.local_fraction, 0.7);
  EXPECT_EQ(spec.patterns[2].pattern.hotspot_node, 2);
  EXPECT_EQ(spec.patterns[3].pattern.kind,
            sim::PatternKind::kClusterPermutation);
  EXPECT_EQ(spec.patterns[3].pattern.cluster_shift, 2);

  // 3 systems x 2 flits x 2 bytes x 4 patterns x 2 relays x 2 flows x
  // 2 loads.
  EXPECT_EQ(spec.grid_size(), 3 * 2 * 2 * 4 * 2 * 2 * 2);
}

TEST(Scenario, DefaultsApplyWhenKeysOmitted) {
  const ScenarioSpec spec = parse_scenario_string(R"(
[sweep]
loads = 1e-4

[system s]
preset = homogeneous
m = 4
height = 1
clusters = 2
)");
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.replications, 1);
  EXPECT_EQ(spec.message_flits, (std::vector<int>{32}));
  EXPECT_EQ(spec.flit_bytes, (std::vector<double>{256}));
  EXPECT_TRUE(spec.patterns.empty());  // implicit uniform
  ASSERT_EQ(spec.relay_modes.size(), 1u);
  EXPECT_EQ(spec.relay_modes[0], sim::RelayMode::kStoreForward);
  EXPECT_EQ(spec.grid_size(), 1);
}

TEST(Scenario, LoadGridExpandsLikeTheBenchHarness) {
  const ScenarioSpec spec = parse_scenario_string(R"(
[sweep]
load_grid = 1e-4 : 3

[system s]
m = 4
heights = 1, 1
)");
  // {s/4, s/2, s, 2s, 3s}
  ASSERT_EQ(spec.loads.size(), 5u);
  EXPECT_DOUBLE_EQ(spec.loads[0], 0.25e-4);
  EXPECT_DOUBLE_EQ(spec.loads[1], 0.5e-4);
  EXPECT_DOUBLE_EQ(spec.loads[2], 1e-4);
  EXPECT_DOUBLE_EQ(spec.loads[4], 3e-4);
}

TEST(Scenario, ParsesSearchBlockAndFindSaturation) {
  const ScenarioSpec spec = parse_scenario_string(R"(
[sweep]
loads = 1e-4
find_saturation = true

[search]
rel_precision = 0.08
r_min = 3
r_max = 9
warmup = off
rel_tol = 0.03
blowup = 4.5

[system s]
m = 4
heights = 1, 1
)");
  EXPECT_TRUE(spec.find_sim_saturation);
  EXPECT_DOUBLE_EQ(spec.search.seq.rel_precision, 0.08);
  EXPECT_EQ(spec.search.seq.r_min, 3);
  EXPECT_EQ(spec.search.seq.r_max, 9);
  EXPECT_EQ(spec.search_warmup, sim::WarmupDeletion::kOff);
  EXPECT_DOUBLE_EQ(spec.search.rel_tol, 0.03);
  EXPECT_DOUBLE_EQ(spec.search.latency_blowup, 4.5);
}

TEST(Scenario, SearchBlockAloneDoesNotEnableTheSearch) {
  // [search] configures; enabling is an explicit [sweep] key or the CLI
  // flag (so a tuned block in a checked-in scenario costs nothing until
  // asked for).
  const ScenarioSpec spec = parse_scenario_string(R"(
[sweep]
loads = 1e-4

[search]
r_max = 9

[system s]
m = 4
heights = 1, 1
)");
  EXPECT_FALSE(spec.find_sim_saturation);
  EXPECT_EQ(spec.search.seq.r_max, 9);
  // Defaults for untouched [search] keys are SaturationSearchConfig's
  // own (the spec stores that struct directly, so they cannot drift).
  EXPECT_EQ(spec.search_warmup, sim::WarmupDeletion::kMser5);
  EXPECT_DOUBLE_EQ(spec.search.latency_blowup,
                   SaturationSearchConfig{}.latency_blowup);
}

TEST(Scenario, RejectsMalformedSearchBlocks) {
  const std::string tail = "\n[system s]\nm = 4\nheights = 1, 1\n";
  const std::string head = "[sweep]\nloads = 1e-4\n";
  // Unknown [search] key (with suggestions machinery downstream).
  EXPECT_THROW(
      parse_scenario_string(head + "[search]\nrel_prec = 0.1\n" + tail),
      ConfigError);
  // Unknown warmup mode.
  EXPECT_THROW(
      parse_scenario_string(head + "[search]\nwarmup = mser\n" + tail),
      ConfigError);
  // Duplicate [search] section.
  EXPECT_THROW(parse_scenario_string(
                   head + "[search]\nr_min = 2\n[search]\nr_min = 3\n" + tail),
               ConfigError);
  // Out-of-range control values.
  EXPECT_THROW(
      parse_scenario_string(head + "[search]\nr_min = 0\n" + tail),
      ConfigError);
  EXPECT_THROW(parse_scenario_string(
                   head + "[search]\nr_min = 5\nr_max = 4\n" + tail),
               ConfigError);
  EXPECT_THROW(
      parse_scenario_string(head + "[search]\nrel_precision = 0\n" + tail),
      ConfigError);
  EXPECT_THROW(
      parse_scenario_string(head + "[search]\nblowup = 1\n" + tail),
      ConfigError);
}

TEST(Scenario, RejectsMalformedSpecs) {
  const std::string valid_tail = R"(
[system s]
m = 4
heights = 1, 1
)";
  // No loads at all.
  EXPECT_THROW(parse_scenario_string("[sweep]\nname = x\n" + valid_tail),
               ConfigError);
  // No [system] section.
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n"),
               ConfigError);
  // Key before any section.
  EXPECT_THROW(parse_scenario_string("loads = 1e-4\n" + valid_tail),
               ConfigError);
  // Unknown sweep key.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nbogus = 1\n" + valid_tail),
               ConfigError);
  // Unknown section.
  EXPECT_THROW(parse_scenario_string("[nonsense]\nx = 1\n"), ConfigError);
  // Unterminated section header.
  EXPECT_THROW(parse_scenario_string("[sweep\nloads = 1e-4\n" + valid_tail),
               ConfigError);
  // Line without '='.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads 1e-4\n" + valid_tail),
               ConfigError);
  // Non-numeric load.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = abc\n" + valid_tail),
               ConfigError);
  // Malformed load_grid.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nload_grid = 1e-4\n" + valid_tail),
               ConfigError);
  // Negative replications.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nreplications = -2\n" + valid_tail),
               ConfigError);
  // Unknown model / relay / flow / pattern kind.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nmodels = quantum\n" + valid_tail),
               ConfigError);
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nrelay = teleport\n" + valid_tail),
               ConfigError);
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nflow = psychic\n" + valid_tail),
               ConfigError);
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n" + valid_tail +
                                     "[pattern p]\nkind = zigzag\n"),
               ConfigError);
  // Pattern without kind.
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n" + valid_tail +
                                     "[pattern p]\nlocal_fraction = 0.5\n"),
               ConfigError);
  // Duplicate system / pattern ids.
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n" + valid_tail +
                                     valid_tail),
               ConfigError);
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n" + valid_tail +
                                     "[pattern p]\nkind = uniform\n"
                                     "[pattern p]\nkind = uniform\n"),
               ConfigError);
  // Repeated list key (would silently multiply the grid).
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n"
                                     "message_flits = 32\n"
                                     "message_flits = 64\n" +
                                     valid_tail),
               ConfigError);
  // System without shape.
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n[system s]\n"
                                     "m = 4\n"),
               ConfigError);
  // Unknown preset.
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n[system s]\n"
                                     "preset = table2\n"),
               ConfigError);
  // Invalid topology (odd arity) is caught by validate().
  EXPECT_THROW(parse_scenario_string("[sweep]\nloads = 1e-4\n[system s]\n"
                                     "m = 3\nheights = 1, 1\n"),
               ConfigError);
  // Nothing to evaluate.
  EXPECT_THROW(parse_scenario_string(
                   "[sweep]\nloads = 1e-4\nmodels = none\nsim = false\n" +
                   valid_tail),
               ConfigError);
}

TEST(Scenario, ValidateRejectsBadFieldRanges) {
  ScenarioSpec spec = parse_scenario_string(
      "[sweep]\nloads = 1e-4\n[system s]\nm = 4\nheights = 1, 1\n");
  spec.loads = {-1e-4};
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.loads = {1e-4};
  spec.measured = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec.measured = 100;
  spec.flit_bytes = {};
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(Scenario, ErrorsNameSourceAndLine) {
  try {
    (void)parse_scenario_string("[sweep]\nbogus = 1\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, KneeLoadsParseAsFractions) {
  const ScenarioSpec spec = parse_scenario_string(
      "[sweep]\nknee_loads = 0.25, 0.5\n[system a]\npreset = "
      "table1_org_a\n");
  EXPECT_TRUE(spec.knee_relative_loads);
  ASSERT_EQ(spec.loads.size(), 2u);
  EXPECT_EQ(spec.loads[0], 0.25);
  EXPECT_EQ(spec.loads[1], 0.5);
  EXPECT_EQ(spec.grid_size(), 2);
}

TEST(Scenario, CheckedInScenariosParse) {
  // Every spec shipped under scenarios/ must stay loadable.
  for (const char* name :
       {"table1", "fig3_m32", "fig3_m64", "fig4_m32", "fig4_m64",
        "traffic_patterns", "model_ablation", "relay_ablation",
        "flow_control", "heterogeneity"}) {
    const std::string path =
        std::string(MCS_SCENARIO_DIR) + "/" + name + ".ini";
    EXPECT_NO_THROW({
      const ScenarioSpec spec = load_scenario(path);
      EXPECT_GT(spec.grid_size(), 0) << path;
    }) << path;
  }
}

}  // namespace
}  // namespace mcs::exp
