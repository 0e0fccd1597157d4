#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/scenario_cli.hpp"
#include "exp/sweep.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

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

// The ICN2 word picks the generator and the wrap it implies: a mesh is
// the torus generator without wrap.
TEST(Scenario, Icn2WordsImplyTheWrap) {
  const auto icn2 = [](const std::string& word) {
    return parse_scenario_string(
               "[sweep]\nloads = 1e-4\n[system s]\npreset = table1_org_a\n"
               "icn2 = " +
               word + "\n")
        .systems[0]
        .config.icn2;
  };
  EXPECT_EQ(icn2("mesh").kind, topo::Icn2Kind::kTorus);
  EXPECT_FALSE(icn2("mesh").torus_wrap);
  EXPECT_EQ(icn2("torus").kind, topo::Icn2Kind::kTorus);
  EXPECT_TRUE(icn2("torus").torus_wrap);
  EXPECT_EQ(icn2("fat-tree").kind, topo::Icn2Kind::kFatTree);
  EXPECT_EQ(icn2("random").kind, topo::Icn2Kind::kRandomRegular);
  EXPECT_THROW((void)icn2("hypercube"), ConfigError);
}

// Output prints each relay and flow value's canonical scenario word.
TEST(Scenario, CanonicalWordsNameRelayAndFlow) {
  EXPECT_STREQ(to_string(sim::RelayMode::kStoreForward), "store_forward");
  EXPECT_STREQ(to_string(sim::RelayMode::kCutThrough), "cut_through");
  EXPECT_STREQ(to_string(sim::FlowControl::kWormhole), "wormhole");
  EXPECT_STREQ(to_string(sim::FlowControl::kStoreAndForward),
               "store_and_forward");
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

/// SHA-256 over everything a bundled scenario resolves to: the sweep
/// digest of every planned row (with the [search] block hashed, since
/// find_sim_saturation is forced on) plus the fields the digest leaves
/// out — the system and pattern ids that label rows, and the [observe]
/// probe and trace configs.
std::string resolved_scenario_sha(ScenarioSpec spec) {
  std::string text;
  for (const SystemEntry& s : spec.systems) text += "system " + s.id + "\n";
  for (const PatternEntry& p : spec.patterns) text += "pattern " + p.id + "\n";
  char observe[128];
  std::snprintf(observe, sizeof(observe), "observe %a %zu %lld %zu\n",
                spec.probe.interval, spec.probe.max_samples,
                static_cast<long long>(spec.trace.sample_every),
                spec.trace.max_events);
  text += observe;
  spec.find_sim_saturation = true;
  for (const std::string& digest : SweepRunner(spec).plan("pin").digests)
    text += digest + "\n";
  return util::sha256_hex(text);
}

// Every bundled scenario resolves to the same spec it always has: a
// change to the parser (or to a file under scenarios/) that moves any
// grid point, search knob, label or observe knob changes a pin.
TEST(Scenario, BundledScenariosResolveToPinnedSpecs) {
  struct Pin {
    const char* path;  ///< relative to the source root
    const char* name;
    const char* sha256;
  };
  const Pin pins[] = {
      {"scenarios/fig3_m32.ini", "fig3_m32",
       "76ad59fa022b3503d6ca1bd9d5e1bf72ce61edbc8b11816d346a22cd4d88e488"},
      {"scenarios/fig3_m64.ini", "fig3_m64",
       "7fbfd45a56809498843458dfeac7437240506b5381f9948af7abd9b741fcb55f"},
      {"scenarios/fig4_m32.ini", "fig4_m32",
       "f15242ed503a9273ea4edfc3c3c4324320ce7adbedf188500293920885c41ead"},
      {"scenarios/fig4_m64.ini", "fig4_m64",
       "ed6b06e608c4b5a7fa801d6ad961ad60ea7d724973c3c2c0d33786833ac4f0cd"},
      {"scenarios/flow_control.ini", "flow_control",
       "cf41d6a075d0c213350eba8be67a4c1db8d5c5f0520ae02b91bc708fdbb39546"},
      {"scenarios/hetero_technology.ini", "hetero_technology",
       "bd9883a00e0281a849083fab3b6436daf1d383878942a5fa7d44a76060448b6b"},
      {"scenarios/heterogeneity.ini", "heterogeneity",
       "41ee78bb500f71d1ebf4d428a65f5c690ee04e63705ef5b40c42dfc69bcfbe88"},
      {"scenarios/icn2_topologies.ini", "icn2_topologies",
       "678a2346dccd94cc36eb34ddc177fc6c6abbd1b0b94668659afeb31aeff0c500"},
      {"scenarios/model_ablation.ini", "model_ablation",
       "00fad5e87b0289be00ed7e93c1cc50a819dd47c3a228f559123746ab7f8c3891"},
      {"scenarios/relay_ablation.ini", "relay_ablation",
       "fa39747ac59d8ed6c6e001a538052f978de294bf3be384d4cc7245440abb3ace"},
      {"scenarios/smoke.ini", "smoke",
       "923d4cbb8da17aba6cc41cb314c3f021f8eb416a512fa5f48eda8ef47f4919e3"},
      {"scenarios/table1.ini", "table1",
       "eb4302052f78fe7e7d84646dcf042ea331130c961a189bb12cba54069c5a203d"},
      {"scenarios/traffic_patterns.ini", "traffic_patterns",
       "904b285e0c62206668d78a2e55f780b3ba8e3cf23bf6ecabcc51d9bb734f31a0"},
      {"perfbench/scenarios/model_campaign.ini", "model_campaign",
       "b17ac45aad244535b697dbf6e8b5796885d0af9896aca46d7f276dc76fd8216d"},
  };
  std::vector<std::string> pinned;
  for (const Pin& pin : pins) {
    if (std::string(pin.path).rfind("scenarios/", 0) == 0)
      pinned.push_back(pin.name);
    const ScenarioSpec spec =
        load_scenario(std::string(MCS_SCENARIO_DIR) + "/../" + pin.path);
    EXPECT_EQ(spec.name, pin.name) << pin.path;
    EXPECT_EQ(resolved_scenario_sha(spec), pin.sha256) << pin.path;
  }
  // A new file under scenarios/ needs a pin.
  EXPECT_EQ(pinned, scenario_names_in(MCS_SCENARIO_DIR));
}

}  // namespace
}  // namespace mcs::exp
