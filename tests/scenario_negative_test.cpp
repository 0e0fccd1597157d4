// Negative and fuzz tests for the scenario parser: every malformed input —
// unknown keys, out-of-range values, truncated or bit-flipped files — must
// surface as mcs::ConfigError (with a closest-match suggestion where a
// vocabulary exists), never as a crash, hang, or silent acceptance. The CI
// sanitizer job runs these under ASan/UBSan, which is what turns "no
// crash" into a real memory-safety claim.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcs::exp {
namespace {

const char* kMinimalSystem = "[system a]\npreset = table1_org_a\n";

std::string valid_spec() {
  return std::string("[sweep]\nloads = 0.001\n") + kMinimalSystem;
}

/// Parse and return the ConfigError message; fails the test on success.
std::string error_of(const std::string& text) {
  try {
    (void)parse_scenario_string(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError for:\n" << text;
  return "";
}

TEST(ScenarioNegative, UnknownSweepKeyGetsSuggestion) {
  const std::string msg =
      error_of("[sweep]\nmesage_flits = 32\nloads = 0.001\n" +
               std::string(kMinimalSystem));
  EXPECT_NE(msg.find("unknown [sweep] key 'mesage_flits'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("did you mean 'message_flits'"), std::string::npos)
      << msg;
}

// A scenario written for the removed parallel single-run mode must fail
// loudly, not silently run the serial simulator.
TEST(ScenarioNegative, RemovedParallelKeyIsUnknown) {
  const std::string msg = error_of("[sweep]\nparallel = 2\nloads = 0.001\n" +
                                   std::string(kMinimalSystem));
  EXPECT_NE(msg.find("unknown [sweep] key 'parallel'"), std::string::npos)
      << msg;
}

// Attribution is mcs_sweep --explain alone; the scenario key is gone.
TEST(ScenarioNegative, RemovedObserveExplainKeyIsUnknown) {
  const std::string msg =
      error_of(valid_spec() + "[observe]\nexplain = true\n");
  EXPECT_NE(msg.find("unknown [observe] key 'explain'"), std::string::npos)
      << msg;
}

// The fixed-fraction deletion mode is gone; the error lists what is left.
TEST(ScenarioNegative, RemovedFractionWarmupModeIsRejected) {
  const std::string msg =
      error_of(valid_spec() + "[search]\nwarmup = fraction\n");
  EXPECT_NE(msg.find("unknown warmup deletion mode 'fraction'"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("off, mser5"), std::string::npos) << msg;
}

TEST(ScenarioNegative, KneeLoadsRejectNonPositiveAndEmptyLists) {
  for (const char* bad : {"0", "-0.5", "0.5, 0"}) {
    const std::string msg = error_of(std::string("[sweep]\nknee_loads = ") +
                                     bad + "\n" + kMinimalSystem);
    EXPECT_NE(msg.find("knee_loads fractions must be > 0"), std::string::npos)
        << bad << ": " << msg;
  }
  const std::string msg =
      error_of("[sweep]\nknee_loads = ,\n" + std::string(kMinimalSystem));
  EXPECT_NE(msg.find("knee_loads lists no fractions"), std::string::npos)
      << msg;
}

// Absolute and knee-relative loads cannot share one grid, in either key
// order; the error names both keys.
TEST(ScenarioNegative, KneeLoadsDoNotMixWithAbsoluteLoads) {
  for (const std::string key : {"loads", "load_grid"}) {
    const std::string line =
        key + (key == "loads" ? " = 0.001\n" : " = 1e-4 : 2\n");
    const std::string want = "knee_loads cannot be combined with " + key;
    for (const std::string& sweep :
         {"knee_loads = 0.5\n" + line, line + "knee_loads = 0.5\n"}) {
      const std::string msg =
          error_of("[sweep]\n" + sweep + std::string(kMinimalSystem));
      EXPECT_NE(msg.find(want), std::string::npos) << sweep << ": " << msg;
    }
  }
}

TEST(ScenarioNegative, UnknownSystemKeyGetsSuggestion) {
  const std::string msg = error_of(
      "[sweep]\nloads = 0.001\n[system a]\npreset = table1_org_a\n"
      "hieghts = 1,2\n");
  EXPECT_NE(msg.find("unknown [system] key 'hieghts'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'heights'"), std::string::npos) << msg;
}

TEST(ScenarioNegative, MistypedIcn2KeysGetSuggestions) {
  const std::string msg = error_of(
      "[sweep]\nloads = 0.001\n[system a]\npreset = table1_org_a\n"
      "icn2_degres = 4\n");
  EXPECT_NE(msg.find("'icn2_degres'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'icn2_degree'"), std::string::npos) << msg;

  const std::string kind = error_of(
      "[sweep]\nloads = 0.001\n[system a]\npreset = table1_org_a\n"
      "icn2 = dragonfyl\n");
  EXPECT_NE(kind.find("unknown icn2 kind 'dragonfyl'"), std::string::npos)
      << kind;
  EXPECT_NE(kind.find("'dragonfly'"), std::string::npos) << kind;
}

TEST(ScenarioNegative, UnknownSectionAndPatternKindGetSuggestions) {
  const std::string section = error_of("[sytem a]\nm = 4\n");
  EXPECT_NE(section.find("unknown section [sytem a]"), std::string::npos)
      << section;
  EXPECT_NE(section.find("'system'"), std::string::npos) << section;

  const std::string kind =
      error_of(valid_spec() + "[pattern p]\nkind = uniformm\n");
  EXPECT_NE(kind.find("'uniform'"), std::string::npos) << kind;

  const std::string preset = error_of(
      "[sweep]\nloads = 0.001\n[system a]\npreset = homogenous\n");
  EXPECT_NE(preset.find("'homogeneous'"), std::string::npos) << preset;
}

TEST(ScenarioNegative, HeteroSubsectionMisuseIsAConfigError) {
  const std::vector<std::string> bad = {
      // sub-sections must follow a [system]
      "[sweep]\nloads = 0.001\n[cluster.0]\nbeta_net = 0.001\n" +
          std::string(kMinimalSystem),
      "[sweep]\nloads = 0.001\n[icn2_params]\nbeta_net = 0.001\n" +
          std::string(kMinimalSystem),
      valid_spec() + "[pattern p]\nkind = uniform\n[cluster.0]\n"
                     "beta_net = 0.001\n",
      // index out of range / malformed / duplicate
      valid_spec() + "[cluster.32]\nbeta_net = 0.001\n",
      valid_spec() + "[cluster.-1]\nbeta_net = 0.001\n",
      valid_spec() + "[cluster.x]\nbeta_net = 0.001\n",
      valid_spec() + "[cluster.0]\nbeta_net = 0.001\n[cluster.0]\n"
                     "alpha_net = 0.01\n",
      // empty overrides are silent no-ops: rejected
      valid_spec() + "[cluster.0]\n",
      valid_spec() + "[icn2_params]\n",
      // duplicate [icn2_params] per system
      valid_spec() + "[icn2_params]\nbeta_net = 0.001\n[icn2_params]\n"
                     "alpha_net = 0.01\n",
      // out-of-range values (negative would silently read as "inherit")
      valid_spec() + "[cluster.0]\nbeta_net = 0\n",
      valid_spec() + "[cluster.0]\nbeta_net = -0.001\n",
      valid_spec() + "[cluster.0]\nalpha_net = -0.01\n",
      valid_spec() + "[cluster.0]\nload_scale = 0\n",
      valid_spec() + "[cluster.0]\nload_scale = -2\n",
      valid_spec() + "[icn2_params]\nflit_bytes = -128\n",
      // load_scale is a cluster property, not an ICN2 one
      valid_spec() + "[icn2_params]\nload_scale = 2\n",
  };
  for (const std::string& text : bad)
    EXPECT_THROW((void)parse_scenario_string(text), ConfigError)
        << "accepted:\n"
        << text;
}

TEST(ScenarioNegative, HeteroKeyTyposGetSuggestions) {
  const std::string msg =
      error_of(valid_spec() + "[cluster.0]\nbeta_nett = 0.001\n");
  EXPECT_NE(msg.find("unknown [cluster.<i>] key 'beta_nett'"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'beta_net'"), std::string::npos) << msg;

  const std::string icn2 =
      error_of(valid_spec() + "[icn2_params]\nalpha_nett = 0.01\n");
  EXPECT_NE(icn2.find("unknown [icn2_params] key 'alpha_nett'"),
            std::string::npos)
      << icn2;
}

TEST(ScenarioNegative, OutOfRangeValuesAreConfigErrors) {
  const std::vector<std::string> bad = {
      // [sweep] ranges
      "[sweep]\nloads = -0.5\n" + std::string(kMinimalSystem),
      "[sweep]\nloads = 0\n" + std::string(kMinimalSystem),
      "[sweep]\nmessage_flits = 0\nloads = 0.001\n" +
          std::string(kMinimalSystem),
      "[sweep]\nflit_bytes = -256\nloads = 0.001\n" +
          std::string(kMinimalSystem),
      "[sweep]\nreplications = 0\nloads = 0.001\n" +
          std::string(kMinimalSystem),
      "[sweep]\nwarmup = -1\nloads = 0.001\n" + std::string(kMinimalSystem),
      "[sweep]\nmeasured = 0\nloads = 0.001\n" + std::string(kMinimalSystem),
      "[sweep]\nload_grid = -1 : 4\nloads = 0.001\n" +
          std::string(kMinimalSystem),
      "[sweep]\nload_grid = 0.001 : 0\nloads = 0.001\n" +
          std::string(kMinimalSystem),
      // [system] ranges: bad arity/heights, malformed numbers
      "[sweep]\nloads = 0.001\n[system a]\nm = -4\nheights = 1,2\n",
      "[sweep]\nloads = 0.001\n[system a]\nm = 3\nheights = 1,2\n",
      "[sweep]\nloads = 0.001\n[system a]\nm = 4\nheights = 1,-2\n",
      "[sweep]\nloads = 0.001\n[system a]\nm = 4\n",
      "[sweep]\nloads = 0.001\n[system a]\nm = four\nheights = 1\n",
      // icn2 knobs that the selected kind never reads must fail loudly
      "[sweep]\nloads = 0.001\n[system a]\npreset = table1_org_a\n"
      "icn2_rows = 4\n",
      "[sweep]\nloads = 0.001\n[system a]\npreset = table1_org_a\n"
      "icn2 = dragonfly\nicn2_seed = 7\n",
      // [pattern] ranges (validated against the topology by the runner,
      // but parse-time shape errors must still throw)
      valid_spec() + "[pattern p]\nhotspot_fraction = 0.5\n",
      valid_spec() + "[pattern p]\nkind = hotspot\nhotspot_node = x\n",
  };
  for (const std::string& text : bad)
    EXPECT_THROW((void)parse_scenario_string(text), ConfigError)
        << "accepted:\n"
        << text;
}

// An integer the field cannot hold is rejected at its file:line, never
// wrapped: 2^32 + 1 once read as replications = 1.
TEST(ScenarioNegative, OutOfRangeIntegersNameTheLine) {
  const std::string big = "4294967297";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[sweep]\nloads = 0.001\nreplications = " + big + "\n" +
           std::string(kMinimalSystem),
       "<string>:3: "},
      {"[sweep]\nloads = 0.001\n[system a]\nm = " + big + "\nheights = 1\n",
       "<string>:4: "},
      {valid_spec() + "[search]\nr_max = " + big + "\n", "<string>:6: "},
      {valid_spec() + "[search]\nr_max = 99999999999999999999\n",
       "<string>:6: "},
  };
  for (const auto& [text, where] : cases) {
    const std::string msg = error_of(text);
    EXPECT_EQ(msg.rfind(where, 0), 0u) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

std::vector<std::filesystem::path> bundled_scenarios() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(default_scenario_dir()))
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  EXPECT_GE(files.size(), 4u);
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Parsing arbitrary bytes must either yield a spec or throw ConfigError.
void expect_no_crash(const std::string& text) {
  try {
    (void)parse_scenario_string(text);
  } catch (const ConfigError&) {
    // expected for most mutations
  }
}

TEST(ScenarioFuzz, TruncatedBundledFilesNeverCrash) {
  for (const auto& path : bundled_scenarios()) {
    const std::string whole = slurp(path);
    ASSERT_FALSE(whole.empty()) << path;
    // Every line-prefix, plus every byte-prefix around each line boundary
    // (cuts mid-key, mid-value, mid-section-header).
    for (std::size_t pos = 0; pos <= whole.size(); ++pos) {
      const bool line_boundary = pos == whole.size() || whole[pos] == '\n';
      if (line_boundary)
        for (std::size_t back = 0; back <= 8 && back <= pos; ++back)
          expect_no_crash(whole.substr(0, pos - back));
    }
  }
}

TEST(ScenarioFuzz, RandomByteMutationsNeverCrash) {
  util::Rng rng(20060814);
  for (const auto& path : bundled_scenarios()) {
    const std::string whole = slurp(path);
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = whole;
      const int edits = 1 + static_cast<int>(rng.next_below(4));
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = rng.next_below(mutated.size());
        switch (rng.next_below(3)) {
          case 0:  // flip to a random printable byte (or newline)
            mutated[at] = static_cast<char>(' ' + rng.next_below(95));
            break;
          case 1:  // delete a byte
            mutated.erase(at, 1);
            break;
          default:  // duplicate a byte
            mutated.insert(at, 1, mutated[at]);
            break;
        }
        if (mutated.empty()) break;
      }
      expect_no_crash(mutated);
    }
  }
}

}  // namespace
}  // namespace mcs::exp
