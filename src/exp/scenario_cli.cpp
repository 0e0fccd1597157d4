#include "exp/scenario_cli.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "topology/multi_cluster.hpp"
#include "util/error.hpp"

namespace mcs::exp {

namespace fs = std::filesystem;

std::vector<std::string> scenario_names_in(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.path().extension() == ".ini")
      names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> known_scenario_names() {
  std::vector<std::string> names = scenario_names_in(default_scenario_dir());
  for (std::string& name : scenario_names_in("."))
    names.push_back(std::move(name));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string resolve_scenario_path(const std::string& arg,
                                  const std::string& tool) {
  const bool looks_like_path =
      arg.find('/') != std::string::npos ||
      (arg.size() > 4 && arg.substr(arg.size() - 4) == ".ini");
  if (!looks_like_path) {
    const fs::path candidate =
        fs::path(default_scenario_dir()) / (arg + ".ini");
    if (fs::exists(candidate)) return candidate.string();
    if (fs::exists(arg + ".ini")) return arg + ".ini";
    std::string message = "unknown scenario '" + arg + "'";
    const std::vector<std::string> close =
        util::closest_matches(arg, known_scenario_names());
    if (!close.empty()) {
      message += "; did you mean";
      for (std::size_t i = 0; i < close.size(); ++i)
        message += (i == 0 ? " '" : ", '") + close[i] + "'";
      message += "?";
    }
    message += " (" + tool + " --list shows all scenarios)";
    throw ConfigError(message);
  }
  return arg;  // load_scenario reports unreadable paths
}

void apply_icn2_overrides(const util::Args& args, ScenarioSpec& spec) {
  const std::string kind = args.get("icn2", "");
  const int degree = args.get_int("icn2-degree", -1);
  const int switches = args.get_int("icn2-switches", -1);
  const auto seed = args.get_int<std::int64_t>("icn2-seed", -1);
  if (kind.empty() && degree < 0 && switches < 0 && seed < 0) return;

  for (SystemEntry& system : spec.systems) {
    topo::Icn2Config& icn2 = system.config.icn2;
    if (!kind.empty() &&
        !topo::parse_icn2_kind(kind, icn2.kind, icn2.torus_wrap))
      throw ConfigError("--icn2: unknown kind '" + kind + "'");
    if (degree >= 0) icn2.degree = degree;
    if (switches >= 0) icn2.switches = switches;
    if (seed >= 0) icn2.seed = static_cast<std::uint64_t>(seed);
  }
}

void apply_hetero_overrides(const util::Args& args, ScenarioSpec& spec) {
  // Presence is decided with Args::has, and present-but-invalid (empty,
  // negative, non-numeric) is an error — never a silent fall-through to
  // the "unset" sentinel (the same footgun the scenario parser rejects
  // in [icn2_params]).
  const auto icn2_field = [&](const char* name, bool strictly_positive) {
    if (!args.has(name)) return -1.0;  // flag absent: inherit
    const double v = args.get_double(name, -1.0);
    if (!(strictly_positive ? v > 0.0 : v >= 0.0))
      throw ConfigError(std::string("--") + name + " must be " +
                        (strictly_positive ? "> 0" : ">= 0") + ", got '" +
                        args.get(name, "") + "'");
    return v;
  };
  model::NetworkParamsOverride icn2_net;
  icn2_net.alpha_net = icn2_field("icn2-alpha-net", false);
  icn2_net.alpha_sw = icn2_field("icn2-alpha-sw", false);
  icn2_net.beta_net = icn2_field("icn2-beta-net", true);
  const std::string scales = args.get("load-scale", "");
  if (args.has("load-scale") && scales.empty())
    throw ConfigError("--load-scale: empty list");
  if (scales.empty() && !icn2_net.any()) return;

  std::vector<double> scale_list;
  if (!scales.empty()) {
    // std::getline drops a trailing separator's empty token, which would
    // silently turn an intended list into a broadcast — reject it.
    if (scales.back() == ',')
      throw ConfigError("--load-scale: trailing comma in '" + scales + "'");
    std::istringstream in(scales);
    std::string item;
    while (std::getline(in, item, ',')) {
      const double v = util::parse_double(item, "--load-scale");
      if (!(v > 0.0))
        throw ConfigError(
            "--load-scale: expected positive numbers, got '" + item + "'");
      scale_list.push_back(v);
    }
    if (scale_list.empty()) throw ConfigError("--load-scale: empty list");
  }

  for (SystemEntry& system : spec.systems) {
    const auto clusters =
        static_cast<std::size_t>(system.config.cluster_count());
    if (scale_list.size() == 1) {
      system.config.load_scale.assign(clusters, scale_list.front());
    } else if (!scale_list.empty()) {
      if (scale_list.size() != clusters)
        throw ConfigError(
            "--load-scale: got " + std::to_string(scale_list.size()) +
            " entries but system '" + system.id + "' has " +
            std::to_string(clusters) + " clusters");
      system.config.load_scale = scale_list;
    }
    if (icn2_net.any()) system.config.icn2_net = icn2_net;
  }
}

void apply_spec_flags(const util::Args& args, ScenarioSpec& spec) {
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(spec.seed)));
  spec.replications = args.get_int("replications", spec.replications);
  if (args.get_flag("paper-scale")) {
    spec.warmup = 10'000;
    spec.measured = 100'000;
  }
  spec.warmup = args.get_int("warmup", spec.warmup);
  spec.measured = args.get_int("measured", spec.measured);
  if (args.get_flag("no-sim")) spec.run_sim = false;
  if (args.get_flag("knee")) spec.find_knee = true;
  if (args.get_flag("find-saturation")) spec.find_sim_saturation = true;
  apply_icn2_overrides(args, spec);
  apply_hetero_overrides(args, spec);
}

std::vector<std::string> spec_flag_names() {
  return {"seed",          "replications",   "paper-scale",
          "warmup",        "measured",       "no-sim",
          "knee",          "find-saturation", "icn2",
          "icn2-degree",   "icn2-switches",  "icn2-seed",
          "load-scale",    "icn2-alpha-net", "icn2-alpha-sw",
          "icn2-beta-net"};
}

}  // namespace mcs::exp
