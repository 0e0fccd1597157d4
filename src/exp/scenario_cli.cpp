#include "exp/scenario_cli.hpp"

#include <algorithm>
#include <filesystem>

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
}

std::vector<std::string> spec_flag_names() {
  return {"seed",     "replications", "paper-scale", "warmup",
          "measured", "no-sim",       "knee",        "find-saturation"};
}

}  // namespace mcs::exp
