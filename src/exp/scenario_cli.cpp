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

namespace {

using A = const util::Args&;
using F = const std::string&;
using S = ScenarioSpec&;

/// The spec-shaping flags: each one's name and how it shapes the spec.
/// Applied in table order, so an explicit --warmup/--measured wins over
/// --paper-scale.
constexpr struct {
  const char* name;
  void (*apply)(A args, F flag, S spec);
} kSpecFlags[] = {
    {"seed",
     [](A a, F f, S s) {
       s.seed = static_cast<std::uint64_t>(
           a.get_int(f, static_cast<std::int64_t>(s.seed)));
     }},
    {"replications",
     [](A a, F f, S s) { s.replications = a.get_int(f, s.replications); }},
    {"paper-scale",
     [](A a, F f, S s) {
       if (!a.get_flag(f)) return;
       s.warmup = 10'000;
       s.measured = 100'000;
     }},
    {"warmup", [](A a, F f, S s) { s.warmup = a.get_int(f, s.warmup); }},
    {"measured", [](A a, F f, S s) { s.measured = a.get_int(f, s.measured); }},
    {"no-sim", [](A a, F f, S s) { if (a.get_flag(f)) s.run_sim = false; }},
    {"knee", [](A a, F f, S s) { if (a.get_flag(f)) s.find_knee = true; }},
    {"find-saturation",
     [](A a, F f, S s) { if (a.get_flag(f)) s.find_sim_saturation = true; }},
};

}  // namespace

void apply_spec_flags(const util::Args& args, ScenarioSpec& spec) {
  for (const auto& flag : kSpecFlags) flag.apply(args, flag.name, spec);
}

std::vector<std::string> spec_flag_names() {
  std::vector<std::string> names;
  for (const auto& flag : kSpecFlags) names.emplace_back(flag.name);
  return names;
}

}  // namespace mcs::exp
