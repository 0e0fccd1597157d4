// mcs_merge: join the checkpoint journals of a sharded sweep campaign
// back into the full result grid — byte-identical (table, CSV, stable
// JSON) to an unsharded mcs_sweep run of the same scenario.
//
//   mcs_merge <scenario.ini | name> <journal>... [options]
//
// The scenario argument (plus any spec-shaping flags, which must repeat
// the sweep invocations' exactly) reconstructs the grid; each planned
// row is then matched against the journals by content digest, so
// journals from a different scenario, different flags, or a different
// binary fail loudly instead of merging stale rows. Merging is a pure
// data join: no simulation runs.
//
// Options:
//
//   --csv=PATH   write the merged table as CSV
//   --json=PATH  write the merged table as JSON (always the stable form:
//                volatile run metadata omitted)
//   --quiet      suppress the text table (summary only)
//   --list       list the bundled scenarios
//
// plus every spec-shaping flag mcs_sweep accepts (--seed,
// --replications, --warmup/--measured/--paper-scale, --no-sim, --knee,
// --find-saturation, --icn2*, --load-scale).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <mcs/mcs.hpp>

namespace {

int list_scenarios() {
  namespace fs = std::filesystem;
  const fs::path dir = mcs::exp::default_scenario_dir();
  if (!fs::is_directory(dir)) {
    std::printf("no scenario directory at %s\n", dir.string().c_str());
    return 1;
  }
  std::printf("scenarios in %s:\n", dir.string().c_str());
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".ini")
      names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) std::printf("  %s\n", name.c_str());
  return 0;
}

std::vector<std::string> known_options() {
  std::vector<std::string> names = {"list", "csv", "json", "quiet"};
  for (const std::string& name : mcs::exp::spec_flag_names())
    names.push_back(name);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);

  try {
    args.require_known(known_options());
  } catch (const mcs::ConfigError& e) {
    std::fprintf(stderr, "mcs_merge: %s\n", e.what());
    return 2;
  }

  if (args.get_flag("list")) return list_scenarios();
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: mcs_merge <scenario.ini | name> <journal>... "
                 "[--csv=PATH] [--json=PATH] [--quiet]\n");
    return 2;
  }

  try {
    const std::string path = mcs::exp::resolve_scenario_path(
        args.positional().front(), "mcs_merge");
    mcs::exp::ScenarioSpec spec = mcs::exp::load_scenario(path);
    mcs::exp::apply_spec_flags(args, spec);

    const mcs::exp::SweepRunner runner(std::move(spec));
    const std::vector<std::string> journals(args.positional().begin() + 1,
                                            args.positional().end());
    const mcs::exp::SweepResult result =
        mcs::exp::merge_journals(runner, journals);

    if (!args.get_flag("quiet")) mcs::exp::to_table(result).print();

    const std::string csv_path = args.get("csv", "");
    if (!csv_path.empty()) {
      mcs::exp::write_csv(result, csv_path);
      std::printf("wrote %s\n", csv_path.c_str());
    }
    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
      // Always the stable form: a merged document must depend on the
      // rows alone, never on which machine/process did the merging.
      mcs::exp::write_json_file(result, json_path, /*stable=*/true);
      std::printf("wrote %s\n", json_path.c_str());
    }

    std::printf("%s: merged %zu grid rows from %zu journal(s) "
                "(%d saturated or mixed points)\n",
                result.name.c_str(), result.rows.size(), journals.size(),
                result.saturated_points);
    return 0;
  } catch (const mcs::ConfigError& e) {
    std::fprintf(stderr, "mcs_merge: %s\n", e.what());
    return 1;
  }
}
