// mcs_perf — reproducible simulator-throughput driver (see
// bench/perf_harness.hpp and DESIGN.md §9).
//
//   mcs_perf                   full scenarios, 3 repeats, stdout only
//   mcs_perf --smoke           CI-sized phases (~seconds total)
//   mcs_perf --repeats=5       more repeats for quieter numbers
//   mcs_perf --scenario=<id>   run one scenario only
//   mcs_perf --out=<path>      also write the JSON report to <path>; no
//                              file is written without it, so a committed
//                              report is only replaced on purpose
//   mcs_perf --baseline=<path> fail (exit 1) on worms/sec regression
//   mcs_perf --tolerance=0.2   allowed fractional drop vs the baseline
//
// mcs_perf measures throughput only. The flight recorder (--probe-out,
// --trace-out) and latency attribution (--explain) live in mcs_sweep;
// that observers leave every simulation bit-identical is pinned by
// tests/obs_sim_test.cpp.
//
// Reports carry a RunManifest (git describe, compiler, flags, host,
// wall/CPU time, peak RSS), so a saved report says exactly what
// produced it.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include <mcs/mcs.hpp>

#include "perf_harness.hpp"

namespace {

int run(const mcs::util::Args& args) {
  // Strict option validation: a typo like --basline would otherwise
  // silently skip the regression gate.
  args.require_known(
      {"smoke", "repeats", "scenario", "out", "baseline", "tolerance"});
  const bool smoke = args.get_flag("smoke");
  const int repeats = args.get_int("repeats", 3);
  const std::string only = args.get("scenario", "");
  const std::string out_path = args.get("out", "");
  const std::string baseline = args.get("baseline", "");
  const double tolerance = args.get_double("tolerance", 0.2);
  if (repeats < 1) throw mcs::ConfigError("--repeats must be >= 1");
  if (tolerance < 0.0 || tolerance >= 1.0)
    throw mcs::ConfigError("--tolerance must be in [0, 1)");

  std::vector<mcs::bench::PerfScenario> scenarios =
      mcs::bench::perf_scenarios(smoke);
  if (!only.empty()) {
    std::erase_if(scenarios, [&](const mcs::bench::PerfScenario& s) {
      return s.id != only;
    });
    if (scenarios.empty()) {
      std::string known;
      for (const auto& s : mcs::bench::perf_scenarios(smoke))
        known += " " + s.id;
      throw mcs::ConfigError("unknown perf scenario '" + only +
                             "'; known:" + known);
    }
  }

  mcs::bench::PerfReport report;
  report.label = smoke ? "smoke" : "full";
  report.threads_available =
      static_cast<int>(std::thread::hardware_concurrency());
  report.manifest = mcs::obs::RunManifest::begin();

  // gen/hdr/rel/done split `events` by kind (SimResult::events_by_kind).
  std::printf("%-22s %10s %9s %9s %9s %9s %10s %12s %12s %9s\n", "scenario",
              "events", "gen", "hdr", "rel", "done", "worms", "events/s",
              "worms/s", "best(s)");
  for (const mcs::bench::PerfScenario& scenario : scenarios) {
    const mcs::bench::PerfMeasurement m =
        mcs::bench::measure(scenario, repeats);
    const auto count = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf(
        "%-22s %10llu %9llu %9llu %9llu %9llu %10llu %12.0f %12.0f %9.4f%s\n",
        m.id.c_str(), count(m.events), count(m.events_by_kind[0]),
        count(m.events_by_kind[1]), count(m.events_by_kind[2]),
        count(m.events_by_kind[3]), count(m.worms), m.events_per_sec,
        m.worms_per_sec, m.best_seconds, m.saturated ? "  [SATURATED]" : "");
    report.measurements.push_back(m);
  }

  report.manifest.complete();

  // Compare BEFORE writing: with --out and --baseline naming the same
  // file (e.g. a local reference report), writing first would overwrite
  // the reference and the gate would compare the run against itself.
  std::vector<std::string> violations;
  if (!baseline.empty())
    violations = mcs::bench::compare_to_baseline(report, baseline, tolerance);
  if (!out_path.empty()) {
    mcs::bench::write_report_json_file(report, out_path);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!violations.empty()) {
    for (const std::string& v : violations)
      std::fprintf(stderr, "PERF REGRESSION: %s\n", v.c_str());
    return 1;
  }
  if (!baseline.empty())
    std::printf("baseline check passed (tolerance %.0f%%, %s)\n",
                100.0 * tolerance, baseline.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mcs::util::Args args(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcs_perf: %s\n", e.what());
    return 2;
  }
}
