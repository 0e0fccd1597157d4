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
//   mcs_perf --probe-out=<p>   flight recorder: one extra UNTIMED pass per
//   mcs_perf --trace-out=<p>   scenario with probes/tracing attached
//                              (.json probes / Chrome trace_event JSON);
//                              the timed repeats stay uninstrumented, and
//                              the extra pass must replay their event
//                              count exactly (determinism cross-check)
//   mcs_perf --explain         mcs_explain drill-down (DESIGN.md §13):
//                              attach a LatencyAnatomy to the untimed
//                              pass (same event-count identity check) and
//                              print each scenario's measured-vs-model
//                              per-station attribution report
//   mcs_perf --log-level=L     logger verbosity: debug|info|warn|error
//                              (falls back to env MCS_LOG_LEVEL)
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
  args.require_known({"smoke", "repeats", "scenario", "out", "baseline",
                      "tolerance", "probe-out", "trace-out", "explain",
                      "log-level"});
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

  const std::string probe_out = args.get("probe-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const bool explain = args.get_flag("explain");

  mcs::util::apply_log_level_env();
  if (args.has("log-level")) {
    const auto level = mcs::util::parse_log_level(args.get("log-level", ""));
    if (!level)
      throw mcs::ConfigError("--log-level: expected debug|info|warn|error");
    mcs::util::set_log_level(*level);
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

  // Flight-recorder pass: one extra, untimed, instrumented run per
  // scenario. Kept out of the measure() loop so the timed repeats stay
  // uninstrumented; the observability contract (bit-identical results)
  // is enforced by replaying the timed runs' exact event count.
  if (!probe_out.empty() || !trace_out.empty() || explain) {
    std::vector<mcs::obs::ProbeSeries> probe_series;
    std::vector<mcs::obs::TraceBuffer> trace_buffers;
    std::vector<mcs::obs::LatencyAnatomy> anatomies;
    probe_series.reserve(scenarios.size());
    trace_buffers.reserve(scenarios.size());
    if (explain) anatomies.resize(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const mcs::bench::PerfScenario& scenario = scenarios[i];
      const mcs::topo::MultiClusterTopology topology(scenario.system);
      const mcs::model::NetworkParams params;
      mcs::sim::SimConfig cfg = scenario.sim;
      if (!probe_out.empty()) {
        probe_series.emplace_back();
        cfg.probes = &probe_series.back();
      }
      if (!trace_out.empty()) {
        trace_buffers.emplace_back(mcs::obs::TraceConfig{},
                                   static_cast<int>(i));
        trace_buffers.back().set_label(scenario.id);
        cfg.trace = &trace_buffers.back();
      }
      if (explain) cfg.anatomy = &anatomies[i];
      const mcs::sim::SimResult result =
          mcs::sim::Simulator(topology, params, scenario.lambda, cfg).run();
      if (result.events_processed != report.measurements[i].events)
        throw mcs::ConfigError(
            "instrumented pass of '" + scenario.id +
            "' diverged from the timed runs (" +
            std::to_string(result.events_processed) + " vs " +
            std::to_string(report.measurements[i].events) +
            " events) — observability must not perturb the simulation");
      if (!probe_out.empty()) {
        report.measurements[i].probe_decimations =
            probe_series.back().decimations();
        if (probe_series.back().decimations() > 0)
          std::fprintf(stderr,
                       "mcs_perf: warning: '%s' probe buffer decimated "
                       "%lld time(s)\n",
                       scenario.id.c_str(),
                       static_cast<long long>(
                           probe_series.back().decimations()));
      }
      if (!trace_out.empty()) {
        report.measurements[i].trace_dropped = trace_buffers.back().dropped();
        if (trace_buffers.back().dropped() > 0)
          std::fprintf(
              stderr,
              "mcs_perf: warning: '%s' dropped %lld trace event(s)\n",
              scenario.id.c_str(),
              static_cast<long long>(trace_buffers.back().dropped()));
      }
    }
    // mcs_explain: join each scenario's measured anatomy with the refined
    // model's per-station breakdown at the same operating point.
    if (explain) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const mcs::bench::PerfScenario& scenario = scenarios[i];
        const mcs::model::RefinedModel refined(
            scenario.system, mcs::model::NetworkParams{}, {},
            scenario.sim.flow_control);
        const mcs::model::ModelBreakdown breakdown =
            refined.breakdown(scenario.lambda);
        const mcs::exp::ExplainReport drill = mcs::exp::build_explain(
            "mcs_explain " + scenario.id, scenario.lambda, &anatomies[i],
            &breakdown);
        std::printf("\n%s", mcs::exp::render_explain(drill).c_str());
      }
    }
    if (!probe_out.empty()) {
      std::vector<mcs::obs::LabeledProbeSeries> series;
      series.reserve(scenarios.size());
      for (std::size_t i = 0; i < scenarios.size(); ++i)
        series.push_back({scenarios[i].id, &probe_series[i]});
      mcs::obs::write_probe_file(probe_out, series);
      std::printf("wrote %s\n", probe_out.c_str());
    }
    if (!trace_out.empty()) {
      std::vector<const mcs::obs::TraceBuffer*> buffers;
      buffers.reserve(trace_buffers.size());
      for (const mcs::obs::TraceBuffer& buffer : trace_buffers)
        buffers.push_back(&buffer);
      mcs::obs::write_trace_file(trace_out, buffers);
      std::printf("wrote %s\n", trace_out.c_str());
    }
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
