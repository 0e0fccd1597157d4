// mcs_sweep: the unified experiment driver. Loads a declarative scenario
// (INI file, see scenarios/) and runs its full operating grid — analytical
// models and simulator replications — concurrently on a thread pool,
// then emits a text table plus optional CSV/JSON.
//
//   mcs_sweep <scenario.ini | name> [options]
//   mcs_sweep --list
//
// A bare name (no '/' and no '.ini' suffix) is resolved against the
// checked-in scenarios/ directory. Options:
//
//   --threads=N       worker threads (default: hardware concurrency)
//   --csv=PATH        write the result table as CSV
//   --json=PATH       write the result table as JSON
//   --stable-json     omit the volatile run metadata (threads, timings,
//                     manifest, task stats) from --json so two runs with
//                     identical rows write byte-identical documents
//   --seed=S          override the scenario seed
//   --replications=R  override the scenario replication count
//   --warmup=N --measured=N  override the simulation phases
//   --paper-scale     Sec. 4 phases: 10k warm-up / 100k measured
//   --no-sim          models only (fast, deterministic)
//   --knee            add the model saturation-knee column
//   --find-saturation bisect each (system, params, pattern, relay, flow)
//                     group against the SIMULATOR for its measured
//                     saturation knee (exp::SaturationSearch; adds the
//                     sim lambda* and sim/model ratio columns; the
//                     scenario's [search] block tunes precision targets,
//                     replication bounds and warmup deletion)
//   --quiet           suppress the table (summary only)
//   --progress        print a progress/ETA heartbeat on stderr while the
//                     grid runs (about one line per 2 s, and always a
//                     final N/N line)
//
// Production campaign service (DESIGN.md §14):
//
//   --cache=DIR       content-hash result cache: rows whose digest
//                     (scenario point + seed + flags + binary
//                     fingerprint) is already stored are restored
//                     bit-identically without simulating; fresh rows are
//                     stored back
//   --checkpoint=PATH journal every completed row (one appended line
//                     each), so an interrupted campaign loses at most the
//                     rows in flight
//   --resume          preload --checkpoint's journal and skip the rows it
//                     records
//
// Flight recorder (incompatible with the campaign service — a restored
// row has nothing to observe):
//
//   --probe-out=PATH  flight recorder: attach time-series probes to
//                     replication 0 of every row and write them all to
//                     PATH (.json selects JSON, anything else CSV); the
//                     scenario's [observe] block tunes cadence/buffering
//   --trace-out=PATH  flight recorder: worm-lifecycle spans of
//                     replication 0 of every row as Chrome trace_event
//                     JSON (open in Perfetto / chrome://tracing)
//   --explain         latency attribution (DESIGN.md §13): attach an
//                     exhaustive LatencyAnatomy to replication 0 of every
//                     simulated row, compute the refined model's
//                     per-station breakdown, join them stage by stage,
//                     print one report per grid group (at its highest
//                     load) and embed an "explain" object per row in
//                     --json output. Works on model-only scenarios too
//                     (sim = false: the report names the model's
//                     bottleneck station).
//
// The system under study (ICN2 topology, per-cluster technology and
// load, ICN2 channel timing) is described only by the scenario file's
// [system], [cluster.<i>] and [icn2_params] keys, where the parser
// checks it; no flag overrides it.
//
// Unknown options and unknown scenario names both fail with
// closest-match suggestions (a typo like --find-saturaton must never
// silently run a different experiment).
//
// Results are bit-identical for any --threads value, including 1: every
// simulation task derives its seed from the scenario seed and its grid
// coordinates alone.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <mcs/mcs.hpp>

namespace {

namespace fs = std::filesystem;

int list_scenarios() {
  const fs::path dir = mcs::exp::default_scenario_dir();
  if (!fs::is_directory(dir)) {
    std::printf("no scenario directory at %s\n", dir.string().c_str());
    return 1;
  }
  std::printf("scenarios in %s:\n", dir.string().c_str());
  for (const std::string& name : mcs::exp::scenario_names_in(dir.string()))
    std::printf("  %s\n", name.c_str());
  return 0;
}

std::vector<std::string> known_options() {
  std::vector<std::string> names = {
      "list",      "threads",   "csv",        "json",     "stable-json",
      "quiet",     "progress",  "probe-out",  "trace-out", "explain",
      "cache",     "checkpoint", "resume"};
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
    std::fprintf(stderr, "mcs_sweep: %s\n", e.what());
    return 2;
  }

  if (args.get_flag("list")) return list_scenarios();
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: mcs_sweep <scenario.ini | name> [--threads=N] "
                 "[--csv=PATH] [--json=PATH] [--no-sim] [--quiet]\n"
                 "       [--cache=DIR] [--checkpoint=PATH] [--resume] ...\n"
                 "       mcs_sweep --list\n");
    return 2;
  }

  try {
    const std::string path = mcs::exp::resolve_scenario_path(
        args.positional().front(), "mcs_sweep");
    mcs::exp::ScenarioSpec spec = mcs::exp::load_scenario(path);

    // Flag overrides on top of the file; cache digests hash the
    // resulting spec.
    mcs::exp::apply_spec_flags(args, spec);
    const bool explain = args.get_flag("explain");

    mcs::exp::SweepRunner runner(std::move(spec));
    mcs::exp::SweepRunOptions options;
    options.threads = args.get_int("threads", 0);
    options.progress = args.get_flag("progress");
    options.explain = explain;
    options.cache_dir = args.get("cache", "");
    options.checkpoint_path = args.get("checkpoint", "");
    options.resume = args.get_flag("resume");
    const std::string probe_out = args.get("probe-out", "");
    const std::string trace_out = args.get("trace-out", "");
    options.collect_probes = !probe_out.empty();
    options.collect_traces = !trace_out.empty();
    const mcs::exp::SweepResult result = runner.run(options);

    if (!probe_out.empty()) {
      std::vector<mcs::obs::LabeledProbeSeries> series;
      series.reserve(result.row_probes.size());
      for (std::size_t r = 0; r < result.row_probes.size(); ++r)
        series.push_back(
            {mcs::exp::row_label(result.rows[r]), &result.row_probes[r]});
      mcs::obs::write_probe_file(probe_out, series);
      std::printf("wrote %s\n", probe_out.c_str());
    }
    if (!trace_out.empty()) {
      std::vector<const mcs::obs::TraceBuffer*> buffers;
      buffers.reserve(result.row_traces.size());
      for (const mcs::obs::TraceBuffer& buffer : result.row_traces)
        buffers.push_back(&buffer);
      mcs::obs::write_trace_file(trace_out, buffers);
      std::printf("wrote %s\n", trace_out.c_str());
    }

    // Satellite observability surfacing: losing flight-recorder data is
    // silent at collection time by design (bounded buffers), so the run
    // summary owns the warning.
    std::int64_t probe_decimations = 0;
    for (const mcs::obs::ProbeSeries& probes : result.row_probes)
      probe_decimations += probes.decimations();
    if (probe_decimations > 0)
      std::fprintf(stderr,
                   "mcs_sweep: warning: probe buffers decimated %lld "
                   "time(s); raise [observe] probe_max_samples to keep "
                   "full cadence\n",
                   static_cast<long long>(probe_decimations));
    std::int64_t trace_dropped = 0;
    for (const mcs::obs::TraceBuffer& buffer : result.row_traces)
      trace_dropped += buffer.dropped();
    if (trace_dropped > 0)
      std::fprintf(stderr,
                   "mcs_sweep: warning: %lld trace event(s) dropped; "
                   "raise [observe] trace_max_events or trace_sample\n",
                   static_cast<long long>(trace_dropped));

    if (!args.get_flag("quiet")) mcs::exp::to_table(result).print();

    if (explain && !args.get_flag("quiet")) {
      // One attribution report per grid group, taken at the group's
      // highest load (loads are the innermost grid dimension, so a group
      // ends where load_idx stops increasing) — the row where contention
      // anatomy is most informative.
      for (std::size_t r = 0; r < result.rows.size(); ++r) {
        const bool group_end =
            r + 1 == result.rows.size() ||
            result.rows[r + 1].load_idx <= result.rows[r].load_idx;
        if (!group_end) continue;
        const mcs::obs::LatencyAnatomy* anatomy =
            r < result.row_anatomy.size() ? &result.row_anatomy[r] : nullptr;
        const mcs::model::ModelBreakdown* breakdown =
            r < result.row_breakdown.size() &&
                    !result.row_breakdown[r].clusters.empty()
                ? &result.row_breakdown[r]
                : nullptr;
        const mcs::exp::ExplainReport report = mcs::exp::build_explain(
            mcs::exp::row_label(result.rows[r]), result.rows[r].lambda,
            anatomy, breakdown);
        if (!report.has_measured && !report.has_model) continue;
        std::printf("\n%s", mcs::exp::render_explain(report).c_str());
      }
    }

    const std::string csv_path = args.get("csv", "");
    if (!csv_path.empty()) {
      mcs::exp::write_csv(result, csv_path);
      std::printf("wrote %s\n", csv_path.c_str());
    }
    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
      mcs::exp::write_json_file(result, json_path,
                                args.get_flag("stable-json"));
      std::printf("wrote %s\n", json_path.c_str());
    }

    std::printf(
        "%s: %zu grid rows (%d restored from cache/journal), %lld sim runs "
        "on %d threads in %.2fs (%d saturated or mixed points)\n",
        result.name.c_str(), result.rows.size(), result.cached_rows,
        static_cast<long long>(result.sim_tasks), result.threads,
        result.wall_seconds, result.saturated_points);
    return 0;
  } catch (const mcs::ConfigError& e) {
    std::fprintf(stderr, "mcs_sweep: %s\n", e.what());
    return 1;
  }
}
