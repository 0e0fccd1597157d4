#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "exp/checkpoint.hpp"
#include "exp/result_cache.hpp"
#include "exp/saturation_search.hpp"
#include "exp/sweep_io.hpp"
#include "model/paper_model.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "sim/replication.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcs::exp {

namespace {

// One (system, message_flits, flit_bytes, pattern, flow) combination: the
// analytical models and the knee depend on exactly these dimensions, so
// they are evaluated once per group and fanned out to the group's rows
// (the flow dimension entered when the refined model became
// flow-control-aware).
struct ModelGroup {
  int system_idx = 0;
  model::NetworkParams params;
  sim::FlowControl flow = sim::FlowControl::kWormhole;
  std::vector<double> p_out_override;  ///< empty for uniform traffic
  /// A model runs when the spec enables it and it covers the group (its
  /// static unsupported_reason).
  bool paper = false;
  bool refined = false;
  std::vector<std::size_t> row_indices;
};

/// The analytical models a group runs.
struct GroupModels {
  /// With `knee_only`, builds just the model knee() reads.
  GroupModels(const ModelGroup& group, const topo::SystemConfig& config,
              bool knee_only = false) {
    if (group.paper && !(knee_only && group.refined))
      paper = std::make_unique<model::PaperModel>(config, group.params,
                                                  group.p_out_override);
    if (group.refined)
      refined = std::make_unique<model::RefinedModel>(
          config, group.params, group.p_out_override, group.flow);
  }

  /// The group's knee: the refined model's when it runs, else the paper
  /// model's, else -1. The knee column and the saturation search's seed
  /// both read it, so the sim/model ratio shares its denominator with
  /// the column.
  [[nodiscard]] double knee() const {
    if (refined) return model::find_saturation(*refined).lambda_sat;
    if (paper) return model::find_saturation(*paper).lambda_sat;
    return -1.0;
  }

  std::unique_ptr<model::PaperModel> paper;
  std::unique_ptr<model::RefinedModel> refined;
};

// One (system, message_flits, flit_bytes, pattern, relay, flow)
// combination: the simulation-side saturation knee depends on the relay
// mode too (unlike the analytical models), so search groups refine the
// model groups by the relay dimension. The search task bisects its model
// group's knee (the search seed and its rows' knee column).
struct SearchGroup {
  std::size_t model_group = 0;  ///< index into the ModelGroup vector
  int pattern_idx = 0;
  sim::RelayMode relay = sim::RelayMode::kStoreForward;
  std::uint64_t seed_coords[6] = {};  ///< grid coords of the group
  std::vector<std::size_t> row_indices;
};

/// Seed-stream tag separating per-group search seeds from the row tasks'
/// 8-coordinate replication chains.
constexpr std::uint64_t kSearchSeedTag = 0x5ea4'c11f'0b15'ec75ULL;

const char* hetero_label(const topo::SystemConfig& config) {
  const bool net = config.heterogeneous_params();
  const bool load = config.heterogeneous_load();
  if (net && load) return "net+load";
  if (net) return "net";
  if (load) return "load";
  return "uniform";
}

/// The expanded grid plus the task groupings built over it. Shared by
/// run() and plan() so the two can never disagree on row identity — the
/// foundation of the cache-key contract.
struct Expansion {
  std::vector<PatternEntry> patterns;
  std::vector<std::unique_ptr<topo::MultiClusterTopology>> topologies;
  std::vector<SweepRow> rows;  ///< grid order
  std::vector<ModelGroup> groups;           ///< indices into `rows`
  std::vector<SearchGroup> search_groups;   ///< indices into `rows`
};

/// Walk the spec's 7-dimensional nesting into rows and group them.
/// `knees` (flits-major, empty for absolute loads) scales each load
/// fraction to the row's absolute lambda.
Expansion expand_grid(const ScenarioSpec& spec,
                      const std::vector<double>& knees) {
  Expansion ex;
  ex.patterns = spec.patterns;
  if (ex.patterns.empty())
    ex.patterns.push_back({"uniform", sim::TrafficPattern{}});

  ex.topologies.reserve(spec.systems.size());
  for (const SystemEntry& system : spec.systems)
    ex.topologies.push_back(
        std::make_unique<topo::MultiClusterTopology>(system.config));

  ex.rows.reserve(static_cast<std::size_t>(spec.grid_size()));

  std::map<std::tuple<int, int, int, int, int>, std::size_t> group_of;
  std::map<std::tuple<int, int, int, int, int, int>, std::size_t>
      search_group_of;
  std::int64_t grid_index = 0;

  for (int sys = 0; sys < static_cast<int>(spec.systems.size()); ++sys) {
    for (int fi = 0; fi < static_cast<int>(spec.message_flits.size()); ++fi) {
      for (int bi = 0; bi < static_cast<int>(spec.flit_bytes.size()); ++bi) {
        for (int pi = 0; pi < static_cast<int>(ex.patterns.size()); ++pi) {
          for (int ri = 0; ri < static_cast<int>(spec.relay_modes.size());
               ++ri) {
            for (int wi = 0;
                 wi < static_cast<int>(spec.flow_controls.size()); ++wi) {
              for (int li = 0; li < static_cast<int>(spec.loads.size());
                   ++li) {
                SweepRow row;
                row.grid_index = grid_index++;
                row.system_idx = sys;
                row.flits_idx = fi;
                row.bytes_idx = bi;
                row.pattern_idx = pi;
                row.relay_idx = ri;
                row.flow_idx = wi;
                row.load_idx = li;
                row.system_id = spec.systems[static_cast<std::size_t>(sys)].id;
                row.pattern_id = ex.patterns[static_cast<std::size_t>(pi)].id;
                row.icn2_kind = spec.systems[static_cast<std::size_t>(sys)]
                                    .config.icn2.label();
                row.hetero = hetero_label(
                    spec.systems[static_cast<std::size_t>(sys)].config);
                row.message_flits =
                    spec.message_flits[static_cast<std::size_t>(fi)];
                row.flit_bytes = spec.flit_bytes[static_cast<std::size_t>(bi)];
                row.relay = spec.relay_modes[static_cast<std::size_t>(ri)];
                row.flow = spec.flow_controls[static_cast<std::size_t>(wi)];
                row.lambda = spec.loads[static_cast<std::size_t>(li)];
                if (!knees.empty())
                  row.lambda *= knees[static_cast<std::size_t>(fi) *
                                          spec.flit_bytes.size() +
                                      static_cast<std::size_t>(bi)];

                const auto key = std::make_tuple(sys, fi, bi, pi, wi);
                auto [it, inserted] =
                    group_of.try_emplace(key, ex.groups.size());
                if (inserted) {
                  ModelGroup group;
                  group.system_idx = sys;
                  group.params = spec.base_params;
                  group.params.message_flits = row.message_flits;
                  group.params.flit_bytes = row.flit_bytes;
                  group.flow = row.flow;
                  const sim::TrafficPattern& pattern =
                      ex.patterns[static_cast<std::size_t>(pi)].pattern;
                  group.paper =
                      spec.run_paper_model &&
                      model::PaperModel::unsupported_reason(
                          spec.systems[static_cast<std::size_t>(sys)].config,
                          pattern, row.flow) == nullptr;
                  group.refined =
                      spec.run_refined_model &&
                      model::RefinedModel::unsupported_reason(pattern) ==
                          nullptr;
                  if (pattern.kind != sim::PatternKind::kUniform &&
                      (group.paper || group.refined)) {
                    const auto& topology = *ex.topologies[
                        static_cast<std::size_t>(sys)];
                    for (int c = 0;
                         c < topology.config().cluster_count(); ++c)
                      group.p_out_override.push_back(
                          pattern.p_outgoing(topology, c));
                  }
                  ex.groups.push_back(std::move(group));
                }
                ex.groups[it->second].row_indices.push_back(ex.rows.size());
                if (spec.find_sim_saturation) {
                  const auto skey =
                      std::make_tuple(sys, fi, bi, pi, ri, wi);
                  auto [sit, s_inserted] = search_group_of.try_emplace(
                      skey, ex.search_groups.size());
                  if (s_inserted) {
                    SearchGroup sg;
                    sg.model_group = it->second;
                    sg.pattern_idx = pi;
                    sg.relay = row.relay;
                    sg.seed_coords[0] = static_cast<std::uint64_t>(sys);
                    sg.seed_coords[1] = static_cast<std::uint64_t>(fi);
                    sg.seed_coords[2] = static_cast<std::uint64_t>(bi);
                    sg.seed_coords[3] = static_cast<std::uint64_t>(pi);
                    sg.seed_coords[4] = static_cast<std::uint64_t>(ri);
                    sg.seed_coords[5] = static_cast<std::uint64_t>(wi);
                    ex.search_groups.push_back(std::move(sg));
                  }
                  ex.search_groups[sit->second].row_indices.push_back(
                      ex.rows.size());
                }
                ex.rows.push_back(std::move(row));
              }
            }
          }
        }
      }
    }
  }
  return ex;
}

/// Fold one row's replications into its aggregate columns in fixed
/// replication order, so the result does not depend on which task
/// finishes the row. Counts, causes and the cross-replication interval
/// come from sim::aggregate_replications; the percentile means, the
/// external share and the single-run fallback are the row's own.
void aggregate_sim_row(SweepRow& row, std::vector<sim::SimResult> runs) {
  const sim::ReplicationResult agg =
      sim::aggregate_replications(std::move(runs));
  row.sim_run = true;
  row.replications = agg.replications;
  row.completed = agg.completed;
  row.saturated = agg.saturated;
  // Keep the cap tokens: "saturated" alone cannot distinguish a
  // blocked-worm blowup from an exhausted event budget.
  for (const std::string& cause : agg.saturation_causes) {
    if (!row.saturation_causes.empty()) row.saturation_causes += '+';
    row.saturation_causes += cause;
  }
  if (row.completed == 0) {
    row.sim_state = 1;
    return;
  }

  util::OnlineMoments p50, p95, p99;
  std::int64_t n_internal = 0, n_external = 0;
  const sim::SimResult* sole_completed = nullptr;
  for (const sim::SimResult& run : agg.runs) {
    if (run.saturated) continue;
    sole_completed = &run;
    if (run.latency_p50 >= 0.0) {
      p50.add(run.latency_p50);
      p95.add(run.latency_p95);
      p99.add(run.latency_p99);
    }
    n_internal += run.measured_internal;
    n_external += run.measured_external;
  }
  row.sim_latency = agg.latency.mean;
  // A single completed replication has no cross-replication interval:
  // fall back on its batch-means CI.
  row.sim_ci = row.completed == 1 ? sole_completed->latency.half_width
                                  : agg.latency.half_width;
  row.sim_internal = agg.internal_latency.mean;
  row.sim_external = agg.external_latency.mean;
  if (p50.count() > 0) {
    row.sim_p50 = p50.mean();
    row.sim_p95 = p95.mean();
    row.sim_p99 = p99.mean();
  }
  if (n_internal + n_external > 0)
    row.external_share = static_cast<double>(n_external) /
                         static_cast<double>(n_internal + n_external);
  if (row.saturated > 0) row.sim_state = 2;
}

}  // namespace

std::string row_label(const SweepRow& row) {
  char lambda[32];
  std::snprintf(lambda, sizeof(lambda), "%g", row.lambda);
  return row.system_id + "/" + row.pattern_id + "/" +
         (row.relay == sim::RelayMode::kCutThrough ? "cut" : "sf") + "/" +
         (row.flow == sim::FlowControl::kStoreAndForward ? "saf" : "wh") +
         " f" + std::to_string(row.message_flits) + " lambda=" + lambda;
}

SweepRunner::SweepRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  // The sim/model saturation ratio needs its analytical denominator in
  // the output rows.
  if (spec_.find_sim_saturation) spec_.find_knee = true;
  // Patterns can only be validated against concrete topologies (their
  // constraints depend on cluster sizes); fail fast here rather than in a
  // worker thread.
  for (const SystemEntry& system : spec_.systems) {
    const topo::MultiClusterTopology topology(system.config);
    for (const PatternEntry& entry : spec_.patterns)
      entry.pattern.validate(topology);
  }
  // Knee-relative loads: the reference knee of each (flits, bytes) point
  // is the smallest uniform-traffic wormhole refined knee over the
  // systems, so every organization runs at the same absolute loads.
  if (spec_.knee_relative_loads) {
    for (const int flits : spec_.message_flits) {
      for (const double bytes : spec_.flit_bytes) {
        model::NetworkParams params = spec_.base_params;
        params.message_flits = flits;
        params.flit_bytes = bytes;
        double knee = std::numeric_limits<double>::infinity();
        for (const SystemEntry& system : spec_.systems)
          knee = std::min(
              knee, model::find_saturation(
                        model::RefinedModel(system.config, params))
                        .lambda_sat);
        knees_.push_back(knee);
      }
    }
  }
}

SweepPlan SweepRunner::plan(const std::string& fingerprint) const {
  Expansion ex = expand_grid(spec_, knees_);
  SweepPlan result;
  result.rows = std::move(ex.rows);
  const std::string fp =
      fingerprint.empty() ? binary_fingerprint() : fingerprint;
  result.digests.reserve(result.rows.size());
  for (const SweepRow& row : result.rows)
    result.digests.push_back(row_digest(spec_, row, fp));
  return result;
}

SweepResult SweepRunner::run(const SweepRunOptions& options) const {
  // mcs-lint: allow(raw-entropy) wall_seconds telemetry; never feeds rows.
  const auto t0 = std::chrono::steady_clock::now();

  // --- service-mode validation -------------------------------------------
  if (options.resume && options.checkpoint_path.empty())
    throw ConfigError("sweep: --resume requires a checkpoint path");
  const bool service = options.resume || !options.cache_dir.empty() ||
                       !options.checkpoint_path.empty();
  if (service &&
      (options.collect_probes || options.collect_traces || options.explain))
    throw ConfigError(
        "sweep: probes/traces/explain cannot combine with "
        "cache/checkpoint modes — a restored row has nothing to "
        "observe, so the captures would be silently partial");

  SweepResult result;
  result.manifest = obs::RunManifest::begin();

  // --- expansion: topologies, rows, model groups -------------------------
  Expansion ex = expand_grid(spec_, knees_);
  const std::vector<PatternEntry>& patterns = ex.patterns;
  std::vector<ModelGroup>& groups = ex.groups;
  std::vector<SearchGroup>& search_groups = ex.search_groups;

  result.name = spec_.name;
  result.rows = std::move(ex.rows);
  std::vector<SweepRow>& rows = result.rows;

  // --- restore phase: resume journal, then content-hash cache ------------
  // `restored[r]` != 0 means rows[r] already carries its final outputs
  // (1 = from the resume journal, 2 = from the cache) and none of its
  // tasks run.
  std::vector<std::string> digests;
  std::vector<char> restored(rows.size(), 0);
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<CheckpointWriter> journal;

  if (service) {
    const std::string fp = options.fingerprint.empty()
                               ? binary_fingerprint()
                               : options.fingerprint;
    digests.reserve(rows.size());
    for (const SweepRow& row : rows)
      digests.push_back(row_digest(spec_, row, fp));
  }
  if (!options.cache_dir.empty())
    cache = std::make_unique<ResultCache>(options.cache_dir);

  if (options.resume) {
    // Entries are matched by content digest, so a journal from a
    // different scenario/flag set/binary simply restores nothing — stale
    // data can never leak into the rows.
    if (const std::optional<Journal> prior =
            load_journal(options.checkpoint_path)) {
      // mcs-lint: note(unordered-iter) lookup-only index: probed with
      // find() per grid row, never iterated into output or accumulation —
      // hash order cannot reach the restored rows (regression:
      // exp_service_test ResumeOrderIndependent).
      std::unordered_map<std::string, const JournalEntry*> by_digest;
      for (const JournalEntry& entry : prior->entries)
        by_digest.emplace(entry.digest, &entry);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto it = by_digest.find(digests[r]);
        if (it != by_digest.end() &&
            decode_row_payload(it->second->payload, rows[r]))
          restored[r] = 1;
      }
    }
  }
  if (cache) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (restored[r]) continue;
      const std::optional<std::string> payload = cache->load(digests[r]);
      if (payload && decode_row_payload(*payload, rows[r]))
        restored[r] = 2;
    }
  }
  for (const char r : restored) result.cached_rows += r != 0;

  if (!options.checkpoint_path.empty()) {
    journal = std::make_unique<CheckpointWriter>(options.checkpoint_path,
                                                 spec_.name, 0, 1);
    // Seed the journal with the restored rows (one rewrite) so it covers
    // them even before any new row finishes; rows restored from the
    // journal itself also warm the cache.
    std::vector<JournalEntry> preload;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (!restored[r]) continue;
      const std::string payload = encode_row_payload(rows[r]);
      preload.push_back({rows[r].grid_index, digests[r], payload});
      if (cache && restored[r] == 1) cache->store(digests[r], payload);
    }
    journal->add_batch(preload);
  }

  // --- execution ---------------------------------------------------------
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(options.threads);
    pool = owned_pool.get();
  }
  result.threads = pool->thread_count();

  const int reps = spec_.replications;
  const bool run_models = spec_.run_paper_model || spec_.run_refined_model;

  // Which groups still have uncomputed rows? Fully restored groups are
  // skipped whole; a partially restored group re-runs and overwrites the
  // restored rows' model columns with deterministically identical values.
  const auto group_needed = [&](const std::vector<std::size_t>& indices) {
    for (const std::size_t r : indices)
      if (!restored[r]) return true;
    return false;
  };
  std::vector<char> model_submitted(groups.size(), 0);
  std::size_t model_task_count = 0;
  if (run_models) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      model_submitted[g] = group_needed(groups[g].row_indices) ? 1 : 0;
      model_task_count += model_submitted[g];
    }
  }
  std::vector<char> search_submitted(search_groups.size(), 0);
  // Simulator runs of each search group's probes, one slot per group
  // (written by its task, summed into sim_tasks after wait_idle()).
  std::vector<std::int64_t> search_sims(search_groups.size(), 0);
  std::size_t search_task_count = 0;
  for (std::size_t g = 0; g < search_groups.size(); ++g) {
    search_submitted[g] =
        group_needed(search_groups[g].row_indices) ? 1 : 0;
    search_task_count += search_submitted[g];
  }
  std::size_t sim_task_count = 0;
  if (spec_.run_sim) {
    for (std::size_t r = 0; r < rows.size(); ++r)
      if (!restored[r]) sim_task_count += static_cast<std::size_t>(reps);
  }

  // --- task telemetry ----------------------------------------------------
  // One preallocated TaskStat slot per task (model groups + row
  // replications + search groups, all known before anything is
  // submitted); each task writes only its own slot, so no
  // synchronization. The heartbeat ticks through two atomics.
  result.task_stats.resize(model_task_count + sim_task_count +
                           search_task_count);
  std::vector<TaskStat>& stats = result.task_stats;
  const std::int64_t total_tasks =
      static_cast<std::int64_t>(stats.size());
  std::atomic<std::int64_t> tasks_done{0};
  std::atomic<std::int64_t> last_beat_ms{0};
  std::size_t next_slot = 0;

  // Wrap a task body with its telemetry slot: queue wait (submit ->
  // scheduled), exec time, worker index — then the rate-limited
  // progress/ETA heartbeat (options.progress; ~one line per 2 s, always
  // on the final task).
  const auto instrument = [&](char kind, auto body) {
    const std::size_t slot = next_slot++;
    // mcs-lint: allow(raw-entropy) TaskStat queue-wait telemetry only.
    const auto submit_time = std::chrono::steady_clock::now();
    return [&stats, &tasks_done, &last_beat_ms, total_tasks, t0, pool,
            progress = options.progress, name = spec_.name, kind, slot,
            submit_time, body = std::move(body)] {
      // mcs-lint: allow(raw-entropy) TaskStat exec-time telemetry only.
      const auto start = std::chrono::steady_clock::now();
      body();
      // mcs-lint: allow(raw-entropy) TaskStat exec-time telemetry only.
      const auto end = std::chrono::steady_clock::now();
      TaskStat& st = stats[slot];
      st.kind = kind;
      st.queue_wait =
          std::chrono::duration<double>(start - submit_time).count();
      st.exec = std::chrono::duration<double>(end - start).count();
      st.thread = pool->worker_index();

      const std::int64_t done =
          tasks_done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (!progress) return;
      const std::int64_t ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(end - t0)
              .count();
      std::int64_t last = last_beat_ms.load(std::memory_order_relaxed);
      const bool final_task = done == total_tasks;
      if (!final_task &&
          (ms - last < 2000 ||
           !last_beat_ms.compare_exchange_strong(last, ms)))
        return;
      const double elapsed = static_cast<double>(ms) / 1000.0;
      const double eta =
          elapsed * static_cast<double>(total_tasks - done) /
          static_cast<double>(done);
      // One fprintf call per line: stdio locks the stream for the call,
      // so concurrent workers never interleave mid-line.
      std::fprintf(stderr,
                   "sweep %s: %lld/%lld tasks (%.0f%%), elapsed %.1fs, "
                   "eta %.1fs\n",
                   name.c_str(), static_cast<long long>(done),
                   static_cast<long long>(total_tasks),
                   100.0 * static_cast<double>(done) /
                       static_cast<double>(total_tasks),
                   elapsed, eta);
    };
  };

  // Flight-recorder captures: replication 0 of each row gets a probe
  // series / trace buffer (configs from the spec's [observe] block).
  // Preallocated here so the pointers handed to tasks stay stable.
  // (Mutually exclusive with the service modes — validated above — so a
  // captured row is always a computed row.)
  std::vector<obs::ProbeSeries>& row_probes = result.row_probes;
  std::vector<obs::TraceBuffer>& row_traces = result.row_traces;
  if (spec_.run_sim && options.collect_probes)
    row_probes.assign(rows.size(), obs::ProbeSeries(spec_.probe));
  if (spec_.run_sim && options.collect_traces) {
    row_traces.reserve(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      obs::TraceBuffer buffer(spec_.trace, static_cast<int>(r));
      buffer.set_label(row_label(rows[r]));
      row_traces.push_back(std::move(buffer));
    }
  }
  // Attribution mode: a LatencyAnatomy per simulated row (replication 0,
  // like the flight recorder) and a model breakdown slot per row (written
  // by the row's model-group task; empty clusters = not computed).
  std::vector<obs::LatencyAnatomy>& row_anatomy = result.row_anatomy;
  if (spec_.run_sim && options.explain)
    row_anatomy.assign(rows.size(), obs::LatencyAnatomy{});
  std::vector<model::ModelBreakdown>& row_breakdown = result.row_breakdown;
  const bool explain_model = options.explain && spec_.run_refined_model;
  if (explain_model) row_breakdown.resize(rows.size());

  // Per-row countdown of the tasks still owing output to the row (sim
  // replications + its model-group task + its search-group task, when
  // submitted). The task that decrements a counter to zero finalizes the
  // row: aggregate, then journal and cache when they exist. Restored rows
  // start at zero and are never finalized again.
  std::vector<std::vector<sim::SimResult>> sim_runs;
  if (spec_.run_sim) sim_runs.resize(rows.size());
  const std::unique_ptr<std::atomic<int>[]> pending(
      new std::atomic<int>[rows.size()]);
  for (std::size_t r = 0; r < rows.size(); ++r)
    pending[r].store(restored[r] ? 0 : (spec_.run_sim ? reps : 0),
                     std::memory_order_relaxed);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!model_submitted[g]) continue;
    for (const std::size_t r : groups[g].row_indices)
      if (!restored[r]) pending[r].fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t g = 0; g < search_groups.size(); ++g) {
    if (!search_submitted[g]) continue;
    for (const std::size_t r : search_groups[g].row_indices)
      if (!restored[r]) pending[r].fetch_add(1, std::memory_order_relaxed);
  }
  const auto finalize_row = [&](std::size_t r) {
    SweepRow& row = rows[r];
    if (spec_.run_sim) aggregate_sim_row(row, std::move(sim_runs[r]));
    if (!journal && !cache) return;
    const std::string payload = encode_row_payload(row);
    if (journal) journal->add(row.grid_index, digests[r], payload);
    if (cache) cache->store(digests[r], payload);
  };
  const auto complete_row = [&](std::size_t r) {
    if (pending[r].fetch_sub(1, std::memory_order_acq_rel) == 1)
      finalize_row(r);
  };

  // Saturation-search tasks: one closed-loop bisection per search group
  // with uncomputed rows. Probes run serially inside the task
  // (run_replications_sequential); the groups themselves fan out across
  // the pool. Each group's rows get the same sim_lambda_sat / sat_ratio,
  // written by exactly one task. A search is the longest task in a
  // sweep and the pool starts tasks in submission order, so searches
  // are submitted first: none is left to run alone at the tail.
  for (std::size_t g = 0; g < search_groups.size(); ++g) {
    if (!search_submitted[g]) continue;
    SearchGroup& sg = search_groups[g];
    const ModelGroup& mg = groups[sg.model_group];
    const topo::MultiClusterTopology& topology =
        *ex.topologies[static_cast<std::size_t>(mg.system_idx)];
    pool->submit(instrument('k', [this, g, &sg, &mg, &topology, &patterns,
                                  &rows, &restored, &complete_row,
                                  &search_sims] {
      const topo::SystemConfig& config =
          spec_.systems[static_cast<std::size_t>(mg.system_idx)].config;
      // Analytical seed knee, which is also the knee column of the
      // group's rows (GroupModels::knee). <= 0 makes SaturationSearch
      // fall back to the closed-form estimate.
      const double model_sat =
          GroupModels(mg, config, /*knee_only=*/true).knee();

      sim::SimConfig cfg;
      cfg.seed = derive_seed(
          spec_.seed,
          {sg.seed_coords[0], sg.seed_coords[1], sg.seed_coords[2],
           sg.seed_coords[3], sg.seed_coords[4], sg.seed_coords[5],
           kSearchSeedTag});
      cfg.relay_mode = sg.relay;
      cfg.flow_control = mg.flow;
      cfg.warmup_messages = spec_.warmup;
      cfg.measured_messages = spec_.measured;
      cfg.pattern =
          patterns[static_cast<std::size_t>(sg.pattern_idx)].pattern;
      cfg.warmup_deletion = spec_.search_warmup;

      const SaturationSearch search(topology, mg.params, cfg,
                                    spec_.search);
      const SaturationSearchResult found = search.run(model_sat);
      for (const SaturationProbe& p : found.trace)
        search_sims[g] += p.replications;
      for (const std::size_t r : sg.row_indices) {
        rows[r].knee_lambda = model_sat;
        // Negative = missing, like every other output column: a search
        // that found no stable load reports no knee (never a
        // confident-looking 0.0), and the ratio is only published
        // against a real model knee — the estimate fallback seeds the
        // bracket but is not the knee column's denominator.
        rows[r].sim_lambda_sat =
            found.lambda_sat > 0.0 ? found.lambda_sat : -1.0;
        rows[r].sat_ratio = model_sat > 0.0 && found.lambda_sat > 0.0
                                ? found.ratio
                                : -1.0;
      }
      for (const std::size_t r : sg.row_indices)
        if (!restored[r]) complete_row(r);
    }));
  }

  // Model tasks: one per group with uncomputed rows (construction
  // dominates; predictions for the group's loads ride along). Each row's
  // model fields are written by exactly one task, so no synchronization:
  // with the saturation search on, the search tasks write the knee
  // column, and the model task does not bisect.
  const bool model_knee = spec_.find_knee && !spec_.find_sim_saturation;
  if (run_models) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (!model_submitted[g]) continue;
      ModelGroup& group = groups[g];
      pool->submit(instrument('m', [this, &group, &rows, &row_breakdown,
                                    &restored, &complete_row,
                                    explain_model, model_knee] {
        const GroupModels models(
            group,
            spec_.systems[static_cast<std::size_t>(group.system_idx)].config);
        const double knee = model_knee ? models.knee() : -1.0;
        for (const std::size_t r : group.row_indices) {
          SweepRow& row = rows[r];
          if (model_knee) row.knee_lambda = knee;
          if (models.paper) {
            const model::LatencyPrediction p =
                models.paper->predict(row.lambda);
            row.paper_run = true;
            row.paper_latency = p.mean_latency;
            row.paper_stable = p.stable;
          }
          if (models.refined) {
            const model::LatencyPrediction p =
                models.refined->predict(row.lambda);
            row.refined_run = true;
            row.refined_latency = p.mean_latency;
            row.refined_stable = p.stable;
            if (explain_model)
              row_breakdown[r] = models.refined->breakdown(row.lambda);
          }
        }
        for (const std::size_t r : group.row_indices)
          if (!restored[r]) complete_row(r);
      }));
    }
  }

  // Simulation tasks: one per (uncomputed row, replication). Seeds depend
  // only on grid coordinates, never on scheduling.
  if (spec_.run_sim) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (restored[r]) continue;
      sim_runs[r].resize(static_cast<std::size_t>(reps));
      const SweepRow& row = rows[r];
      const topo::MultiClusterTopology& topology =
          *ex.topologies[static_cast<std::size_t>(row.system_idx)];
      for (int rep = 0; rep < reps; ++rep) {
        pool->submit(instrument('s', [this, &row, &topology, &patterns,
                                      &sim_runs, &row_probes, &row_traces,
                                      &row_anatomy, &complete_row, r,
                                      rep] {
          model::NetworkParams params = spec_.base_params;
          params.message_flits = row.message_flits;
          params.flit_bytes = row.flit_bytes;

          sim::SimConfig cfg;
          cfg.seed = derive_seed(
              spec_.seed,
              {static_cast<std::uint64_t>(row.system_idx),
               static_cast<std::uint64_t>(row.flits_idx),
               static_cast<std::uint64_t>(row.bytes_idx),
               static_cast<std::uint64_t>(row.pattern_idx),
               static_cast<std::uint64_t>(row.relay_idx),
               static_cast<std::uint64_t>(row.flow_idx),
               static_cast<std::uint64_t>(row.load_idx),
               static_cast<std::uint64_t>(rep)});
          cfg.relay_mode = row.relay;
          cfg.flow_control = row.flow;
          cfg.warmup_messages = spec_.warmup;
          cfg.measured_messages = spec_.measured;
          cfg.pattern =
              patterns[static_cast<std::size_t>(row.pattern_idx)].pattern;
          // Replication 0 carries the row's flight recorder; observation
          // is bit-invisible to results, so rep 0 stays comparable to the
          // uninstrumented replications.
          if (rep == 0) {
            if (!row_probes.empty()) cfg.probes = &row_probes[r];
            if (!row_traces.empty()) cfg.trace = &row_traces[r];
            if (!row_anatomy.empty()) cfg.anatomy = &row_anatomy[r];
          }

          sim_runs[r][static_cast<std::size_t>(rep)] =
              sim::Simulator(topology, params, row.lambda, cfg).run();
          complete_row(r);
        }));
        ++result.sim_tasks;
      }
    }
  }

  pool->wait_idle();
  for (const std::int64_t sims : search_sims) result.sim_tasks += sims;

  // Fold the journal's append segment into its sorted base: the mid-run
  // append order tracks task completion (scheduling-dependent), but the
  // finalized bytes depend only on the recorded rows, so two completed
  // runs of the same scenario leave byte-identical journals.
  if (journal) journal->finalize();

  // Every computed row was aggregated by its finalizing task; restored
  // rows carry their outputs from the payload.
  for (const SweepRow& row : rows)
    if (row.sim_state != 0) ++result.saturated_points;

  result.wall_seconds =
      // mcs-lint: allow(raw-entropy) wall_seconds telemetry; never feeds rows.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.manifest.complete();
  return result;
}

}  // namespace mcs::exp
