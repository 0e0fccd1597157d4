// Campaign benchmark program: runs one named workload through the library's
// public entry points (exp::SweepRunner on a one-worker exp::ThreadPool,
// the result cache and checkpoint journal), times it end to end, checks
// its outputs, and — with --trace 1 — replays the same grid layer by layer
// through each module's public calls (topology, sim, model, exp, util),
// recording spans around every call into a Chrome trace-event file.
//
//   campaign_bench --workload fig3_campaign|knee_search|model_campaign
//                  --seed N --seconds S --trace 0|1 --out DIR
//
// The last stdout line is one JSON report (metrics, identity record,
// provenance); perfbench/run.py turns it into the benchmark result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/result_cache.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_io.hpp"
#include "exp/thread_pool.hpp"
#include "model/graph_load.hpp"
#include "model/paper_model.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "topology/fat_tree.hpp"
#include "topology/multi_cluster.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fs = std::filesystem;
using namespace mcs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  return util::percentile_inplace(xs, 0.5);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  return util::percentile_inplace(xs, q);
}

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s;
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

// ------------------------------------------------------------------ json --

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? ", " : "") + json_number(xs[i]);
  return out + "]";
}

/// Insertion-ordered JSON object of pre-rendered values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------- tracer --

/// In-memory span recorder around every call the replay makes into the
/// library. Closed spans go into an obs::TraceBuffer (Chrome trace-event
/// JSON) whose args carry the span's id and its parent's, so the self-time
/// table can be rebuilt from the written file. A span's layer is the first
/// dot-separated part of its name.
class Tracer {
 public:
  explicit Tracer(std::string label)
      : buffer_(obs::TraceConfig{1, kMaxSpans}, /*pid=*/1) {
    buffer_.set_label(std::move(label));
  }

  /// Run `body` inside a span; returns the span's duration in seconds.
  template <class F>
  double span(std::string name, F&& body) {
    open_.push_back({next_id_++, now_us(), {}});
    body();
    const double end_us = now_us();
    const Open s = std::move(open_.back());
    open_.pop_back();
    const int parent = open_.empty() ? -1 : open_.back().id;
    buffer_.complete(std::move(name), /*tid=*/1, s.start_us,
                     end_us - s.start_us,
                     "\"id\":" + std::to_string(s.id) +
                         ",\"parent\":" + std::to_string(parent) + s.args);
    return (end_us - s.start_us) * 1e-6;
  }

  /// Attach a count to the innermost open span.
  void annotate(const std::string& key, double value) {
    open_.back().args += "," + json_string(key) + ":" + json_number(value);
  }

  void write(const fs::path& path) const {
    if (buffer_.dropped() > 0)
      throw std::runtime_error("span buffer overflowed");
    obs::write_trace_file(path.string(), {&buffer_});
  }

 private:
  static constexpr std::size_t kMaxSpans = 2'000'000;

  struct Open {
    int id = 0;
    double start_us = 0.0;
    std::string args;  ///< ",\"key\":value" pairs
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  obs::TraceBuffer buffer_;
  std::vector<Open> open_;
  int next_id_ = 0;
};

// ------------------------------------------------------------- workloads --

const std::vector<std::string> kWorkloads = {"fig3_campaign", "knee_search",
                                             "model_campaign"};

/// The workload's scenario with `seed` as its scenario seed.
exp::ScenarioSpec load_workload(const std::string& name, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  if (name == "fig3_campaign") {
    spec = exp::load_scenario(exp::default_scenario_dir() + "/fig3_m32.ini");
  } else if (name == "knee_search") {
    // `mcs_sweep table1 --find-saturation`, trimmed to M = 32 flits (both
    // organizations, both flit sizes: four search groups) so a pass fits
    // the run budget several times over. Each group's probe count depends
    // on its seed; four groups average that out of the pass time.
    spec = exp::load_scenario(exp::default_scenario_dir() + "/table1.ini");
    spec.find_sim_saturation = true;
    spec.message_flits = {32};
  } else if (name == "model_campaign") {
    spec = exp::load_scenario(std::string(PERFBENCH_DIR) +
                              "/scenarios/model_campaign.ini");
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.seed = seed;
  return spec;
}

bool uses_service(const std::string& workload) {
  return workload == "model_campaign";
}

/// One timed pass: the workload's whole campaign. model_campaign runs cold
/// with a fresh result cache and checkpoint journal, then warm once from
/// that cache.
struct Pass {
  double seconds = 0.0;
  exp::SweepResult cold;
  exp::SweepResult warm;  ///< model_campaign only
};

Pass run_pass(const exp::SweepRunner& runner, const std::string& workload,
              exp::ThreadPool& pool, const fs::path& scratch) {
  Pass pass;
  exp::SweepRunOptions options;
  options.pool = &pool;
  if (!uses_service(workload)) {
    const auto t0 = Clock::now();
    pass.cold = runner.run(options);
    pass.seconds = seconds_since(t0);
    return pass;
  }
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  options.cache_dir = (scratch / "cache").string();
  options.checkpoint_path = (scratch / "journal.txt").string();
  exp::SweepRunOptions warm_options;
  warm_options.pool = &pool;
  warm_options.cache_dir = options.cache_dir;
  const auto t0 = Clock::now();
  pass.cold = runner.run(options);
  pass.warm = runner.run(warm_options);
  pass.seconds = seconds_since(t0);
  fs::remove_all(scratch);
  return pass;
}

std::string stable_json(const exp::SweepResult& result) {
  std::ostringstream out;
  exp::write_json(result, out, /*stable=*/true);
  return out.str();
}

// ---------------------------------------------------------------- checks --

/// Per-row validity flags; a row fails when any check fails on it.
struct Checks {
  std::vector<char> bad;
  std::map<std::string, int> failures;  ///< check name -> rows failed

  explicit Checks(std::size_t rows) : bad(rows, 0) {}
  void fail(const std::string& check, std::size_t row) {
    ++failures[check];
    bad[row] = 1;
  }
  [[nodiscard]] int failed() const {
    return static_cast<int>(std::count(bad.begin(), bad.end(), 1));
  }
};

std::vector<std::string> row_payloads(const exp::SweepResult& result) {
  std::vector<std::string> payloads;
  for (const exp::SweepRow& row : result.rows)
    payloads.push_back(exp::encode_row_payload(row));
  return payloads;
}

/// Every steady simulated row has a finite latency.
void check_rows(const exp::SweepResult& result, Checks& checks) {
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const exp::SweepRow& row = result.rows[r];
    if (row.sim_run && row.sim_state == 0 &&
        !(std::isfinite(row.sim_latency) && row.sim_latency > 0.0))
      checks.fail("steady_row_finite_latency", r);
  }
}

/// A pass reproduces the first pass's rows bit for bit; a warm pass
/// restores every row from the cache without running a task.
void check_pass(const Pass& pass, const std::vector<std::string>& reference,
                bool service, Checks& checks) {
  const std::size_t rows = reference.size();
  const bool warm_ran_nothing = pass.warm.cached_rows ==
                                    static_cast<int>(rows) &&
                                pass.warm.task_stats.empty();
  for (std::size_t r = 0; r < rows; ++r) {
    if (exp::encode_row_payload(pass.cold.rows[r]) != reference[r])
      checks.fail("pass_to_pass_identical", r);
    if (!service) continue;
    if (!warm_ran_nothing) checks.fail("warm_pass_runs_nothing", r);
    if (exp::encode_row_payload(pass.warm.rows[r]) != reference[r])
      checks.fail("warm_restores_bit_identical", r);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------- replay --

/// Mirror of the sweep's private seed tags (exp/sweep.cpp search groups,
/// exp/saturation_search.cpp probes): the replay derives every seed
/// exactly as the library does.
constexpr std::uint64_t kSearchSeedTag = 0x5ea4'c11f'0b15'ec75ULL;
constexpr std::uint64_t kProbeTag = 0x5a70'5ea7'c4b1'5ec7ULL;

struct ReplayStats {
  std::int64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t worms = 0;
  std::uint64_t wasted_events = 0;  ///< runs ending saturated/non-stationary
  std::vector<double> topology_build_s;
  std::vector<double> sim_construct_s;
  std::vector<double> sim_run_s;
  std::vector<double> model_construct_s;
  std::vector<double> paper_predict_s;
  std::vector<double> refined_predict_s;
  std::vector<double> knee_s;
  std::int64_t knee_iterations = 0;
  double plan_s = 0.0;
  std::vector<double> digest_s;
  std::vector<double> cache_store_s;
  std::vector<double> cache_load_s;
  std::int64_t cache_hits = 0;
  std::vector<double> journal_add_s;
  double journal_finalize_s = 0.0;
  double emit_s = 0.0;
  std::int64_t search_probes = 0;
  std::int64_t search_replications = 0;
  std::vector<double> probe_s;
  double wall_s = 0.0;
};

/// Row indices grouped by `key(row)`, groups in first-occurrence order —
/// the order in which the sweep builds its model and search groups.
template <class Key>
std::vector<std::vector<std::size_t>> group_rows(
    const std::vector<exp::SweepRow>& rows, Key key) {
  std::map<decltype(key(exp::SweepRow{})), std::size_t> index;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto [it, inserted] = index.try_emplace(key(rows[r]), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(r);
  }
  return groups;
}

class Replay {
 public:
  Replay(const exp::ScenarioSpec& spec, bool service, Tracer& tracer,
         ReplayStats& stats)
      : spec_(spec), service_(service), tracer_(tracer), stats_(stats) {}

  /// Replay the whole grid; returns the replayed rows (coordinates from
  /// SweepRunner::plan, outputs from the replay's own calls).
  std::vector<exp::SweepRow> run(const exp::SweepRunner& runner,
                                 const exp::SweepResult& untraced,
                                 const fs::path& scratch) {
    const auto t0 = Clock::now();
    std::vector<exp::SweepRow> rows;
    tracer_.span("replay", [&] {
      exp::SweepPlan plan;
      const std::string fp = exp::binary_fingerprint();
      stats_.plan_s = tracer_.span("exp.plan",
                                   [&] { plan = runner.plan(fp); });
      rows = std::move(plan.rows);
      std::vector<std::string> digests(rows.size());
      for (std::size_t r = 0; r < rows.size(); ++r)
        stats_.digest_s.push_back(tracer_.span("exp.digest", [&] {
          digests[r] = exp::row_digest(spec_, rows[r], fp);
        }));
      build_topologies();
      replay_models(rows);
      if (spec_.run_sim) replay_sims(rows, untraced.rows);
      if (spec_.find_sim_saturation) replay_searches(rows);
      if (service_) replay_service(rows, digests, scratch);
      stats_.emit_s = tracer_.span("exp.emit", [&] {
        emit(untraced, scratch);
      });
    });
    stats_.wall_s = seconds_since(t0);
    return rows;
  }

 private:
  [[nodiscard]] const sim::TrafficPattern& pattern(int idx) const {
    static const sim::TrafficPattern kUniform{};
    return spec_.patterns.empty()
               ? kUniform
               : spec_.patterns[static_cast<std::size_t>(idx)].pattern;
  }

  [[nodiscard]] model::NetworkParams params_of(const exp::SweepRow& row) const {
    model::NetworkParams params = spec_.base_params;
    params.message_flits = row.message_flits;
    params.flit_bytes = row.flit_bytes;
    return params;
  }

  [[nodiscard]] const topo::SystemConfig& config_of(
      const exp::SweepRow& row) const {
    return spec_.systems[static_cast<std::size_t>(row.system_idx)].config;
  }

  [[nodiscard]] const topo::MultiClusterTopology& topology_of(
      const exp::SweepRow& row) const {
    return *topologies_[static_cast<std::size_t>(row.system_idx)];
  }

  void build_topologies() {
    for (const exp::SystemEntry& system : spec_.systems)
      stats_.topology_build_s.push_back(
          tracer_.span("topology.build", [&] {
            topologies_.push_back(
                std::make_unique<topo::MultiClusterTopology>(system.config));
          }));
  }

  /// Which models apply to a row's group, and its outgoing-traffic
  /// override (mirrors the sweep's grid expansion).
  struct GroupModels {
    bool refined_supported = true;
    bool paper_supported = true;
    std::vector<double> p_out;
  };

  GroupModels describe_group(const exp::SweepRow& row) const {
    GroupModels g;
    const sim::TrafficPattern& pat = pattern(row.pattern_idx);
    const topo::SystemConfig& config = config_of(row);
    g.refined_supported = pat.kind != sim::PatternKind::kHotspot;
    g.paper_supported = g.refined_supported &&
                        config.icn2.kind == topo::Icn2Kind::kFatTree &&
                        row.flow == sim::FlowControl::kWormhole &&
                        !config.heterogeneous_params() &&
                        !config.heterogeneous_load();
    if (pat.kind != sim::PatternKind::kUniform && g.refined_supported) {
      const auto& topology = topology_of(row);
      for (int c = 0; c < config.cluster_count(); ++c)
        g.p_out.push_back(pat.p_outgoing(topology, c));
    }
    return g;
  }

  std::unique_ptr<model::PaperModel> make_paper(const exp::SweepRow& row,
                                                const GroupModels& g) {
    std::unique_ptr<model::PaperModel> m;
    stats_.model_construct_s.push_back(
        tracer_.span("model.paper.construct", [&] {
          m = std::make_unique<model::PaperModel>(config_of(row),
                                                  params_of(row), g.p_out);
        }));
    return m;
  }

  std::unique_ptr<model::RefinedModel> make_refined(const exp::SweepRow& row,
                                                    const GroupModels& g) {
    std::unique_ptr<model::RefinedModel> m;
    stats_.model_construct_s.push_back(
        tracer_.span("model.refined.construct", [&] {
          m = std::make_unique<model::RefinedModel>(
              config_of(row), params_of(row), g.p_out, row.flow);
        }));
    return m;
  }

  double knee(const model::LatencyModel& m) {
    model::SaturationResult found;
    stats_.knee_s.push_back(tracer_.span("model.knee", [&] {
      found = model::find_saturation(m);
      tracer_.annotate("iterations", found.iterations);
    }));
    stats_.knee_iterations += found.iterations;
    return found.lambda_sat;
  }

  void replay_models(std::vector<exp::SweepRow>& rows) {
    if (!spec_.run_paper_model && !spec_.run_refined_model) return;
    const auto groups = group_rows(rows, [](const exp::SweepRow& row) {
      return std::make_tuple(row.system_idx, row.flits_idx, row.bytes_idx,
                             row.pattern_idx, row.flow_idx);
    });
    for (const std::vector<std::size_t>& members : groups) {
      const exp::SweepRow& first = rows[members.front()];
      const GroupModels g = describe_group(first);
      if (!g.refined_supported) continue;
      std::unique_ptr<model::PaperModel> paper;
      std::unique_ptr<model::RefinedModel> refined;
      if (spec_.run_paper_model && g.paper_supported)
        paper = make_paper(first, g);
      if (spec_.run_refined_model) refined = make_refined(first, g);
      double knee_lambda = -1.0;
      if (spec_.find_knee && (refined || paper))
        knee_lambda = refined ? knee(*refined) : knee(*paper);
      for (const std::size_t r : members) {
        exp::SweepRow& row = rows[r];
        row.knee_lambda = knee_lambda;
        model::LatencyPrediction p;
        if (paper) {
          stats_.paper_predict_s.push_back(tracer_.span(
              "model.paper.predict",
              [&] { p = paper->predict(row.lambda); }));
          row.paper_run = true;
          row.paper_latency = p.mean_latency;
          row.paper_stable = p.stable;
        }
        if (refined) {
          stats_.refined_predict_s.push_back(tracer_.span(
              "model.refined.predict",
              [&] { p = refined->predict(row.lambda); }));
          row.refined_run = true;
          row.refined_latency = p.mean_latency;
          row.refined_stable = p.stable;
        }
      }
    }
  }

  // The util calls the replay makes itself, each spanned.
  std::uint64_t derive_seed(std::uint64_t base,
                            std::initializer_list<std::uint64_t> coords) {
    std::uint64_t seed = 0;
    tracer_.span("util.derive_seed",
                 [&] { seed = util::derive_seed(base, coords); });
    return seed;
  }

  double interval_mean(const util::OnlineMoments& moments) {
    double mean = 0.0;
    tracer_.span("util.t_interval",
                 [&] { mean = util::t_interval(moments).mean; });
    return mean;
  }

  double half_width(const util::OnlineMoments& moments) {
    double width = 0.0;
    tracer_.span("util.relative_half_width",
                 [&] { width = util::relative_half_width(moments); });
    return width;
  }

  /// One Simulator construction + run, spanned separately.
  sim::SimResult simulate(const topo::MultiClusterTopology& topology,
                          const model::NetworkParams& params, double lambda,
                          const sim::SimConfig& cfg) {
    std::unique_ptr<sim::Simulator> simulator;
    sim::SimResult result;
    stats_.sim_construct_s.push_back(
        tracer_.span("sim.construct", [&] {
          simulator =
              std::make_unique<sim::Simulator>(topology, params, lambda, cfg);
        }));
    stats_.sim_run_s.push_back(tracer_.span("sim.run", [&] {
      result = simulator->run();
      tracer_.annotate("events", static_cast<double>(result.events_processed));
      tracer_.annotate("worms", static_cast<double>(result.worms_spawned));
      tracer_.annotate("saturated", result.saturated);
    }));
    ++stats_.runs;
    stats_.events += result.events_processed;
    stats_.worms += result.worms_spawned;
    return result;
  }

  void replay_sims(std::vector<exp::SweepRow>& rows,
                   const std::vector<exp::SweepRow>& untraced) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      exp::SweepRow& row = rows[r];
      const auto& topology = topology_of(row);
      const model::NetworkParams params = params_of(row);
      util::OnlineMoments latency;
      const sim::SimResult* sole = nullptr;
      std::vector<sim::SimResult> runs;
      runs.reserve(static_cast<std::size_t>(spec_.replications));
      for (int rep = 0; rep < spec_.replications; ++rep) {
        sim::SimConfig cfg;
        cfg.seed = derive_seed(
            spec_.seed, {static_cast<std::uint64_t>(row.system_idx),
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
        cfg.pattern = pattern(row.pattern_idx);
        runs.push_back(simulate(topology, params, row.lambda, cfg));
      }
      // The row's steady/saturated verdict is the library's own (the
      // untraced row), so the wasted-work share follows its rule.
      const bool wasted = untraced[r].sim_state != 0;
      row.sim_run = true;
      for (const sim::SimResult& run : runs) {
        if (wasted || run.saturated) stats_.wasted_events += run.events_processed;
        if (run.saturated) continue;
        latency.add(run.latency.mean);
        sole = &run;
      }
      if (latency.count() == 1) row.sim_latency = sole->latency.mean;
      else if (latency.count() > 1)
        row.sim_latency = interval_mean(latency);
    }
  }

  struct ProbeOutcome {
    bool saturated = false;
    double latency = -1.0;
  };

  /// Mirror of sim::run_replications_sequential (serial) and
  /// SaturationSearch's saturated-probe predicate, one spanned Simulator
  /// per replication.
  ProbeOutcome probe(const topo::MultiClusterTopology& topology,
                     const model::NetworkParams& params, double lambda,
                     const sim::SimConfig& base, int probe_index,
                     double reference_latency) {
    const exp::SaturationSearchConfig& search = spec_.search;
    ProbeOutcome out;
    std::vector<std::uint64_t> run_events;
    int saturated = 0;
    int reps = 0;
    util::OnlineMoments latency;
    stats_.probe_s.push_back(tracer_.span("exp.search.probe", [&] {
      sim::SimConfig cfg = base;
      const std::uint64_t probe_seed = derive_seed(
          base.seed, {kProbeTag, static_cast<std::uint64_t>(probe_index)});
      bool stop = false;
      while (!stop && reps < search.seq.r_max) {
        cfg.seed =
            derive_seed(probe_seed, {static_cast<std::uint64_t>(reps)});
        const sim::SimResult run = simulate(topology, params, lambda, cfg);
        ++reps;
        run_events.push_back(run.saturated ? 0 : run.events_processed);
        if (run.saturated) {
          ++saturated;
          stats_.wasted_events += run.events_processed;
        } else {
          latency.add(run.latency.mean);
        }
        if (reps < search.seq.r_min) continue;
        stop = saturated >= search.seq.r_min ||
               (latency.count() >= 2 &&
                half_width(latency) <= search.seq.rel_precision);
      }
      tracer_.annotate("lambda", lambda);
      tracer_.annotate("replications", reps);
      tracer_.annotate("saturated_runs", saturated);
    }));
    ++stats_.search_probes;
    stats_.search_replications += reps;
    out.latency = latency.count() > 0 ? interval_mean(latency) : -1.0;
    out.saturated = latency.count() == 0 || saturated >= search.seq.r_min ||
                    2 * saturated > reps ||
                    (reference_latency > 0.0 &&
                     out.latency > search.latency_blowup * reference_latency);
    // Completed runs of a probe classified saturated are wasted work too.
    if (out.saturated)
      for (const std::uint64_t e : run_events) stats_.wasted_events += e;
    return out;
  }

  /// Mirror of SaturationSearch::run: anchor, bracket growth, bisection.
  double search(const topo::MultiClusterTopology& topology,
                const model::NetworkParams& params,
                const sim::SimConfig& base, double model_sat) {
    const exp::SaturationSearchConfig& cfg = spec_.search;
    const double seed_lambda =
        model_sat > 0.0
            ? model_sat
            : model::concentrator_saturation_estimate(topology.config(),
                                                      params);
    int probes = 0;
    double reference = -1.0;
    double lambda_ref = 0.25 * seed_lambda;
    bool anchored = false;
    while (probes < cfg.max_probes) {
      const ProbeOutcome o =
          probe(topology, params, lambda_ref, base, probes++, reference);
      if (!o.saturated) {
        reference = o.latency;
        anchored = true;
        break;
      }
      lambda_ref *= 0.5;
    }
    if (!anchored) return 0.0;
    double lo = lambda_ref;
    double hi = std::max(seed_lambda, lambda_ref * 2.0);
    bool bracketed = false;
    while (probes < cfg.max_probes) {
      if (probe(topology, params, hi, base, probes++, reference).saturated) {
        bracketed = true;
        break;
      }
      lo = hi;
      hi *= 1.5;
    }
    if (!bracketed) return lo;
    while ((hi - lo) > cfg.rel_tol * hi && probes < cfg.max_probes) {
      const double mid = 0.5 * (lo + hi);
      if (probe(topology, params, mid, base, probes++, reference).saturated)
        hi = mid;
      else
        lo = mid;
    }
    return lo;
  }

  void replay_searches(std::vector<exp::SweepRow>& rows) {
    const auto groups = group_rows(rows, [](const exp::SweepRow& row) {
      return std::make_tuple(row.system_idx, row.flits_idx, row.bytes_idx,
                             row.pattern_idx, row.relay_idx, row.flow_idx);
    });
    for (const std::vector<std::size_t>& members : groups) {
      const exp::SweepRow& first = rows[members.front()];
      const GroupModels g = describe_group(first);
      // Analytical seed knee, same preference order as the sweep.
      double model_sat = -1.0;
      if (spec_.run_refined_model && g.refined_supported)
        model_sat = knee(*make_refined(first, g));
      else if (spec_.run_paper_model && g.paper_supported)
        model_sat = knee(*make_paper(first, g));
      sim::SimConfig base;
      base.seed = derive_seed(
          spec_.seed, {static_cast<std::uint64_t>(first.system_idx),
                       static_cast<std::uint64_t>(first.flits_idx),
                       static_cast<std::uint64_t>(first.bytes_idx),
                       static_cast<std::uint64_t>(first.pattern_idx),
                       static_cast<std::uint64_t>(first.relay_idx),
                       static_cast<std::uint64_t>(first.flow_idx),
                       kSearchSeedTag});
      base.relay_mode = first.relay;
      base.flow_control = first.flow;
      base.warmup_messages = spec_.warmup;
      base.measured_messages = spec_.measured;
      base.pattern = pattern(first.pattern_idx);
      base.warmup_deletion = spec_.search_warmup;
      double found = 0.0;
      tracer_.span("exp.search", [&] {
        found = search(topology_of(first), params_of(first), base, model_sat);
      });
      for (const std::size_t r : members) {
        rows[r].sim_lambda_sat = found > 0.0 ? found : -1.0;
        rows[r].sat_ratio =
            model_sat > 0.0 && found > 0.0 ? found / model_sat : -1.0;
      }
    }
  }

  void replay_service(const std::vector<exp::SweepRow>& rows,
                      const std::vector<std::string>& digests,
                      const fs::path& scratch) {
    const fs::path dir = scratch / "replay-service";
    fs::remove_all(dir);
    const exp::ResultCache cache((dir / "cache").string());
    exp::CheckpointWriter journal((dir / "journal.txt").string(), spec_.name,
                                  0, 1);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::string payload = exp::encode_row_payload(rows[r]);
      stats_.cache_store_s.push_back(tracer_.span(
          "exp.cache.store",
          [&] { cache.store(digests[r], payload); }));
      stats_.journal_add_s.push_back(tracer_.span(
          "exp.journal.add",
          [&] { journal.add(rows[r].grid_index, digests[r], payload); }));
    }
    stats_.journal_finalize_s = tracer_.span(
        "exp.journal.finalize", [&] { journal.finalize(); });
    for (std::size_t r = 0; r < rows.size(); ++r) {
      bool hit = false;
      stats_.cache_load_s.push_back(tracer_.span("exp.cache.load", [&] {
        exp::SweepRow restored = rows[r];
        const std::optional<std::string> payload = cache.load(digests[r]);
        hit = payload && exp::decode_row_payload(*payload, restored);
      }));
      stats_.cache_hits += hit;
    }
    fs::remove_all(dir);
  }

  static void emit(const exp::SweepResult& result, const fs::path& scratch) {
    fs::create_directories(scratch);
    const std::string table = exp::to_table(result).render();
    exp::write_csv(result, (scratch / "rows.csv").string());
    exp::write_json_file(result, (scratch / "rows.json").string());
    if (table.empty()) throw std::runtime_error("empty result table");
  }

  const exp::ScenarioSpec& spec_;
  const bool service_;
  Tracer& tracer_;
  ReplayStats& stats_;
  std::vector<std::unique_ptr<topo::MultiClusterTopology>> topologies_;
};

/// Compare the replayed rows with the untraced ones, bit for bit, on every
/// output the replay recomputes.
void check_replay(const std::vector<exp::SweepRow>& replayed,
                  const exp::SweepResult& untraced, bool full_payload,
                  Checks& checks) {
  if (replayed.size() != untraced.rows.size()) {
    for (std::size_t r = 0; r < untraced.rows.size(); ++r)
      checks.fail("replay_row_count", r);
    return;
  }
  for (std::size_t r = 0; r < replayed.size(); ++r) {
    const exp::SweepRow& a = replayed[r];
    const exp::SweepRow& b = untraced.rows[r];
    if (!same_bits(a.sim_latency, b.sim_latency) ||
        !same_bits(a.paper_latency, b.paper_latency) ||
        !same_bits(a.refined_latency, b.refined_latency) ||
        !same_bits(a.knee_lambda, b.knee_lambda) ||
        !same_bits(a.sim_lambda_sat, b.sim_lambda_sat) ||
        !same_bits(a.sat_ratio, b.sat_ratio))
      checks.fail("replay_bit_identical", r);
    if (full_payload &&
        exp::encode_row_payload(a) != exp::encode_row_payload(b))
      checks.fail("replay_payload_identical", r);
  }
}

// --------------------------------------------------------------- kernels --

/// Layer kernels timed from outside as plain calls: event heap, route
/// lookup, traffic draws, model predict(), GraphLoad, MSER-5 and SHA-256.
/// Each is spanned under a "kernels" root, apart from the replay.
struct Kernels {
  double queue_push_pop_ns = 0.0;
  double route_ns = 0.0;
  double traffic_sample_ns = 0.0;
  double paper_predict_us = 0.0;
  double refined_predict_us = 0.0;
  double graph_load_ms = 0.0;
  double mser5_us = 0.0;
  double sha256_mb_per_s = 0.0;
  std::uint64_t sink = 0;  ///< folds kernel outputs together
};

/// Kernel and speed-reference outputs end here: a volatile store is
/// observable, so no call feeding it can be optimized away.
volatile std::uint64_t g_kernel_sink = 0;

Kernels run_kernels(Tracer& tracer, std::uint64_t seed) {
  Kernels k;
  tracer.span("kernels", [&] {
    {
      constexpr int kOps = 2'000'000;
      sim::EventQueue q;
      util::Rng rng(util::derive_seed(seed, {1}));
      for (int i = 0; i < 1000; ++i)
        q.push(rng.next_double() * 100.0, sim::EventKind::kGenerate, i);
      k.queue_push_pop_ns =
          tracer.span("sim.queue.push_pop", [&] {
            for (int i = 0; i < kOps; ++i) {
              const sim::Event ev = q.pop();
              q.push(ev.time + 0.01 + rng.next_double(),
                     sim::EventKind::kGenerate, ev.a);
              k.sink += static_cast<std::uint64_t>(ev.a);
            }
          }) * 1e9 / kOps;
    }
    {
      constexpr int kOps = 1'000'000;
      const topo::FatTree tree(topo::TreeShape{8, 3});
      util::Rng rng(util::derive_seed(seed, {2}));
      const auto n = static_cast<std::uint64_t>(tree.endpoint_count());
      std::vector<std::pair<topo::EndpointId, topo::EndpointId>> pairs(kOps);
      for (auto& [s, d] : pairs) {
        s = static_cast<topo::EndpointId>(rng.next_below(n));
        d = static_cast<topo::EndpointId>(rng.next_below(n - 1));
        if (d >= s) ++d;
      }
      std::vector<topo::ChannelId> path;
      k.route_ns = tracer.span("topology.route_into", [&] {
        for (const auto& [s, d] : pairs) {
          path.clear();
          k.sink += static_cast<std::uint64_t>(tree.route_into(s, d, path));
        }
      }) * 1e9 / kOps;
    }
    {
      constexpr int kOps = 2'000'000;
      util::Rng rng(util::derive_seed(seed, {3}));
      std::vector<double> weights(1024);
      for (double& w : weights) w = rng.next_double() + 0.01;
      const util::AliasTable table(weights);
      double acc = 0.0;
      k.traffic_sample_ns = tracer.span("sim.traffic.sample", [&] {
        for (int i = 0; i < kOps; ++i) {
          k.sink += table.sample(rng);
          acc += rng.exponential(1e-4);
        }
      }) * 1e9 / kOps;
      k.sink += static_cast<std::uint64_t>(acc);
    }
    {
      constexpr int kCalls = 200;
      const topo::SystemConfig org_a = topo::SystemConfig::table1_org_a();
      const model::PaperModel paper(org_a, model::NetworkParams{});
      const model::RefinedModel refined(org_a, model::NetworkParams{});
      util::Rng rng(util::derive_seed(seed, {4}));
      std::vector<double> loads(kCalls);
      for (double& l : loads) l = 1e-5 + 1.5e-4 * rng.next_double();
      double acc = 0.0;
      k.paper_predict_us = tracer.span("model.paper.predict", [&] {
        for (const double l : loads) acc += paper.predict(l).mean_latency;
      }) * 1e6 / kCalls;
      k.refined_predict_us =
          tracer.span("model.refined.predict", [&] {
            for (const double l : loads) acc += refined.predict(l).mean_latency;
          }) * 1e6 / kCalls;
      k.sink += static_cast<std::uint64_t>(acc);
    }
    {
      topo::SystemConfig torus = topo::SystemConfig::homogeneous(8, 2, 128);
      torus.icn2.kind = topo::Icn2Kind::kTorus;
      torus.icn2.torus_rows = 16;
      torus.icn2.torus_cols = 8;
      std::unique_ptr<topo::ChannelGraph> graph;
      tracer.span("topology.icn2_graph", [&] {
        graph = std::make_unique<topo::ChannelGraph>(
            topo::make_icn2_graph(torus));
      });
      std::vector<double> times;
      for (int i = 0; i < 5; ++i)
        times.push_back(tracer.span("model.graph_load", [&] {
          k.sink += model::GraphLoad::compute(*graph, torus).coeff.size();
        }));
      k.graph_load_ms = median(times) * 1e3;
    }
    {
      util::Rng rng(util::derive_seed(seed, {5}));
      std::vector<double> stream(30'000);
      double ar = 0.0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ar = 0.9 * ar + rng.exponential(1.0) - 1.0;
        stream[i] = 100.0 + 60.0 * std::exp(-static_cast<double>(i) / 3000.0) +
                    ar;
      }
      std::vector<double> times;
      for (int i = 0; i < 50; ++i)
        times.push_back(tracer.span("util.mser5", [&] {
          k.sink += util::mser5_cutoff(stream).cutoff;
        }));
      k.mser5_us = median(times) * 1e6;
    }
    {
      std::string buffer(8u << 20, '\0');
      util::Rng rng(util::derive_seed(seed, {6}));
      for (char& c : buffer) c = static_cast<char>(rng.next_below(256));
      std::vector<double> times;
      for (int i = 0; i < 5; ++i)
        times.push_back(tracer.span("util.sha256", [&] {
          util::Sha256 h;
          h.update(buffer);
          k.sink += h.digest()[0];
        }));
      k.sha256_mb_per_s = static_cast<double>(buffer.size()) / 1e6 /
                          median(times);
    }
  });
  g_kernel_sink = k.sink;
  return k;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  std::uint64_t seed = 20060814;
  double seconds = 10.0;
  int trace = 0;
  fs::path out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = std::stoi(value);
    else if (key == "--out") a.out = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
      kWorkloads.end())
    throw std::invalid_argument("--workload must be one of fig3_campaign, "
                                "knee_search, model_campaign");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

// Host-speed references. On a shared host the same deterministic work runs
// up to 1.8x slower for minutes at a time, with no steal time to show it
// and CPU time tracking wall time. Each timing is therefore divided by the
// slowdown of a fixed, library-independent reference timed on the pool's
// worker (the thread that runs set-up and the passes) right around it,
// which cancels the host's phases and leaves the program's own cost. The
// slow phases hit kinds of work unequally, so each timing has the
// reference that tracks it: whole passes arith_ref_s(), and the short
// set-up repetitions alloc_ref_s(), which stayed within 3% of set-up's
// own slowdown across a phase switch where arith_ref_s() drifted 24%.

/// arith_ref_s() and one alloc_ref_s() round on an idle core of the
/// 2.1 GHz Xeon VM the benchmark was calibrated on.
constexpr double kArithRefSeconds = 0.11;
constexpr double kAllocRoundSeconds = 0.0007;

/// Binary-heap traffic and transcendental arithmetic.
double arith_ref_s() {
  static std::vector<double> heap(1 << 15);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11);
  };
  const auto t0 = Clock::now();
  for (double& v : heap) v = next();
  std::make_heap(heap.begin(), heap.end());
  double acc = 0.0;
  for (int i = 0; i < 1'500'000; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    acc += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
  }
  for (int i = 1; i < 4'000'000; ++i)
    acc += std::log(static_cast<double>(i)) * std::exp(-1e-7 * i);
  g_kernel_sink = g_kernel_sink + (static_cast<std::uint64_t>(acc) & 1u);
  return seconds_since(t0);
}

/// Number formatting, string parsing, ordered-map inserts and vector
/// growth: the allocation-heavy kind of work scenario loading does.
double alloc_ref_s(int rounds) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  char line[64];
  for (int round = 0; round < rounds; ++round) {
    std::map<std::string, std::vector<double>> table;
    for (int i = 0; i < 1000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::snprintf(line, sizeof(line), "key_%llu = %.6g",
                    static_cast<unsigned long long>(x % 100'000),
                    static_cast<double>(x % 9973) / 7.0);
      const std::string text(line);
      const std::size_t eq = text.find('=');
      std::vector<double>& values = table[text.substr(0, eq - 1)];
      values.push_back(std::strtod(text.c_str() + eq + 1, nullptr));
      values.resize(values.size() + (x & 7u));
    }
    for (const auto& [key, values] : table)
      acc += static_cast<double>(key.size()) + values.front();
  }
  g_kernel_sink = g_kernel_sink + (static_cast<std::uint64_t>(acc) & 1u);
  return seconds_since(t0);
}

/// alloc_ref_s(rounds) against its calibration time; 1 = calibration speed.
double alloc_slowdown(int rounds) {
  return alloc_ref_s(rounds) / (rounds * kAllocRoundSeconds);
}

/// arith_ref_s() against its calibration time, timed on the pool's worker.
double pass_slowdown(exp::ThreadPool& pool) {
  double slowdown = 0.0;
  pool.submit([&] { slowdown = arith_ref_s() / kArithRefSeconds; });
  pool.wait_idle();
  return slowdown;
}

/// Scenario load + validation + SweepRunner construction, timed on the
/// pool's worker in blocks of repetitions (about 20 ms each), each block
/// between two short alloc_ref_s() samples. A block's per-repetition time
/// is divided by the mean slowdown of its two samples; `setup_s` is the
/// median scaled block and `setup_host_s` the median unscaled one. Returns
/// the last runner.
std::unique_ptr<exp::SweepRunner> timed_setup(const Args& args,
                                              exp::ThreadPool& pool,
                                              double& setup_s,
                                              double& setup_host_s) {
  constexpr int kBlocks = 31;
  constexpr double kBlockSeconds = 0.02;
  constexpr int kRefRounds = 20;
  std::vector<double> scaled, host;
  std::unique_ptr<exp::SweepRunner> runner;
  const auto build = [&] {
    runner = std::make_unique<exp::SweepRunner>(
        load_workload(args.workload, args.seed));
  };
  pool.submit([&] {
    // Untimed warm-up that also sizes the blocks.
    int reps = 0;
    for (const auto t0 = Clock::now();
         reps < 1000 && seconds_since(t0) < kBlockSeconds; ++reps)
      build();
    double before = alloc_slowdown(kRefRounds);
    for (int b = 0; b < kBlocks; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) build();
      const double per_rep = seconds_since(t0) / reps;
      const double after = alloc_slowdown(kRefRounds);
      host.push_back(per_rep);
      scaled.push_back(per_rep / (0.5 * (before + after)));
      before = after;
    }
  });
  pool.wait_idle();
  setup_s = median(scaled);
  setup_host_s = median(host);
  return runner;
}

int run(const Args& args) {
  obs::RunManifest manifest = obs::RunManifest::begin();
  fs::create_directories(args.out);
  const std::string tag = args.workload + "-" + std::to_string(args.seed);
  const fs::path scratch = args.out / ("scratch-" + tag);

  exp::ThreadPool pool(1);
  const bool service = uses_service(args.workload);
  double setup_s = 0.0;
  double setup_host_s = 0.0;
  const std::unique_ptr<exp::SweepRunner> runner =
      timed_setup(args, pool, setup_s, setup_host_s);

  // Timed passes, each divided by the reference's slowdown around it: keep
  // going while the next pass (predicted by the last one) still fits in the
  // run's measuring window. Only the first pass's result is kept; later
  // passes are checked against it and dropped, so peak RSS does not grow
  // with the pass count.
  pass_slowdown(pool);  // warm-up: first-touch page faults
  std::vector<double> slowdown = {pass_slowdown(pool)};
  const auto t0 = Clock::now();
  Pass first = run_pass(*runner, args.workload, pool, scratch);
  const exp::SweepResult& result = first.cold;
  std::vector<double> pass_s = {first.seconds};
  slowdown.push_back(pass_slowdown(pool));
  Checks checks(result.rows.size());
  check_rows(result, checks);
  const std::vector<std::string> reference = row_payloads(result);
  check_pass(first, reference, service, checks);
  first.warm = {};
  while (seconds_since(t0) + pass_s.back() <= args.seconds) {
    const Pass pass = run_pass(*runner, args.workload, pool, scratch);
    pass_s.push_back(pass.seconds);
    slowdown.push_back(pass_slowdown(pool));
    check_pass(pass, reference, service, checks);
  }
  std::vector<double> scaled_s;
  for (std::size_t i = 0; i < pass_s.size(); ++i)
    scaled_s.push_back(pass_s[i] / (0.5 * (slowdown[i] + slowdown[i + 1])));
  const double wall_s = median(scaled_s);

  JsonObject metrics;
  const auto metric = [&metrics](const std::string& name, double value,
                                 const std::string& unit) {
    metrics.raw(name, JsonObject().num("value", value).str("unit", unit)
                          .render());
  };
  std::string span_path;  ///< set by the traced run
  JsonObject identity;
  identity.str("rows_sha256", util::sha256_hex(stable_json(result)))
      .num("rows", static_cast<double>(result.rows.size()));

  if (args.trace == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metric("wall_s", wall_s, "s");
    metric("setup_s", setup_s, "s");
    metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  } else {
    Tracer tracer(args.workload + " seed " + std::to_string(args.seed));
    ReplayStats st;
    Replay replay(runner->spec(), service, tracer, st);
    const std::vector<exp::SweepRow> replayed =
        replay.run(*runner, result, scratch);
    check_replay(replayed, result, /*full_payload=*/!runner->spec().run_sim,
                 checks);
    const Kernels k = run_kernels(tracer, args.seed);
    const fs::path span_file = args.out / (tag + ".trace.json");
    tracer.write(span_file);
    span_path = span_file.string();

    const double events = static_cast<double>(st.events);
    metric("topology.build_ms", sum(st.topology_build_s) * 1e3, "ms");
    metric("topology.route_ns", k.route_ns, "ns");
    metric("sim.construct_ms", sum(st.sim_construct_s) * 1e3, "ms");
    metric("sim.run_s", sum(st.sim_run_s), "s");
    metric("sim.ns_per_event",
           events > 0 ? sum(st.sim_run_s) * 1e9 / events : 0.0, "ns");
    metric("sim.runs", static_cast<double>(st.runs), "count");
    metric("sim.events", events, "count");
    metric("sim.worms", static_cast<double>(st.worms), "count");
    metric("sim.saturated_event_share",
           events > 0 ? static_cast<double>(st.wasted_events) / events : 0.0,
           "frac");
    metric("sim.queue.push_pop_ns", k.queue_push_pop_ns, "ns");
    metric("sim.traffic.sample_ns", k.traffic_sample_ns, "ns");
    metric("model.construct_ms", sum(st.model_construct_s) * 1e3, "ms");
    metric("model.refined.predict_us",
           quantile(st.refined_predict_s, 0.5) * 1e6, "us");
    metric("model.refined.predict_us.p99",
           quantile(st.refined_predict_s, 0.99) * 1e6, "us");
    metric("model.refined.predict_calls",
           static_cast<double>(st.refined_predict_s.size()), "count");
    metric("model.paper.predict_us", quantile(st.paper_predict_s, 0.5) * 1e6,
           "us");
    metric("model.paper.predict_us.p99",
           quantile(st.paper_predict_s, 0.99) * 1e6, "us");
    metric("model.paper.predict_calls",
           static_cast<double>(st.paper_predict_s.size()), "count");
    metric("model.refined.predict_kernel_us", k.refined_predict_us, "us");
    metric("model.paper.predict_kernel_us", k.paper_predict_us, "us");
    metric("model.knee_ms", sum(st.knee_s) * 1e3, "ms");
    metric("model.knee_iterations", static_cast<double>(st.knee_iterations),
           "count");
    metric("model.graph_load_ms", k.graph_load_ms, "ms");
    metric("exp.plan_ms", st.plan_s * 1e3, "ms");
    metric("exp.digest_us", mean(st.digest_s) * 1e6, "us");
    metric("exp.cache.store_us", mean(st.cache_store_s) * 1e6, "us");
    metric("exp.cache.load_us", mean(st.cache_load_s) * 1e6, "us");
    metric("exp.cache.hits", static_cast<double>(st.cache_hits), "count");
    metric("exp.journal.add_us", mean(st.journal_add_s) * 1e6, "us");
    metric("exp.journal.finalize_ms", st.journal_finalize_s * 1e3, "ms");
    metric("exp.emit_ms", st.emit_s * 1e3, "ms");
    metric("exp.search.probes", static_cast<double>(st.search_probes),
           "count");
    metric("exp.search.replications",
           static_cast<double>(st.search_replications), "count");
    metric("exp.search.s_per_probe", mean(st.probe_s), "s");
    metric("util.mser5_us", k.mser5_us, "us");
    metric("util.sha256_mb_per_s", k.sha256_mb_per_s, "MB/s");
    metric("events_per_s", events / wall_s, "1/s");
    metric("sims_per_s", static_cast<double>(st.runs) / wall_s, "1/s");
    // Both sides unscaled: the replay's wall time against a timed pass's.
    metric("trace.overhead_frac", st.wall_s / median(pass_s) - 1.0, "frac");

    // Model accuracy against the simulator (deterministic per seed).
    std::vector<double> latency_err, knee_err;
    std::map<std::tuple<int, int, int, int, int, int>, double> group_ratio;
    for (const exp::SweepRow& row : result.rows) {
      if (row.sim_run && row.sim_state == 0 && row.refined_run &&
          row.sim_latency > 0.0)
        latency_err.push_back(100.0 *
                              std::abs(row.refined_latency - row.sim_latency) /
                              row.sim_latency);
      if (row.sat_ratio > 0.0)
        group_ratio[std::make_tuple(row.system_idx, row.flits_idx,
                                    row.bytes_idx, row.pattern_idx,
                                    row.relay_idx, row.flow_idx)] =
            row.sat_ratio;
    }
    for (const auto& [key, ratio] : group_ratio)
      knee_err.push_back(100.0 * std::abs(ratio - 1.0));
    metric("model_latency_err_pct", median(latency_err), "%");
    metric("model_knee_err_pct", median(knee_err), "%");

    identity.num("sim.events", events)
        .num("sim.worms", static_cast<double>(st.worms))
        .num("sim.runs", static_cast<double>(st.runs))
        .num("exp.search.probes", static_cast<double>(st.search_probes))
        .num("model.knee_iterations", static_cast<double>(st.knee_iterations));
  }

  const int failed = checks.failed();
  const auto attempted = static_cast<int>(result.rows.size());
  if (args.trace == 1)
    metric("failed_frac",
           static_cast<double>(failed) / static_cast<double>(attempted),
           "frac");

  JsonObject failures;
  for (const auto& [name, count] : checks.failures) failures.num(name, count);
  manifest.complete();
  std::ostringstream manifest_json;
  manifest.write_json(manifest_json);
  JsonObject provenance;
  provenance.raw("manifest", manifest_json.str())
      .num("nproc", std::thread::hardware_concurrency())
      .num("workers", pool.thread_count())
      .num("seed", static_cast<double>(args.seed))
      .boolean("release_build", manifest.build_type == "Release");

  JsonObject report;
  report.str("workload", args.workload)
      .num("trace", args.trace)
      .boolean("correct", failed == 0)
      .num("attempted", attempted)
      .num("failed", failed)
      .num("passes", static_cast<double>(pass_s.size()))
      .raw("pass_s", json_array(pass_s))
      .raw("slowdown", json_array(slowdown))
      .num("setup_host_s", setup_host_s)
      .raw("failures", failures.render())
      .raw("identity", identity.render())
      .str("span_file", span_path)
      .raw("provenance", provenance.render())
      .raw("metrics", metrics.render());
  fs::remove_all(scratch);
  std::cout << report.render() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 1;
  }
}
