// Run-telemetry tests across replication and sweep aggregation:
//
//  - the saturation-cause regression (the per-run SimResult cause tokens
//    used to be dropped on the floor by the replication aggregation;
//    they must survive into ReplicationResult, the sweep rows, the table
//    and the JSON/CSV reports),
//  - SweepRunner task stats (queue wait / exec / worker id per task) and
//    the RunManifest attached to every result,
//  - flight-recorder collection (row probes + traces) being thread- and
//    observer-invariant, and the sweep JSON round-tripping through the
//    json_mini test parser.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_io.hpp"
#include "support/fixed_replications.hpp"
#include "support/json_mini.hpp"
#include "util/error.hpp"

namespace mcs {
namespace {

sim::SimConfig small_sim_config() {
  sim::SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = 100;
  cfg.measured_messages = 1000;
  cfg.batch_size = 100;
  return cfg;
}

// Regression: before ReplicationResult::saturation_causes existed, the
// per-run SimResult::saturation_cause tokens were discarded by
// aggregation — a saturated replication set could not say WHICH cap it
// hit. These pin the cause surviving for two different caps.
TEST(ReplicationTelemetry, EventCapCauseSurvivesAggregation) {
  const topo::MultiClusterTopology topology(
      topo::SystemConfig::homogeneous(4, 1, 2));
  const model::NetworkParams params;
  sim::SimConfig cfg = small_sim_config();
  cfg.max_events = 2'000;  // far too few to deliver 1000 measured messages

  const sim::ReplicationResult result =
      sim::testsupport::run_fixed_replications(topology, params, 5e-4, cfg,
                                               3);
  EXPECT_EQ(result.saturated, 3);
  EXPECT_TRUE(result.all_saturated);
  ASSERT_EQ(result.saturation_causes.size(), 1u);  // same cap every run
  EXPECT_EQ(result.saturation_causes[0], "events");
  for (const sim::SimResult& run : result.runs) {
    EXPECT_TRUE(run.saturated);
    EXPECT_EQ(run.saturation_cause, "events");
    EXPECT_FALSE(run.saturation_reason.empty());
  }
}

TEST(ReplicationTelemetry, GeneratedCapCauseSurvivesAggregation) {
  const topo::MultiClusterTopology topology(
      topo::SystemConfig::homogeneous(4, 1, 2));
  const model::NetworkParams params;
  sim::SimConfig cfg = small_sim_config();
  cfg.max_generated = 50;  // below even the warmup phase

  const sim::ReplicationResult result =
      sim::testsupport::run_fixed_replications(topology, params, 5e-4, cfg,
                                               2);
  EXPECT_EQ(result.saturated, 2);
  ASSERT_FALSE(result.saturation_causes.empty());
  EXPECT_EQ(result.saturation_causes[0], "generated");
}

TEST(ReplicationTelemetry, SteadyRunsCarryNoCause) {
  const topo::MultiClusterTopology topology(
      topo::SystemConfig::homogeneous(4, 1, 2));
  const model::NetworkParams params;
  const sim::ReplicationResult result =
      sim::testsupport::run_fixed_replications(topology, params, 5e-4,
                                               small_sim_config(), 2);
  EXPECT_EQ(result.saturated, 0);
  EXPECT_TRUE(result.saturation_causes.empty());
  for (const sim::SimResult& run : result.runs)
    EXPECT_TRUE(run.saturation_cause.empty());
}

exp::ScenarioSpec base_spec() {
  exp::ScenarioSpec spec;
  spec.name = "telemetry";
  spec.systems.push_back(
      {"h1x2", topo::SystemConfig::homogeneous(4, 1, 2)});
  spec.loads = {5e-4};
  spec.replications = 2;
  spec.warmup = 200;
  spec.measured = 2'000;
  return spec;
}

TEST(SweepTelemetry, SaturatedRowNamesItsCauseEverywhere) {
  exp::ScenarioSpec spec = base_spec();
  spec.loads = {5e-4, 0.2};  // second point is far past saturation
  spec.run_paper_model = false;
  spec.run_refined_model = false;
  const exp::SweepResult result = exp::SweepRunner(spec).run();
  ASSERT_EQ(result.rows.size(), 2u);

  const exp::SweepRow& steady = result.rows[0];
  EXPECT_EQ(steady.saturated, 0);
  EXPECT_TRUE(steady.saturation_causes.empty());

  const exp::SweepRow& saturated = result.rows[1];
  EXPECT_EQ(saturated.sim_state, 1);
  EXPECT_EQ(saturated.saturated, 2);
  ASSERT_FALSE(saturated.saturation_causes.empty());
  // The table names the cap(s) inline instead of a bare "saturated".
  const std::string table = exp::to_table(result).render();
  EXPECT_NE(
      table.find("saturated[" + saturated.saturation_causes + "]"),
      std::string::npos)
      << table;
  // And the JSON report carries the same string.
  std::ostringstream json;
  exp::write_json(result, json);
  EXPECT_NE(json.str().find("\"saturation_causes\":\"" +
                            saturated.saturation_causes + "\""),
            std::string::npos);
}

TEST(SweepTelemetry, TaskStatsCoverEveryTask) {
  exp::ScenarioSpec spec = base_spec();
  exp::SweepRunOptions options;
  options.threads = 2;
  const exp::SweepResult result = exp::SweepRunner(spec).run(options);

  // 1 model group + 1 row x 2 replications = 3 tasks.
  ASSERT_EQ(result.task_stats.size(), 3u);
  int models = 0, sims = 0;
  double total_exec = 0.0;
  for (const exp::TaskStat& stat : result.task_stats) {
    if (stat.kind == 'm') ++models;
    else if (stat.kind == 's') ++sims;
    else FAIL() << "unclassified task kind '" << stat.kind << "'";
    EXPECT_GE(stat.queue_wait, 0.0);
    EXPECT_GE(stat.exec, 0.0);
    total_exec += stat.exec;
    EXPECT_GE(stat.thread, 0);
    EXPECT_LT(stat.thread, result.threads);
  }
  EXPECT_EQ(models, 1);
  EXPECT_EQ(sims, static_cast<int>(result.sim_tasks));
  EXPECT_GT(total_exec, 0.0);

  // The manifest is live provenance, not defaults.
  EXPECT_FALSE(result.manifest.git.empty());
  EXPECT_FALSE(result.manifest.compiler.empty());
  EXPECT_GT(result.manifest.wall_seconds, 0.0);
}

TEST(SweepTelemetry, FlightRecorderCapturesReplicationZeroPerRow) {
  exp::ScenarioSpec spec = base_spec();
  spec.run_paper_model = false;
  spec.run_refined_model = false;
  spec.trace.sample_every = 8;
  exp::SweepRunOptions options;
  options.threads = 2;
  options.collect_probes = true;
  options.collect_traces = true;
  const exp::SweepResult result = exp::SweepRunner(spec).run(options);

  ASSERT_EQ(result.row_probes.size(), result.rows.size());
  ASSERT_EQ(result.row_traces.size(), result.rows.size());
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    EXPECT_FALSE(result.row_probes[r].samples().empty()) << "row " << r;
    EXPECT_FALSE(result.row_traces[r].events().empty()) << "row " << r;
    EXPECT_EQ(result.row_traces[r].pid(), static_cast<int>(r));
    EXPECT_EQ(result.row_traces[r].label(),
              exp::row_label(result.rows[r]));
  }
  EXPECT_EQ(exp::row_label(result.rows[0]),
            "h1x2/uniform/sf/wh f32 lambda=0.0005");

  // Collection must not perturb results (the observers attach to
  // replication 0 only, and observation is bit-invisible): a bare run
  // produces identical rows — and so does a wider pool.
  exp::SweepRunOptions bare;
  bare.threads = 1;
  const exp::SweepResult base = exp::SweepRunner(spec).run(bare);
  exp::SweepRunOptions wide = options;
  wide.threads = 4;
  const exp::SweepResult wide_result = exp::SweepRunner(spec).run(wide);
  ASSERT_EQ(base.rows.size(), result.rows.size());
  for (std::size_t r = 0; r < base.rows.size(); ++r) {
    EXPECT_EQ(base.rows[r].sim_latency, result.rows[r].sim_latency);
    EXPECT_EQ(base.rows[r].sim_ci, result.rows[r].sim_ci);
    EXPECT_EQ(base.rows[r].completed, result.rows[r].completed);
    EXPECT_EQ(base.rows[r].saturation_causes,
              result.rows[r].saturation_causes);
    EXPECT_EQ(wide_result.rows[r].sim_latency, result.rows[r].sim_latency);
  }
  // The captures themselves are deterministic too: same samples and
  // spans whatever the thread count.
  ASSERT_EQ(wide_result.row_probes.size(), result.row_probes.size());
  for (std::size_t r = 0; r < result.row_probes.size(); ++r) {
    const auto& a = result.row_probes[r].samples();
    const auto& b = wide_result.row_probes[r].samples();
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].events, b[i].events);
    }
    EXPECT_EQ(result.row_traces[r].events().size(),
              wide_result.row_traces[r].events().size());
  }
}

TEST(SweepTelemetry, JsonReportRoundTripsThroughParser) {
  exp::ScenarioSpec spec = base_spec();
  spec.loads = {5e-4, 0.2};
  const exp::SweepResult result = exp::SweepRunner(spec).run();
  std::ostringstream out;
  exp::write_json(result, out);

  const testsupport::JsonValue doc = testsupport::parse_json(out.str());
  EXPECT_EQ(doc.at("name").string, "telemetry");
  EXPECT_EQ(doc.at("manifest").at("git").string, result.manifest.git);
  EXPECT_GE(doc.at("manifest").at("wall_seconds").number, 0.0);
  ASSERT_EQ(doc.at("task_stats").array.size(), result.task_stats.size());
  for (const testsupport::JsonValue& stat : doc.at("task_stats").array) {
    EXPECT_FALSE(stat.at("kind").string.empty());
    EXPECT_GE(stat.at("exec").number, 0.0);
    EXPECT_GE(stat.at("thread").number, 0.0);
  }
  ASSERT_EQ(doc.at("rows").array.size(), result.rows.size());
  const testsupport::JsonValue& saturated_row = doc.at("rows").array[1];
  EXPECT_EQ(saturated_row.at("saturation_causes").string,
            result.rows[1].saturation_causes);
  EXPECT_EQ(saturated_row.at("sim_state").number, 1.0);
  EXPECT_FALSE(doc.at("rows").array[0].has("saturation_causes"));
}

TEST(ScenarioObserve, ObserveBlockParsesIntoSpec) {
  const exp::ScenarioSpec spec = exp::parse_scenario_string(
      "[sweep]\n"
      "name = obs\n"
      "loads = 5e-4\n"
      "[system s]\n"
      "preset = homogeneous\n"
      "m = 4\n"
      "height = 1\n"
      "clusters = 2\n"
      "[observe]\n"
      "probe_interval = 0.5\n"
      "probe_max_samples = 64\n"
      "trace_sample = 4\n"
      "trace_max_events = 1000\n");
  EXPECT_DOUBLE_EQ(spec.probe.interval, 0.5);
  EXPECT_EQ(spec.probe.max_samples, 64u);
  EXPECT_EQ(spec.trace.sample_every, 4);
  EXPECT_EQ(spec.trace.max_events, 1000u);

  // Invalid flight-recorder knobs fail at parse time, not mid-sweep.
  EXPECT_THROW(exp::parse_scenario_string("[sweep]\n"
                                          "name = bad\n"
                                          "loads = 5e-4\n"
                                          "[system s]\n"
                                          "preset = homogeneous\n"
                                          "m = 4\n"
                                          "height = 1\n"
                                          "clusters = 2\n"
                                          "[observe]\n"
                                          "trace_sample = 0\n"),
               ConfigError);
}

}  // namespace
}  // namespace mcs
