#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>

#include "exp/scenario.hpp"
#include "exp/sweep_io.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "util/error.hpp"

namespace mcs::exp {
namespace {

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.systems.push_back({"h1x2", topo::SystemConfig::homogeneous(4, 1, 2)});
  spec.message_flits = {32};
  spec.flit_bytes = {256};
  PatternEntry tornado{"tornado", {}};
  tornado.pattern.kind = sim::PatternKind::kClusterPermutation;
  spec.patterns.push_back({"uniform", sim::TrafficPattern{}});
  spec.patterns.push_back(tornado);
  spec.loads = {5e-4, 1e-3};
  spec.replications = 2;
  spec.warmup = 200;
  spec.measured = 2'000;
  spec.find_knee = true;
  return spec;
}

// Field-by-field bitwise comparison: the thread-count invariance contract
// is "identical", not "close".
void expect_rows_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const SweepRow& x = a.rows[i];
    const SweepRow& y = b.rows[i];
    EXPECT_EQ(x.system_id, y.system_id) << "row " << i;
    EXPECT_EQ(x.pattern_id, y.pattern_id) << "row " << i;
    EXPECT_EQ(x.message_flits, y.message_flits) << "row " << i;
    EXPECT_EQ(x.flit_bytes, y.flit_bytes) << "row " << i;
    EXPECT_EQ(x.lambda, y.lambda) << "row " << i;
    EXPECT_EQ(x.paper_run, y.paper_run) << "row " << i;
    EXPECT_EQ(x.paper_latency, y.paper_latency) << "row " << i;
    EXPECT_EQ(x.paper_stable, y.paper_stable) << "row " << i;
    EXPECT_EQ(x.refined_run, y.refined_run) << "row " << i;
    EXPECT_EQ(x.refined_latency, y.refined_latency) << "row " << i;
    EXPECT_EQ(x.refined_stable, y.refined_stable) << "row " << i;
    EXPECT_EQ(x.knee_lambda, y.knee_lambda) << "row " << i;
    EXPECT_EQ(x.sim_lambda_sat, y.sim_lambda_sat) << "row " << i;
    EXPECT_EQ(x.sat_ratio, y.sat_ratio) << "row " << i;
    EXPECT_EQ(x.sim_run, y.sim_run) << "row " << i;
    EXPECT_EQ(x.replications, y.replications) << "row " << i;
    EXPECT_EQ(x.completed, y.completed) << "row " << i;
    EXPECT_EQ(x.saturated, y.saturated) << "row " << i;
    EXPECT_EQ(x.sim_latency, y.sim_latency) << "row " << i;
    EXPECT_EQ(x.sim_ci, y.sim_ci) << "row " << i;
    EXPECT_EQ(x.sim_internal, y.sim_internal) << "row " << i;
    EXPECT_EQ(x.sim_external, y.sim_external) << "row " << i;
    EXPECT_EQ(x.external_share, y.external_share) << "row " << i;
    EXPECT_EQ(x.sim_state, y.sim_state) << "row " << i;
  }
}

TEST(DeriveSeed, DeterministicAndCoordinateSensitive) {
  EXPECT_EQ(derive_seed(7, {1, 2, 3}), derive_seed(7, {1, 2, 3}));
  EXPECT_NE(derive_seed(7, {1, 2, 3}), derive_seed(8, {1, 2, 3}));
  EXPECT_NE(derive_seed(7, {1, 2, 3}), derive_seed(7, {1, 2, 4}));
  EXPECT_NE(derive_seed(7, {1, 2}), derive_seed(7, {2, 1}));
  EXPECT_NE(derive_seed(7, {0}), derive_seed(7, {}));

  // Adjacent coordinates must produce well-spread seeds (they feed
  // independent replications of the same operating point).
  std::set<std::uint64_t> seeds;
  for (std::uint64_t rep = 0; rep < 1000; ++rep)
    seeds.insert(derive_seed(7, {0, 0, 0, rep}));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SweepRunner, ResultIsIdenticalForOneAndManyThreads) {
  const SweepRunner runner(tiny_spec());
  SweepRunOptions one;
  one.threads = 1;
  SweepRunOptions many;
  many.threads = 8;
  const SweepResult a = runner.run(one);
  const SweepResult b = runner.run(many);
  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, 8);
  expect_rows_identical(a, b);

  // And a re-run with the same thread count reproduces itself.
  const SweepResult c = runner.run(many);
  expect_rows_identical(b, c);
}

TEST(SweepRunner, GridExpansionMatchesSpec) {
  const ScenarioSpec spec = tiny_spec();
  const SweepRunner runner(spec);
  const SweepResult result = runner.run();
  ASSERT_EQ(result.rows.size(), static_cast<std::size_t>(spec.grid_size()));
  EXPECT_EQ(result.sim_tasks,
            spec.grid_size() * static_cast<std::int64_t>(spec.replications));

  // Row order is the spec's nesting order: pattern-major over loads here.
  EXPECT_EQ(result.rows[0].pattern_id, "uniform");
  EXPECT_EQ(result.rows[0].lambda, 5e-4);
  EXPECT_EQ(result.rows[1].pattern_id, "uniform");
  EXPECT_EQ(result.rows[1].lambda, 1e-3);
  EXPECT_EQ(result.rows[2].pattern_id, "tornado");

  for (const SweepRow& row : result.rows) {
    EXPECT_TRUE(row.paper_run);
    EXPECT_TRUE(row.refined_run);
    EXPECT_GT(row.knee_lambda, 0.0);
    EXPECT_TRUE(row.sim_run);
    EXPECT_EQ(row.completed + row.saturated, 2);
    if (row.completed > 0) {
      EXPECT_GT(row.sim_latency, 0.0);
      EXPECT_GE(row.external_share, 0.0);
    }
  }
  // The tornado pattern sends everything across the ICN2.
  EXPECT_EQ(result.rows[2].external_share, 1.0);
}

// Knee-relative loads scale the smallest uniform-traffic wormhole refined
// knee over the systems, per (flits, bytes) point; every pattern, relay
// and flow row of the point shares it.
TEST(SweepRunner, KneeLoadsScaleTheSmallestRefinedKnee) {
  const topo::SystemConfig small = topo::SystemConfig::homogeneous(4, 1, 2);
  topo::SystemConfig skewed;
  skewed.m = 4;
  skewed.cluster_heights = {2, 2, 3, 3};
  ScenarioSpec spec = tiny_spec();
  spec.systems = {{"small", small}, {"skewed", skewed}};
  spec.message_flits = {16, 32};
  spec.relay_modes = {sim::RelayMode::kStoreForward,
                      sim::RelayMode::kCutThrough};
  spec.flow_controls = {sim::FlowControl::kWormhole,
                        sim::FlowControl::kStoreAndForward};
  spec.loads = {0.25, 0.5};
  spec.knee_relative_loads = true;
  spec.run_sim = false;
  const SweepResult result = SweepRunner(spec).run();
  ASSERT_EQ(result.rows.size(), static_cast<std::size_t>(spec.grid_size()));

  for (const int flits : spec.message_flits) {
    model::NetworkParams params;
    params.message_flits = flits;
    const double knee_small =
        model::find_saturation(model::RefinedModel(small, params)).lambda_sat;
    const double knee_skewed =
        model::find_saturation(model::RefinedModel(skewed, params))
            .lambda_sat;
    // The second system sets the reference, so "first system" would fail.
    ASSERT_LT(knee_skewed, knee_small);
    int rows = 0;
    for (const SweepRow& row : result.rows) {
      if (row.message_flits != flits) continue;
      ++rows;
      EXPECT_EQ(row.lambda,
                spec.loads[static_cast<std::size_t>(row.load_idx)] *
                    knee_skewed)
          << row_label(row);
    }
    EXPECT_EQ(rows, 2 * 2 * 2 * 2 * 2);  // systems x patterns x relays x
                                         // flows x loads
  }
}

/// The sole row of a one-load org_a scenario at `knee_load` times the
/// refined knee, store-and-forward relays, with reduced phases.
SweepRow overloaded_org_a_row(const std::string& seed,
                              const std::string& knee_load,
                              const std::string& flow) {
  std::string ini =
      "[sweep]\nname = overloaded\nreplications = 1\n"
      "warmup = 2000\nmeasured = 20000\nmessage_flits = 32\n"
      "flit_bytes = 256\nmodels = none\nsim = true\n";
  ini += "seed = " + seed + "\n";
  ini += "knee_loads = " + knee_load + "\n";
  ini += "flow = " + flow + "\n";
  ini += "[system org_a]\npreset = table1_org_a\n";
  const SweepResult result = SweepRunner(parse_scenario_string(ini)).run();
  EXPECT_EQ(result.rows.size(), 1u);
  return result.rows.front();
}

TEST(SweepRunner, DriftFlagsOverloadedRowsTheCiGuessPassedAsSteady) {
  // Both loads are past the knee (the flow_control and relay_ablation
  // scenarios' top rows, with shorter phases). Without the drift test
  // each replication delivered every measured message with a batch-means
  // CI under 30% of its mean, so the CI-width guess printed them as
  // steady rows: 721.26 +- 198.07 and 577.42 +- 165.16.
  const SweepRow saf =
      overloaded_org_a_row("20060814", "1.2", "store_and_forward");
  const SweepRow wormhole = overloaded_org_a_row("2", "1.15", "wormhole");
  for (const SweepRow* row : {&saf, &wormhole}) {
    EXPECT_EQ(row->sim_state, 1) << row_label(*row);
    EXPECT_EQ(row->completed, 0) << row_label(*row);
    EXPECT_EQ(row->saturation_causes, "drift") << row_label(*row);
  }
}

TEST(SweepRunner, WideCiAloneDoesNotFlagACompletedRow) {
  // tiny_spec's first row: two completed replications whose t-interval is
  // wide only because t(0.975, 1 df) = 12.7. State 2 means some
  // replications ended on a saturation verdict, not a wide CI.
  ScenarioSpec spec = tiny_spec();
  spec.patterns.resize(1);
  spec.loads = {5e-4};
  spec.run_paper_model = false;
  spec.run_refined_model = false;
  spec.find_knee = false;
  const SweepResult result = SweepRunner(spec).run();
  ASSERT_EQ(result.rows.size(), 1u);
  const SweepRow& row = result.rows.front();
  EXPECT_EQ(row.completed, 2);
  EXPECT_GT(row.sim_ci, 0.3 * row.sim_latency);
  EXPECT_EQ(row.sim_state, 0);
  EXPECT_EQ(result.saturated_points, 0);
}

TEST(SweepRunner, SharedExternalPoolWorks) {
  ThreadPool pool(2);
  const SweepRunner runner(tiny_spec());
  SweepRunOptions options;
  options.pool = &pool;
  const SweepResult result = runner.run(options);
  EXPECT_EQ(result.threads, 2);
  SweepRunOptions one;
  one.threads = 1;
  expect_rows_identical(result, runner.run(one));
}

TEST(SweepRunner, RejectsInvalidSpecs) {
  ScenarioSpec spec = tiny_spec();
  spec.loads.clear();
  EXPECT_THROW(SweepRunner{spec}, ConfigError);

  // Pattern/topology mismatch caught at construction, not in a worker.
  ScenarioSpec bad_pattern = tiny_spec();
  bad_pattern.patterns[0].pattern.kind = sim::PatternKind::kHotspot;
  bad_pattern.patterns[0].pattern.hotspot_node = 10'000;  // out of range
  EXPECT_THROW(SweepRunner{bad_pattern}, ConfigError);
}

TEST(SweepRunner, FindSaturationFillsEveryRowThreadInvariantly) {
  ScenarioSpec spec = tiny_spec();
  spec.run_sim = false;  // the search runs its own probes regardless
  spec.find_knee = false;
  spec.find_sim_saturation = true;
  spec.search.seq.r_min = 2;
  spec.search.seq.r_max = 4;
  spec.search.seq.rel_precision = 0.25;
  spec.search.rel_tol = 0.1;
  const SweepRunner runner(spec);
  // find_sim_saturation implies find_knee (the ratio's denominator).
  EXPECT_TRUE(runner.spec().find_knee);

  SweepRunOptions one;
  one.threads = 1;
  SweepRunOptions many;
  many.threads = 6;
  const SweepResult a = runner.run(one);
  const SweepResult b = runner.run(many);
  expect_rows_identical(a, b);

  // The searches' simulations are sim runs: every search runs at least
  // its anchor and one bracket probe of at least r_min replications each,
  // and a probe's replications run serially, so the count does not
  // depend on the thread count. Grid simulation adds its replications on
  // top of the same searches.
  std::int64_t searches = 0;
  for (const TaskStat& t : a.task_stats) searches += t.kind == 'k' ? 1 : 0;
  EXPECT_GT(searches, 0);
  EXPECT_GE(a.sim_tasks, searches * 2 * spec.search.seq.r_min);
  EXPECT_EQ(a.sim_tasks, b.sim_tasks);
  spec.run_sim = true;
  EXPECT_EQ(SweepRunner(spec).run(many).sim_tasks,
            a.sim_tasks + spec.grid_size() *
                              static_cast<std::int64_t>(spec.replications));

  for (const SweepRow& row : a.rows) {
    EXPECT_GT(row.sim_lambda_sat, 0.0);
    EXPECT_GT(row.knee_lambda, 0.0);
    EXPECT_GT(row.sat_ratio, 0.0);
    EXPECT_FALSE(row.sim_run);
  }
  // Rows of the same (system, params, pattern, relay, flow) group share
  // one search; the two loads per group must agree exactly.
  EXPECT_EQ(a.rows[0].sim_lambda_sat, a.rows[1].sim_lambda_sat);
  // Different patterns are different searches (different destinations).
  EXPECT_NE(a.rows[0].sim_lambda_sat, a.rows[2].sim_lambda_sat);

  // The emitted table/CSV/JSON carry the new columns.
  std::ostringstream json;
  write_json(a, json);
  EXPECT_NE(json.str().find("\"sim_lambda_sat\""), std::string::npos);
  EXPECT_NE(json.str().find("\"sat_ratio\""), std::string::npos);
  const std::string table = to_table(a).render();
  EXPECT_NE(table.find("sim lambda*"), std::string::npos);
  EXPECT_NE(table.find("sim/model"), std::string::npos);
}

TEST(SweepRunner, JsonStaysParseableWhenModelsSaturate) {
  ScenarioSpec spec = tiny_spec();
  spec.run_sim = false;
  spec.loads = {1.0};  // far past saturation: predictions are infinite
  const SweepResult result = SweepRunner(spec).run();
  ASSERT_FALSE(result.rows[0].paper_stable);
  std::ostringstream out;
  write_json(result, out);
  const std::string json = out.str();
  // JSON has no inf/nan literals; unstable latencies must emit null.
  EXPECT_EQ(json.find(":inf"), std::string::npos);
  EXPECT_EQ(json.find(":nan"), std::string::npos);
  EXPECT_NE(json.find(":null"), std::string::npos);
}

TEST(SweepRunner, ExplainCollectsAnatomyAndBreakdownPerRow) {
  ScenarioSpec spec = tiny_spec();
  spec.replications = 1;
  SweepRunOptions options;
  options.explain = true;
  const SweepResult result = SweepRunner(spec).run(options);
  ASSERT_EQ(result.row_anatomy.size(), result.rows.size());
  ASSERT_EQ(result.row_breakdown.size(), result.rows.size());
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    EXPECT_TRUE(result.row_anatomy[r].finalized()) << "row " << r;
    EXPECT_GT(result.row_anatomy[r].messages(), 0u) << "row " << r;
    EXPECT_FALSE(result.row_breakdown[r].clusters.empty()) << "row " << r;
    EXPECT_EQ(result.row_breakdown[r].lambda_g, result.rows[r].lambda);
  }

  // The sweep JSON embeds one explain object per row, plus the flight
  // recorder health fields when probes/traces were collected.
  std::ostringstream out;
  write_json(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"explain\""), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck_station\""), std::string::npos);

  // Explain collection is rep-0-only observation: results stay identical
  // to a bare run of the same spec.
  const SweepResult bare = SweepRunner(spec).run();
  EXPECT_TRUE(bare.row_anatomy.empty());
  EXPECT_TRUE(bare.row_breakdown.empty());
  expect_rows_identical(result, bare);
}

TEST(SweepRunner, ExplainOnModelOnlySweepFillsBreakdownOnly) {
  ScenarioSpec spec = tiny_spec();
  spec.run_sim = false;
  SweepRunOptions options;
  options.explain = true;
  const SweepResult result = SweepRunner(spec).run(options);
  EXPECT_TRUE(result.row_anatomy.empty());
  ASSERT_EQ(result.row_breakdown.size(), result.rows.size());
  std::ostringstream out;
  write_json(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"explain\""), std::string::npos);
  EXPECT_NE(json.find("\"has_measured\":false"), std::string::npos);
}

TEST(SweepRunner, ObservabilityHealthFieldsInJson) {
  ScenarioSpec spec = tiny_spec();
  spec.replications = 1;
  SweepRunOptions options;
  options.collect_probes = true;
  options.collect_traces = true;
  const SweepResult result = SweepRunner(spec).run(options);
  std::ostringstream out;
  write_json(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"probe_decimations\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\""), std::string::npos);
}

TEST(SweepRunner, ModelsOnlySweepSkipsSimulation) {
  ScenarioSpec spec = tiny_spec();
  spec.run_sim = false;
  const SweepResult result = SweepRunner(spec).run();
  EXPECT_EQ(result.sim_tasks, 0);
  for (const SweepRow& row : result.rows) {
    EXPECT_FALSE(row.sim_run);
    EXPECT_TRUE(row.paper_run);
  }
}

// Acceptance check for the Fig. 3 sweep: 8 workers must beat 1 worker by
// > 3x. Only meaningful on hardware that can actually run 8 threads, so
// it skips elsewhere (the thread-count *invariance* tests above run
// everywhere and do not depend on physical parallelism).
TEST(SweepRunner, SpeedupOnFig3SweepWithEightThreads) {
  if (std::thread::hardware_concurrency() < 8)
    GTEST_SKIP() << "needs >= 8 hardware threads, have "
                 << std::thread::hardware_concurrency();

  ScenarioSpec spec;
  spec.name = "fig3_m32_speedup";
  spec.systems.push_back({"org_a", topo::SystemConfig::table1_org_a()});
  spec.message_flits = {32};
  spec.flit_bytes = {256, 512};
  for (int i = 1; i <= 10; ++i) spec.loads.push_back(0.5e-4 * i);
  spec.run_paper_model = false;
  spec.run_refined_model = false;
  spec.warmup = 500;
  spec.measured = 5'000;
  const SweepRunner runner(spec);

  SweepRunOptions one;
  one.threads = 1;
  SweepRunOptions eight;
  eight.threads = 8;
  // Order: parallel first so any OS-level warmup penalizes the baseline,
  // not the measurement.
  const SweepResult par = runner.run(eight);
  const SweepResult ser = runner.run(one);
  expect_rows_identical(ser, par);
  const double speedup = ser.wall_seconds / par.wall_seconds;
  EXPECT_GT(speedup, 3.0) << "1 thread: " << ser.wall_seconds
                          << "s, 8 threads: " << par.wall_seconds << "s";
}

}  // namespace
}  // namespace mcs::exp
