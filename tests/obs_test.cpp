// Unit tests of the obs/ flight-recorder components in isolation:
// ProbeSeries scheduling + adaptive decimation, TraceBuffer capping, the
// CSV/JSON writers (round-tripped through the json_mini test parser), and
// RunManifest provenance capture. The simulator-facing contract (probes
// and traces never perturb results) lives in obs_sim_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep_io.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "support/json_mini.hpp"
#include "util/error.hpp"

namespace mcs::obs {
namespace {

using testsupport::parse_json;

TEST(ProbeConfig, ValidateRejectsBadValues) {
  ProbeConfig tiny;
  tiny.max_samples = 1;
  EXPECT_THROW(tiny.validate(), ConfigError);

  ProbeConfig negative;
  negative.interval = -1.0;
  EXPECT_THROW(negative.validate(), ConfigError);

  ProbeConfig auto_mode;  // interval = 0 means auto, which is valid
  EXPECT_NO_THROW(auto_mode.validate());
  EXPECT_THROW(ProbeSeries{tiny}, ConfigError);
}

TEST(ProbeSeries, FixedIntervalSchedule) {
  ProbeConfig cfg;
  cfg.interval = 10.0;
  ProbeSeries series(cfg);

  EXPECT_FALSE(series.due(0.0));
  EXPECT_FALSE(series.due(9.99));
  EXPECT_TRUE(series.due(10.0));   // exactly on the boundary
  EXPECT_FALSE(series.due(10.5));  // one sample per window
  EXPECT_FALSE(series.due(19.0));
  EXPECT_TRUE(series.due(20.0));
}

TEST(ProbeSeries, AutoIntervalLocksToFirstOpportunity) {
  ProbeSeries series;  // interval = 0 -> auto
  EXPECT_DOUBLE_EQ(series.interval(), 0.0);
  EXPECT_FALSE(series.due(0.0));  // time has not advanced yet
  EXPECT_TRUE(series.due(7.5));   // first positive time sets the cadence
  EXPECT_DOUBLE_EQ(series.interval(), 7.5);
  EXPECT_FALSE(series.due(14.9));
  EXPECT_TRUE(series.due(15.0));
}

TEST(ProbeSeries, SkipsAheadWithoutCatchUpBurst) {
  ProbeConfig cfg;
  cfg.interval = 10.0;
  ProbeSeries series(cfg);
  // The event stream jumps 5 intervals at once: exactly one sample is due,
  // and the next boundary is after `now`, not in the past.
  EXPECT_TRUE(series.due(52.0));
  EXPECT_FALSE(series.due(52.0));
  EXPECT_FALSE(series.due(59.9));
  EXPECT_TRUE(series.due(60.0));
}

TEST(ProbeSeries, DecimationHalvesBufferAndDoublesInterval) {
  ProbeConfig cfg;
  cfg.interval = 1.0;
  cfg.max_samples = 8;
  ProbeSeries series(cfg);

  for (int i = 0; i < 20; ++i) {
    ProbeSample s;
    s.time = static_cast<double>(i);
    s.events = static_cast<std::uint64_t>(i);
    series.record(s);
  }
  // 8 fill the buffer; the 9th triggers decimation (keep even indices)
  // and so on. The buffer never exceeds max_samples...
  EXPECT_LE(series.samples().size(), cfg.max_samples);
  EXPECT_GE(series.decimations(), 1);
  EXPECT_DOUBLE_EQ(series.interval(), cfg.interval *
                   std::pow(2.0, series.decimations()));
  // ...the first sample always survives, and time stays monotone.
  ASSERT_FALSE(series.samples().empty());
  EXPECT_DOUBLE_EQ(series.samples().front().time, 0.0);
  for (std::size_t i = 1; i < series.samples().size(); ++i)
    EXPECT_GE(series.samples()[i].time, series.samples()[i - 1].time);
  // The newest sample is retained verbatim (tails matter for saturation).
  EXPECT_DOUBLE_EQ(series.samples().back().time, 19.0);
}

ProbeSeries small_series() {
  ProbeConfig cfg;
  cfg.interval = 1.0;
  ProbeSeries series(cfg);
  for (int i = 0; i < 3; ++i) {
    ProbeSample s;
    s.time = static_cast<double>(i + 1);
    s.events = static_cast<std::uint64_t>(10 * (i + 1));
    s.queue_depth = 5 - i;
    s.live_worms = i;
    s.utilization[0] = 0.25 * i;
    s.per_cluster_delivered = {i, 2 * i};
    series.record(s);
  }
  return series;
}

TEST(ProbeWriters, CsvHasHeaderAndOneRowPerSample) {
  const ProbeSeries series = small_series();
  std::ostringstream out;
  write_probe_csv(out, {{"run, \"a\"", &series}});
  const std::string text = out.str();

  std::istringstream lines(text);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "run,time,events,queue_depth,live_worms,waiting_worms,"
            "pool_rows,generated,delivered_measured,util_icn1,util_ecn1,"
            "util_icn2,delivered_c0,delivered_c1");
  int rows = 0;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++rows;
    // The label contains a comma and quotes, so it must be CSV-escaped.
    EXPECT_EQ(line.rfind("\"run, \"\"a\"\"\",", 0), 0u) << line;
  }
  EXPECT_EQ(rows, 3);
}

TEST(ProbeWriters, JsonRoundTripsThroughParser) {
  const ProbeSeries series = small_series();
  std::ostringstream out;
  write_probe_json(out, {{"row \"zero\"", &series}});

  const testsupport::JsonValue doc = parse_json(out.str());
  const auto& probes = doc.at("probes");
  ASSERT_TRUE(probes.is_array());
  ASSERT_EQ(probes.array.size(), 1u);
  const auto& run = probes.array[0];
  EXPECT_EQ(run.at("run").string, "row \"zero\"");
  EXPECT_DOUBLE_EQ(run.at("interval").number, 1.0);
  const auto& samples = run.at("samples");
  ASSERT_EQ(samples.array.size(), 3u);
  EXPECT_DOUBLE_EQ(samples.array[1].at("time").number, 2.0);
  EXPECT_DOUBLE_EQ(samples.array[1].at("events").number, 20.0);
  EXPECT_DOUBLE_EQ(samples.array[1].at("utilization").array[0].number, 0.25);
  EXPECT_EQ(samples.array[2].at("per_cluster_delivered").array.size(), 2u);
}

TEST(TraceConfig, ValidateRejectsBadValues) {
  TraceConfig bad_sample;
  bad_sample.sample_every = 0;
  EXPECT_THROW(bad_sample.validate(), ConfigError);

  TraceConfig bad_cap;
  bad_cap.max_events = 0;
  EXPECT_THROW(bad_cap.validate(), ConfigError);
  EXPECT_THROW(TraceBuffer{bad_cap}, ConfigError);
}

TEST(TraceBuffer, CapsAndCountsDrops) {
  TraceConfig cfg;
  cfg.max_events = 4;
  TraceBuffer buffer(cfg, /*pid=*/3);
  for (int i = 0; i < 10; ++i)
    buffer.complete("span", i, static_cast<double>(i), 1.0);
  EXPECT_EQ(buffer.events().size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  EXPECT_EQ(buffer.pid(), 3);
}

TEST(TraceWriters, JsonRoundTripsWithMetadataAndArgs) {
  TraceBuffer buffer(TraceConfig{}, /*pid=*/7);
  buffer.set_label("row \"a\"/tree");
  buffer.complete("msg", 0, 1.5, 4.0, "\"hops\":3,\"internal\":true");
  buffer.complete("hop", 0, 1.5, 2.0);

  std::ostringstream out;
  write_trace_json(out, {&buffer, nullptr});
  const testsupport::JsonValue doc = parse_json(out.str());
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.array.size(), 3u);  // process_name + 2 spans

  const auto& meta = events.array[0];
  EXPECT_EQ(meta.at("name").string, "process_name");
  EXPECT_EQ(meta.at("ph").string, "M");
  EXPECT_DOUBLE_EQ(meta.at("pid").number, 7.0);
  EXPECT_EQ(meta.at("args").at("name").string, "row \"a\"/tree");

  const auto& msg = events.array[1];
  EXPECT_EQ(msg.at("name").string, "msg");
  EXPECT_EQ(msg.at("ph").string, "X");
  EXPECT_DOUBLE_EQ(msg.at("ts").number, 1.5);
  EXPECT_DOUBLE_EQ(msg.at("dur").number, 4.0);
  EXPECT_DOUBLE_EQ(msg.at("args").at("hops").number, 3.0);
  EXPECT_TRUE(msg.at("args").at("internal").boolean);
  EXPECT_FALSE(events.array[2].has("args"));
}

/// The first cell of the CSV record starting at `pos` (RFC 4180 quoting:
/// a quoted cell doubles its quotes and may span lines).
std::string first_csv_cell(const std::string& text, std::size_t pos) {
  std::string cell;
  if (text[pos] != '"') {
    while (text[pos] != ',') cell += text[pos++];
    return cell;
  }
  for (++pos; pos < text.size(); ++pos) {
    if (text[pos] == '"' && text[++pos] != '"') break;
    cell += text[pos];
  }
  return cell;
}

// Every emitter escapes a label the same way: sweep, probe and trace JSON
// parse back to the label, and so does the probe CSV's run cell.
TEST(ObsFiles, AFullDiskFailsTheWrite) {
  // /dev/full accepts the open and fails the flush: the run must fail,
  // not report a written file that is empty.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full not available on this platform";
  const ProbeSeries series = small_series();
  EXPECT_THROW(write_probe_file("/dev/full", {{"run", &series}}),
               ConfigError);
  EXPECT_THROW(write_trace_file("/dev/full", {}), ConfigError);
}

TEST(LabelEscaping, EveryWriterRoundTripsAHostileLabel) {
  const std::string label = "a \"q\" \\ b,c\td\ne";

  exp::SweepResult result;
  result.name = label;
  result.rows.emplace_back();
  result.rows.back().system_id = label;
  std::ostringstream sweep;
  exp::write_json(result, sweep, /*stable=*/true);
  const testsupport::JsonValue sweep_doc = parse_json(sweep.str());
  EXPECT_EQ(sweep_doc.at("name").string, label);
  EXPECT_EQ(sweep_doc.at("rows").array.at(0).at("system").string, label);

  const ProbeSeries series = small_series();
  std::ostringstream probe_json;
  write_probe_json(probe_json, {{label, &series}});
  EXPECT_EQ(parse_json(probe_json.str()).at("probes").array.at(0).at("run")
                .string,
            label);

  TraceBuffer buffer(TraceConfig{}, /*pid=*/1);
  buffer.set_label(label);
  buffer.complete(label, 0, 1.0, 1.0);
  std::ostringstream trace;
  write_trace_json(trace, {&buffer});
  const testsupport::JsonValue trace_doc = parse_json(trace.str());
  const auto& events = trace_doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("args").at("name").string, label);
  EXPECT_EQ(events[1].at("name").string, label);

  std::ostringstream probe_csv;
  write_probe_csv(probe_csv, {{label, &series}});
  const std::string csv = probe_csv.str();
  EXPECT_EQ(first_csv_cell(csv, csv.find('\n') + 1), label);
}

TEST(RunManifest, CapturesProvenanceAndResources) {
  RunManifest manifest = RunManifest::begin();
  EXPECT_FALSE(manifest.git.empty());
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_FALSE(manifest.hostname.empty());

  volatile double sink = 0.0;  // burn a little CPU so cpu_seconds > 0
  for (int i = 0; i < 1'000'000; ++i) sink = sink + 1.0 / (i + 1);
  manifest.complete();
  EXPECT_GE(manifest.wall_seconds, 0.0);
  EXPECT_GE(manifest.cpu_seconds, 0.0);

  std::ostringstream compact;
  manifest.write_json(compact);
  const testsupport::JsonValue doc = parse_json(compact.str());
  EXPECT_EQ(doc.at("git").string, manifest.git);
  EXPECT_EQ(doc.at("hostname").string, manifest.hostname);
  EXPECT_GE(doc.at("wall_seconds").number, 0.0);
  // The perf baseline reader line-greps for "id": and "worms_per_sec":;
  // the manifest must never emit those substrings or old baselines break.
  EXPECT_EQ(compact.str().find("\"id\":"), std::string::npos);
  EXPECT_EQ(compact.str().find("\"worms_per_sec\":"), std::string::npos);

  std::ostringstream indented;
  manifest.write_json(indented, 4);
  EXPECT_NO_THROW(parse_json(indented.str()));
  EXPECT_NE(indented.str().find("\n    \""), std::string::npos);
}

}  // namespace
}  // namespace mcs::obs
