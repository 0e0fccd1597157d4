// Determinism contract of the flight recorder (DESIGN.md §12): attaching
// probes and tracing to a Simulator must leave every result bit-identical
// to the uninstrumented run — observation never consumes RNG, never
// pushes or reorders events. These tests run the PR 3 golden
// configurations twice (bare vs fully instrumented) and compare hexfloat
// fingerprints, re-pin one golden string verbatim under instrumentation,
// and then assert the semantic invariants of what was captured: monotone
// probe times, utilizations in [0, 1], and correctly nested trace spans
// (msg ⊇ leg ⊇ queue_wait/hops) after a JSON round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "support/json_mini.hpp"

namespace mcs::sim {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Same field set as sim_golden_test.cpp's fingerprint: any divergence
/// between a bare and an instrumented run must show up here.
std::string fingerprint(const SimResult& r) {
  std::string s;
  s += "mean=" + hex(r.latency.mean);
  s += " p50=" + hex(r.latency_p50);
  s += " p95=" + hex(r.latency_p95);
  s += " p99=" + hex(r.latency_p99);
  s += " int=" + hex(r.internal_latency.mean);
  s += " ext=" + hex(r.external_latency.mean);
  s += " srcw=" + hex(r.mean_source_wait);
  s += " end=" + hex(r.end_time);
  s += " events=" + std::to_string(r.events_processed);
  s += " gen=" + std::to_string(r.generated);
  s += " nint=" + std::to_string(r.measured_internal);
  s += " next=" + std::to_string(r.measured_external);
  return s;
}

SimConfig golden_config() {
  SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.batch_size = 100;
  return cfg;
}

topo::SystemConfig tree_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3};
  return cfg;
}

topo::SystemConfig torus_system(bool wrap) {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 6);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;
  cfg.icn2.torus_wrap = wrap;
  return cfg;
}

/// tree_system with per-cluster technologies, a distinct ICN2 backbone
/// and a skewed load (DESIGN.md §10): the per-net service table and the
/// per-cluster arrival rates under observation.
topo::SystemConfig hetero_tech_system() {
  topo::SystemConfig cfg = tree_system();
  cfg.cluster_net.assign(3, {});
  cfg.cluster_net[0].beta_net = 0.001;  // fast small clusters
  cfg.cluster_net[1].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;  // slow big cluster
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;  // long-haul backbone
  cfg.icn2_net.beta_net = 0.001;
  cfg.load_scale = {1.5, 1.5, 0.75};
  return cfg;
}

SimResult run(const topo::SystemConfig& system, SimConfig cfg) {
  topo::MultiClusterTopology topology(system);
  model::NetworkParams params;
  Simulator sim(topology, params, 2e-4, std::move(cfg));
  return sim.run();
}

/// Run bare, then instrumented (probes + traces + latency anatomy attached
/// to a copy of the same config); EXPECT identical fingerprints and return
/// the capture.
struct InstrumentedRun {
  SimResult bare;
  SimResult observed;
  obs::ProbeSeries probes;
  obs::TraceBuffer trace;
  obs::LatencyAnatomy anatomy;
};

InstrumentedRun run_both(const topo::SystemConfig& system,
                         const SimConfig& cfg) {
  InstrumentedRun r;
  r.bare = run(system, cfg);

  SimConfig observed_cfg = cfg;
  obs::TraceConfig trace_cfg;
  trace_cfg.sample_every = 4;  // dense enough for span assertions
  r.trace = obs::TraceBuffer(trace_cfg);
  observed_cfg.probes = &r.probes;
  observed_cfg.trace = &r.trace;
  observed_cfg.anatomy = &r.anatomy;
  r.observed = run(system, observed_cfg);

  EXPECT_EQ(fingerprint(r.bare), fingerprint(r.observed));
  // The anatomy accounts every measured message exhaustively; its
  // per-leg components must re-add to each end-to-end latency up to
  // re-association rounding (DESIGN.md §13 conservation contract).
  EXPECT_TRUE(r.anatomy.finalized());
  EXPECT_EQ(r.anatomy.messages(),
            static_cast<std::uint64_t>(r.observed.measured_internal +
                                       r.observed.measured_external));
  EXPECT_LE(r.anatomy.max_relative_residual(), 16.0 * 2.220446049250313e-16);
  return r;
}

TEST(ObsContract, GoldenFingerprintUnchangedUnderInstrumentation) {
  // The exact PR 3 golden string for WormholeFatTree, reproduced with
  // probes AND tracing live: the flight recorder replays the seed's
  // simulation bit for bit.
  const InstrumentedRun r = run_both(tree_system(), golden_config());
  EXPECT_EQ(fingerprint(r.observed),
            "mean=0x1.0c86614b7fba3p+5 p50=0x1.284dd2f1a2p+5 "
            "p95=0x1.6da9fbe776p+5 p99=0x1.a984401af0c8fp+5 "
            "int=0x1.1a8ca7212bc6ep+4 ext=0x1.517f4110574acp+5 "
            "srcw=0x1.6106691841892p-6 end=0x1.41d917121a988p+18 "
            "events=25967 gen=2200 nint=703 next=1297");
}

TEST(ObsContract, AllGoldenVariantsBitIdenticalWithObservers) {
  run_both(torus_system(/*wrap=*/true), golden_config());

  SimConfig saf = golden_config();
  saf.flow_control = FlowControl::kStoreAndForward;
  run_both(tree_system(), saf);

  SimConfig cut = golden_config();
  cut.relay_mode = RelayMode::kCutThrough;
  run_both(tree_system(), cut);

  const InstrumentedRun hetero =
      run_both(hetero_tech_system(), golden_config());
  EXPECT_FALSE(hetero.observed.saturated);
}

TEST(ObsContract, ChannelStatsRunUnperturbedByProbes) {
  // Probes piggyback on the engine's channel busy counters, which a
  // collect_channel_stats run also reads: both consumers at once must
  // still be invisible, and the reported channel classes must match.
  SimConfig cfg = golden_config();
  cfg.collect_channel_stats = true;
  const InstrumentedRun r = run_both(tree_system(), cfg);
  ASSERT_EQ(r.bare.channel_classes.size(), r.observed.channel_classes.size());
  for (std::size_t i = 0; i < r.bare.channel_classes.size(); ++i) {
    EXPECT_EQ(r.bare.channel_classes[i].mean_utilization,
              r.observed.channel_classes[i].mean_utilization);
    EXPECT_EQ(r.bare.channel_classes[i].mean_message_rate,
              r.observed.channel_classes[i].mean_message_rate);
  }
}

TEST(ObsProbes, SeriesInvariantsAndFinalSample) {
  const InstrumentedRun r = run_both(tree_system(), golden_config());
  const std::vector<obs::ProbeSample>& samples = r.probes.samples();
  ASSERT_GE(samples.size(), 3u) << "probe series unexpectedly sparse";

  double prev_time = -1.0;
  std::uint64_t prev_events = 0;
  for (const obs::ProbeSample& p : samples) {
    EXPECT_GT(p.time, prev_time);
    EXPECT_GE(p.events, prev_events);
    prev_time = p.time;
    prev_events = p.events;
    EXPECT_GE(p.queue_depth, 0);
    EXPECT_GE(p.live_worms, 0);
    EXPECT_GE(p.waiting_worms, 0);
    EXPECT_GT(p.pool_rows, 0);
    EXPECT_GE(p.generated, 0);
    EXPECT_GE(p.delivered_measured, 0);
    EXPECT_LE(p.delivered_measured, p.generated);
    for (int k = 0; k < obs::kNetClasses; ++k) {
      EXPECT_GE(p.utilization[k], 0.0) << obs::net_class_name(k);
      EXPECT_LE(p.utilization[k], 1.0) << obs::net_class_name(k);
    }
    EXPECT_EQ(p.per_cluster_delivered.size(), 3u);  // tree_system clusters
  }

  // The final (forced) sample coincides with the end of the run.
  EXPECT_EQ(samples.back().time, r.observed.end_time);
  EXPECT_EQ(samples.back().events, r.observed.events_processed);
  EXPECT_EQ(samples.back().generated, r.observed.generated);
}

TEST(ObsTrace, SpansNestCorrectlyAfterJsonRoundTrip) {
  const InstrumentedRun r = run_both(tree_system(), golden_config());
  ASSERT_FALSE(r.trace.events().empty());
  EXPECT_EQ(r.trace.dropped(), 0u);

  std::ostringstream out;
  obs::write_trace_json(out, {&r.trace});
  const testsupport::JsonValue doc = testsupport::parse_json(out.str());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  struct Span {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
  };
  std::map<int, std::vector<Span>> by_tid;
  for (const testsupport::JsonValue& e : events.array) {
    if (e.at("ph").string == "M") continue;  // process_name metadata
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_GE(e.at("dur").number, 0.0);
    by_tid[static_cast<int>(e.at("tid").number)].push_back(
        Span{e.at("name").string, e.at("ts").number, e.at("dur").number});
  }

  // sample_every=4 over 2200 generated messages: hundreds of lanes.
  EXPECT_GT(by_tid.size(), 100u);

  // Times round-trip through precision-12 decimal JSON; at end_time scale
  // (~3e5 virtual time units) that leaves ~1e-6 of absolute slack.
  const double eps = 1e-5;
  for (const auto& [tid, spans] : by_tid) {
    // Exactly one msg span per traced message; it brackets every other
    // span in its lane.
    const Span* msg = nullptr;
    int legs = 0;
    int queue_waits = 0;
    for (const Span& s : spans) {
      if (s.name == "msg") {
        ASSERT_EQ(msg, nullptr) << "duplicate msg span in tid " << tid;
        msg = &s;
      } else if (s.name == "queue_wait") {
        ++queue_waits;
      } else if (s.name != "hop") {
        ++legs;  // icn1 / ecn1_out / icn2 / ecn1_in / cut_through
        EXPECT_TRUE(s.name == "icn1" || s.name == "ecn1_out" ||
                    s.name == "icn2" || s.name == "ecn1_in" ||
                    s.name == "cut_through")
            << s.name;
      }
    }
    ASSERT_NE(msg, nullptr) << "tid " << tid << " has no msg span";
    EXPECT_GE(legs, 1);
    EXPECT_EQ(queue_waits, legs);  // one source-queue wait per worm leg
    for (const Span& s : spans) {
      if (&s == msg) continue;
      EXPECT_GE(s.ts, msg->ts - eps) << s.name << " starts before its msg";
      EXPECT_LE(s.ts + s.dur, msg->ts + msg->dur + eps)
          << s.name << " ends after its msg";
    }
    // Every hop lies inside some leg span of the same lane.
    for (const Span& s : spans) {
      if (s.name != "hop") continue;
      bool inside = false;
      for (const Span& leg : spans) {
        if (leg.name == "msg" || leg.name == "hop" ||
            leg.name == "queue_wait")
          continue;
        if (s.ts >= leg.ts - eps && s.ts + s.dur <= leg.ts + leg.dur + eps) {
          inside = true;
          break;
        }
      }
      EXPECT_TRUE(inside) << "orphan hop span in tid " << tid;
    }
  }
}

TEST(ObsTrace, SamplingIsDeterministicByGenerationIndex) {
  // Two instrumented runs of the same config capture identical traces:
  // sampling depends only on the generation index, never on RNG or time.
  SimConfig cfg = golden_config();
  obs::TraceConfig trace_cfg;
  trace_cfg.sample_every = 8;

  obs::TraceBuffer a(trace_cfg), b(trace_cfg);
  SimConfig cfg_a = cfg, cfg_b = cfg;
  cfg_a.trace = &a;
  cfg_b.trace = &b;
  const SimResult ra = run(tree_system(), cfg_a);
  const SimResult rb = run(tree_system(), cfg_b);
  EXPECT_EQ(fingerprint(ra), fingerprint(rb));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].name, b.events()[i].name);
    EXPECT_EQ(a.events()[i].tid, b.events()[i].tid);
    EXPECT_EQ(a.events()[i].ts, b.events()[i].ts);
    EXPECT_EQ(a.events()[i].dur, b.events()[i].dur);
    EXPECT_EQ(a.events()[i].args, b.events()[i].args);
  }
}

TEST(ObsAnatomy, ExhaustiveAccountingInvariants) {
  const InstrumentedRun r = run_both(tree_system(), golden_config());
  const obs::LatencyAnatomy& a = r.anatomy;

  // Every measured message, internal and external, is in the latency
  // histogram; internal ones never leave the cluster, so only segment 0.
  EXPECT_EQ(a.message_latency().count(), a.messages());
  EXPECT_EQ(a.internal_messages(),
            static_cast<std::uint64_t>(r.observed.measured_internal));
  EXPECT_EQ(a.segment(0).legs,
            static_cast<std::uint64_t>(r.observed.measured_internal));
  // External messages traverse ecn1_out -> icn2 -> ecn1_in, one leg each.
  for (int s : {1, 2, 3})
    EXPECT_EQ(a.segment(s).legs,
              static_cast<std::uint64_t>(r.observed.measured_external));
  EXPECT_EQ(a.segment(4).legs, 0u);  // no cut-through in this config

  for (int s = 0; s < obs::kSegments; ++s) {
    const obs::SegmentAnatomy& seg = a.segment(s);
    EXPECT_EQ(seg.wait.count(), seg.legs);
    EXPECT_EQ(seg.service.count(), seg.legs);
    EXPECT_GE(seg.wait_sum, 0.0);
    EXPECT_GE(seg.header_sum, 0.0);
    EXPECT_GE(seg.drain_sum, 0.0);
  }

  // Station view: utilizations are proper fractions and the ECN1 NIC
  // (station 1) serves the external outbound legs.
  for (int k = 0; k < obs::kStations; ++k) {
    const obs::StationMeasure st = a.station(k);
    EXPECT_GE(st.utilization, 0.0) << obs::station_name(k);
    EXPECT_LE(st.utilization, 1.0) << obs::station_name(k);
    EXPECT_GE(st.mean_wait, 0.0);
    EXPECT_GE(st.mean_service, 0.0);
  }
  EXPECT_EQ(a.station(1).legs,
            static_cast<std::uint64_t>(r.observed.measured_external));

  // Hot channels: at most top_channels entries, all ICN2, all traversed,
  // ranked by accumulated header residence (descending).
  const std::vector<obs::ChannelAnatomy>& hot = a.hot_channels();
  EXPECT_LE(hot.size(),
            static_cast<std::size_t>(a.config().top_channels));
  EXPECT_FALSE(hot.empty());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    EXPECT_EQ(hot[i].net_class, 2);
    EXPECT_GT(hot[i].traversals, 0u);
    EXPECT_GE(hot[i].utilization, 0.0);
    EXPECT_LE(hot[i].utilization, 1.0);
    if (i > 0) {
      EXPECT_GE(hot[i - 1].residence_sum, hot[i].residence_sum);
    }
  }
}

TEST(ObsAnatomy, CutThroughLegsQueueAtEcn1Station) {
  SimConfig cut = golden_config();
  cut.relay_mode = RelayMode::kCutThrough;
  const InstrumentedRun r = run_both(tree_system(), cut);
  const obs::LatencyAnatomy& a = r.anatomy;
  // Under cut-through relay, external messages ride one merged worm
  // (segment 4) instead of the ecn1_out/icn2/ecn1_in chain...
  EXPECT_EQ(a.segment(4).legs,
            static_cast<std::uint64_t>(r.observed.measured_external));
  for (int s : {1, 2, 3}) EXPECT_EQ(a.segment(s).legs, 0u);
  // ...and the station view folds those legs into the ECN1 NIC.
  EXPECT_EQ(obs::station_of_segment(4), 1);
  EXPECT_EQ(a.station(1).legs,
            static_cast<std::uint64_t>(r.observed.measured_external));
}

TEST(ObsAnatomy, MatchesEngineChannelStats) {
  // rho-hat comes from the same engine busy counters that
  // collect_channel_stats reports, over the same window: the anatomy's
  // per-channel utilizations must reproduce the ICN2 class mean.
  SimConfig cfg = golden_config();
  cfg.collect_channel_stats = true;
  const InstrumentedRun r = run_both(tree_system(), cfg);
  ASSERT_FALSE(r.observed.channel_classes.empty());
  EXPECT_GT(r.anatomy.window(), 0.0);
}

}  // namespace
}  // namespace mcs::sim
