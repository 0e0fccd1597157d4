// E-MB: microbenchmarks (google-benchmark) for the performance-critical
// building blocks: routing, tree math, RNG, the event queue, the wormhole
// engine and whole-simulation throughput, and model evaluation.
#include <benchmark/benchmark.h>

#include <mcs/mcs.hpp>

namespace {

void BM_RouteInto(benchmark::State& state) {
  const mcs::topo::FatTree tree(
      mcs::topo::TreeShape{8, static_cast<int>(state.range(0))});
  std::vector<mcs::topo::ChannelId> path;
  mcs::util::Rng rng(1);
  const auto n = static_cast<std::uint64_t>(tree.endpoint_count());
  for (auto _ : state) {
    const auto s = static_cast<mcs::topo::EndpointId>(rng.next_below(n));
    auto d = static_cast<mcs::topo::EndpointId>(rng.next_below(n - 1));
    if (d >= s) ++d;
    path.clear();
    benchmark::DoNotOptimize(tree.route_into(s, d, path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteInto)->Arg(2)->Arg(3)->Arg(4);

void BM_HopDistribution(benchmark::State& state) {
  const mcs::topo::TreeShape shape{8, 4};
  for (auto _ : state) benchmark::DoNotOptimize(shape.hop_distribution());
}
BENCHMARK(BM_HopDistribution);

void BM_RngNextBelow(benchmark::State& state) {
  mcs::util::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(1119));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextBelow);

void BM_RngExponential(benchmark::State& state) {
  mcs::util::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(1e-4));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void BM_EventQueuePushPop(benchmark::State& state) {
  mcs::sim::EventQueue q;
  mcs::util::Rng rng(3);
  double now = 0.0;
  // Steady-state heap of ~1k events.
  for (int i = 0; i < 1000; ++i)
    q.push(rng.next_double() * 100.0, mcs::sim::EventKind::kGenerate, i);
  for (auto _ : state) {
    const auto ev = q.pop();
    now = ev.time;
    q.push(now + 0.01 + rng.next_double(), mcs::sim::EventKind::kGenerate,
           ev.a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(1024);
  mcs::util::Rng seed_rng(11);
  for (auto& w : weights) w = seed_rng.next_double() + 0.01;
  const mcs::util::AliasTable table(weights);
  mcs::util::Rng rng(13);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample);

/// Model kernel inputs. Arg 0: Table 1 org_a, whose 992 ordered cluster
/// pairs collapse to 9 paper / 11 refined pair classes. Arg 1: 128
/// clusters, m=8, h=2 on a fat-tree ICN2 (16,256 pairs, 1 / 3 classes).
/// Arg 2: the same clusters on a 16x8 torus ICN2, which has no class
/// table (one route walk per pair; refined model only).
mcs::topo::SystemConfig model_system(std::int64_t arg) {
  if (arg == 0) return mcs::topo::SystemConfig::table1_org_a();
  auto config = mcs::topo::SystemConfig::homogeneous(8, 2, 128);
  if (arg == 2) {
    config.icn2.kind = mcs::topo::Icn2Kind::kTorus;
    config.icn2.torus_rows = 16;
    config.icn2.torus_cols = 8;
  }
  return config;
}

void BM_PaperModelPredict(benchmark::State& state) {
  const mcs::model::PaperModel model(model_system(state.range(0)),
                                     mcs::model::NetworkParams{});
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(2e-4));
}
BENCHMARK(BM_PaperModelPredict)->ArgName("system")->Arg(0)->Arg(1);

void BM_RefinedModelPredict(benchmark::State& state) {
  const mcs::model::RefinedModel model(model_system(state.range(0)),
                                       mcs::model::NetworkParams{});
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(2e-4));
}
BENCHMARK(BM_RefinedModelPredict)->ArgName("system")->Arg(0)->Arg(1)->Arg(2);

void BM_SimulatorThroughput(benchmark::State& state) {
  // Whole-simulation throughput on a mid-size system at moderate load;
  // reported as events per second.
  mcs::topo::SystemConfig config;
  config.m = 4;
  config.cluster_heights = {2, 2, 3, 3};
  const mcs::topo::MultiClusterTopology topology(config);
  const mcs::model::NetworkParams params;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    mcs::sim::SimConfig cfg;
    cfg.seed = seed++;
    cfg.warmup_messages = 500;
    cfg.measured_messages = 5'000;
    mcs::sim::Simulator sim(topology, params, 2e-4, cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.latency.mean);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
