// Wormhole engine unit tests, including an exhaustive randomized
// comparison against the brute-force flit-level reference simulator.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "sim/drain.hpp"
#include "sim/event_queue.hpp"
#include "support/flit_reference.hpp"
#include "util/rng.hpp"

namespace mcs::sim {
namespace {

// Keyed by the spawn-time msg id: worm ids are pool-recycled, msg ids are
// stable.
struct DoneCapture : WormholeEngine::Listener {
  std::map<std::int32_t, double> done;
  std::map<std::int32_t, std::vector<double>> acquires;
  const WormholeEngine* engine = nullptr;
  void on_worm_done(WormId worm, double time) override {
    const Worm& w = engine->worm(worm);
    done[w.msg] = time;
    const std::span<const double> acquire = engine->acquire_times(worm);
    acquires[w.msg].assign(acquire.begin(), acquire.end());
  }
};

void run_all(EventQueue& queue, WormholeEngine& engine) {
  while (!queue.empty()) engine.handle(queue.pop());
}

TEST(Engine, SingleWormZeroLoadUniformService) {
  // Classic wormhole latency: K hops of t plus (M-1) flits at t each.
  const double t = 0.5;
  const int flits = 8;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({t, t, t, t}, flits, queue, capture);
  capture.engine = &engine;
  const std::vector<GlobalChannelId> path = {0, 1, 2, 3};
  engine.spawn(0, path, 1.0);
  run_all(queue, engine);
  ASSERT_TRUE(capture.done.count(0));
  EXPECT_NEAR(capture.done[0], 1.0 + 4 * t + (flits - 1) * t, 1e-12);
}

TEST(Engine, SingleWormMixedServiceMatchesReference) {
  const std::vector<double> service = {0.3, 0.9, 0.9, 0.3};
  const int flits = 6;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine(service, flits, queue, capture);
  capture.engine = &engine;
  const std::vector<GlobalChannelId> path = {0, 1, 2, 3};
  engine.spawn(0, path, 0.0);
  run_all(queue, engine);

  testsupport::RefScenario ref;
  ref.channel_service = service;
  ref.flits = flits;
  ref.worms.push_back({0.0, {0, 1, 2, 3}});
  const auto outcome = testsupport::simulate_flit_level(ref);
  EXPECT_NEAR(capture.done[0], outcome.done_time[0], 1e-9);
}

TEST(Engine, TwoWormsFifoOnSharedChannel) {
  // Both worms use channel 0 only; the second must wait for the first
  // tail to cross: service M*t each, back to back.
  const double t = 1.0;
  const int flits = 3;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({t}, flits, queue, capture);
  capture.engine = &engine;
  const std::vector<GlobalChannelId> path = {0};
  engine.spawn(0, path, 0.0);
  engine.spawn(1, path, 0.1);
  run_all(queue, engine);
  EXPECT_NEAR(capture.done[0], 3.0, 1e-12);
  EXPECT_NEAR(capture.acquires[1][0], 3.0, 1e-12);  // granted at release
  EXPECT_NEAR(capture.done[1], 6.0, 1e-12);
}

TEST(Engine, FifoOrderAmongThreeWaiters) {
  const double t = 1.0;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({t}, 2, queue, capture);
  capture.engine = &engine;
  // Spawns must be issued in time order (the arbiter FIFO is request
  // order); the Simulator guarantees this by spawning from timed events.
  const std::vector<GlobalChannelId> path = {0};
  engine.spawn(0, path, 0.0);
  engine.spawn(2, path, 0.1);
  engine.spawn(1, path, 0.2);
  run_all(queue, engine);
  EXPECT_LT(capture.done[0], capture.done[2]);
  EXPECT_LT(capture.done[2], capture.done[1]);
}

TEST(Engine, LateReleaseKeepsItsReservedPlaceInTheOrder) {
  // A's tail frees X at t=4 with nobody waiting, so the release is only
  // reserved (at t=1). C's header event for t=4 is scheduled after that,
  // at t=3; B asks for X at t=3.5, which pushes the release. It must pop
  // at its reserved place, before C's header: B then gets X, and its next
  // header event (t=5) is pushed before C's, so B wins V at t=5. Pushing
  // the release under a fresh seq would hand V to C instead.
  const GlobalChannelId w = 0, x = 1, y = 2, u = 3, v = 4;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({1.0, 1.0, 1.0, 1.0, 1.0}, 4, queue, capture);
  capture.engine = &engine;
  engine.spawn(/*A*/ 0, std::vector<GlobalChannelId>{x}, 0.0);
  engine.spawn(/*B*/ 1, std::vector<GlobalChannelId>{w, x, v}, 2.5);
  while (queue.top().time <= 1.0) engine.handle(queue.pop());
  engine.spawn(/*C*/ 2, std::vector<GlobalChannelId>{y, u, v}, 3.0);
  run_all(queue, engine);
  EXPECT_EQ(capture.acquires[1], (std::vector<double>{2.5, 4.0, 5.0}));
  EXPECT_EQ(capture.acquires[2][1], 4.0);
  EXPECT_GT(capture.acquires[2][2], 5.0);
}

TEST(Engine, WormSlotsAreRecycled) {
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({1.0}, 2, queue, capture);
  capture.engine = &engine;
  const std::vector<GlobalChannelId> path = {0};
  const WormId first = engine.spawn(0, path, 0.0);
  run_all(queue, engine);
  EXPECT_EQ(engine.live_worms(), 0);
  const WormId second = engine.spawn(1, path, 10.0);
  EXPECT_EQ(second, first);  // pool reuse
  run_all(queue, engine);
}

TEST(Engine, ChannelStatsAccountBusyTime) {
  const double t = 0.5;
  const int flits = 4;
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({t, t}, flits, queue, capture);
  capture.engine = &engine;
  engine.enable_channel_stats();
  engine.set_stats_window_start(0.0);
  engine.spawn(0, std::vector<GlobalChannelId>{0, 1}, 0.0);
  run_all(queue, engine);
  // Channel 0 held from 0 until the tail crosses it; channel 1 from t.
  EXPECT_EQ(engine.traversals(0), 1u);
  EXPECT_EQ(engine.traversals(1), 1u);
  EXPECT_GT(engine.busy_time(0), flits * t - 1e-9);
  EXPECT_GT(engine.busy_time(1), flits * t - 1e-9);
}

TEST(EngineDeathTest, PathLongerThanMessageIsRejected) {
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine({1.0, 1.0, 1.0}, 2, queue, capture);
  const std::vector<GlobalChannelId> path = {0, 1, 2};
  EXPECT_DEATH((void)engine.spawn(0, path, 0.0), "precondition");
}

// ---------------------------------------------------------------------------
// Randomized differential test: engine vs flit-level reference.
// ---------------------------------------------------------------------------

class EngineVsReference : public ::testing::TestWithParam<int> {};
class EngineVsReferenceLongPath : public ::testing::TestWithParam<int> {};

/// Shared body: random scenario of `base_channels..base_channels +
/// channel_spread - 1` channels, `base_flits..` flits and paths up to
/// `len_cap` hops, run through both simulators and compared. The long-path
/// variant drains paths as long as cut-through worms on tall trees.
void random_scenario_matches_reference(int seed, int base_channels,
                                       int channel_spread, int base_flits,
                                       int flit_spread, int len_cap) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

  testsupport::RefScenario ref;
  const int n_channels =
      base_channels +
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          channel_spread)));
  const double services[] = {0.25, 0.5, 0.75, 1.0};
  for (int c = 0; c < n_channels; ++c)
    ref.channel_service.push_back(
        services[rng.next_below(4)]);
  ref.flits = base_flits + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(flit_spread)));

  const int n_worms = 2 + static_cast<int>(rng.next_below(10));
  const int max_len =
      std::max(1, std::min(ref.flits - 1, len_cap));  // avoid M==K clamp edge
  for (int w = 0; w < n_worms; ++w) {
    testsupport::RefWormSpec spec;
    spec.spawn_time = rng.next_double() * 12.0;
    const int len = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(max_len)));
    // Sample distinct channels, then sort: acquiring resources in a global
    // order keeps the wait-for graph acyclic, mirroring the deadlock
    // freedom that Up*/Down* routing provides in the real network.
    std::vector<int> pool(static_cast<std::size_t>(n_channels));
    for (int c = 0; c < n_channels; ++c) pool[static_cast<std::size_t>(c)] = c;
    for (int i = 0; i < len; ++i) {
      const auto pick =
          i + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(n_channels - i)));
      std::swap(pool[static_cast<std::size_t>(i)],
                pool[static_cast<std::size_t>(pick)]);
      spec.path.push_back(pool[static_cast<std::size_t>(i)]);
    }
    std::sort(spec.path.begin(), spec.path.end());
    ref.worms.push_back(std::move(spec));
  }

  // Run the reference.
  const auto expected = testsupport::simulate_flit_level(ref);

  // Run the engine on the identical scenario.
  EventQueue queue;
  DoneCapture capture;
  WormholeEngine engine(ref.channel_service, ref.flits, queue, capture);
  capture.engine = &engine;
  engine.enable_channel_stats();
  engine.set_stats_window_start(0.0);
  std::vector<std::pair<double, int>> order;  // spawn in time order
  for (std::size_t w = 0; w < ref.worms.size(); ++w)
    order.emplace_back(ref.worms[w].spawn_time, static_cast<int>(w));
  std::sort(order.begin(), order.end());
  // Interleave spawns with event processing so spawn times are honored.
  std::size_t next_spawn = 0;
  while (next_spawn < order.size() || !queue.empty()) {
    const bool spawn_first =
        next_spawn < order.size() &&
        (queue.empty() || order[next_spawn].first <= queue.top().time);
    if (spawn_first) {
      const auto [time, idx] = order[next_spawn++];
      std::vector<GlobalChannelId> path(
          ref.worms[static_cast<std::size_t>(idx)].path.begin(),
          ref.worms[static_cast<std::size_t>(idx)].path.end());
      engine.spawn(idx, path, time);
    } else {
      engine.handle(queue.pop());
    }
  }

  for (std::size_t w = 0; w < ref.worms.size(); ++w) {
    const auto msg = static_cast<std::int32_t>(w);
    ASSERT_TRUE(capture.done.count(msg)) << "worm " << w << " never finished";
    EXPECT_NEAR(capture.done[msg], expected.done_time[w], 1e-9)
        << "completion mismatch for worm " << w;
    const auto& acq = capture.acquires[msg];
    ASSERT_EQ(acq.size(), expected.acquire_time[w].size());
    for (std::size_t j = 0; j < acq.size(); ++j)
      EXPECT_NEAR(acq[j], expected.acquire_time[w][j], 1e-9)
          << "acquire mismatch worm " << w << " hop " << j;
  }

  // Busy-time accounting must agree with the reference's release times.
  const auto ref_busy = expected.busy_time(ref);
  for (int c = 0; c < n_channels; ++c)
    EXPECT_NEAR(engine.busy_time(c), ref_busy[static_cast<std::size_t>(c)],
                1e-9)
        << "busy-time mismatch on channel " << c;
}

TEST_P(EngineVsReference, RandomScenarioMatchesFlitReference) {
  random_scenario_matches_reference(GetParam(), /*base_channels=*/6,
                                    /*channel_spread=*/10, /*base_flits=*/2,
                                    /*flit_spread=*/9, /*len_cap=*/5);
}

TEST_P(EngineVsReferenceLongPath, RandomScenarioMatchesFlitReference) {
  random_scenario_matches_reference(GetParam() + 1000, /*base_channels=*/26,
                                    /*channel_spread=*/8, /*base_flits=*/25,
                                    /*flit_spread=*/12, /*len_cap=*/24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsReference, ::testing::Range(0, 40));
INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsReferenceLongPath,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Closed-form drain vs the full recurrence (sim/drain.hpp), bit for bit.
// ---------------------------------------------------------------------------

/// Random service shape that drain_is_monotone accepts: nondecreasing
/// over hops 0..K-2 with frequent repeats (t_cs runs), and a last hop
/// at most svc[K-2] (equal, as in a [t, ..., t] leg, or smaller, as the
/// t_cn ejection of a relay leg).
std::vector<double> monotone_service(util::Rng& rng, std::size_t hops) {
  std::vector<double> svc(hops);
  double s = 0.05 + rng.next_double();
  for (std::size_t j = 0; j + 1 < hops; ++j) {
    if (rng.next_below(3) == 0) s += rng.next_double();
    svc[j] = s;
  }
  svc[hops - 1] = rng.next_below(3) == 0
                      ? svc[hops - 2]
                      : svc[hops - 2] * rng.next_double();
  return svc;
}

TEST(DrainClosedForm, MatchesTheFullRecurrenceBitForBit) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto hops = static_cast<std::size_t>(2 + rng.next_below(19));
    const int flits =
        static_cast<int>(hops + rng.next_below(129 - hops));  // K..128
    const std::vector<double> svc = monotone_service(rng, hops);
    ASSERT_TRUE(drain_is_monotone(svc.data(), hops));
    // Header row as the engine records it: hop j+1 granted exactly when
    // hop j's crossing ends (a rounded tie), or after a random wait.
    std::vector<double> acquire(hops);
    acquire[0] = 1000.0 * rng.next_double();
    const bool ties = trial % 2 == 0;
    for (std::size_t j = 0; j + 1 < hops; ++j) {
      acquire[j + 1] = acquire[j] + svc[j];
      if (!ties && rng.next_below(2) == 0)
        acquire[j + 1] += 3.0 * rng.next_double();
    }
    std::vector<double> grid(hops), closed(hops);
    drain_grid(acquire.data(), svc.data(), hops, flits, grid.data());
    drain_closed_form(acquire.data(), svc.data(), hops, flits,
                      closed.data());
    ASSERT_EQ(std::memcmp(grid.data(), closed.data(),
                          hops * sizeof(double)),
              0)
        << "K=" << hops << " M=" << flits << " trial " << trial;
  }
}

TEST(DrainClosedForm, SingleHopIsAChainOfAdds) {
  const double acquire = 3.7;
  const double svc = 0.276;
  double expected = acquire;
  for (int f = 1; f < 32; ++f) expected += svc;
  double out = 0.0;
  ASSERT_TRUE(drain_is_monotone(&svc, 1));
  drain_closed_form(&acquire, &svc, 1, 32, &out);
  EXPECT_EQ(out, expected);
}

TEST(DrainClosedForm, ShapeTestRejectsMixedLegs) {
  const double a = 0.276, b = 0.522;
  // Store-and-forward relay legs: [t_cn, t_cs, ..., t_cs, t_cn].
  const std::vector<double> relay = {a, b, b, b, a};
  EXPECT_TRUE(drain_is_monotone(relay.data(), relay.size()));
  const std::vector<double> pair = {a, a};
  EXPECT_TRUE(drain_is_monotone(pair.data(), pair.size()));
  // Cut-through merged worms: one relay leg after another.
  const std::vector<double> merged = {a, b, a, a, b, a};
  EXPECT_FALSE(drain_is_monotone(merged.data(), merged.size()));
  // A last hop slower than the one before it.
  const std::vector<double> slow_tail = {a, b, b, 2 * b};
  EXPECT_FALSE(drain_is_monotone(slow_tail.data(), slow_tail.size()));
  const std::vector<double> slow_head = {b, a, a};
  EXPECT_FALSE(drain_is_monotone(slow_head.data(), slow_head.size()));
}

}  // namespace
}  // namespace mcs::sim
