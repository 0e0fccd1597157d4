#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace mcs::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, EventKind::kGenerate, 1);
  q.push(1.0, EventKind::kGenerate, 2);
  q.push(2.0, EventKind::kGenerate, 3);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 3);
  EXPECT_EQ(q.pop().a, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(5.0, EventKind::kRelease, i);
  for (int i = 0; i < 10; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.a, i);
    EXPECT_DOUBLE_EQ(e.time, 5.0);
  }
}

TEST(EventQueue, InterleavedPushPopStaysSorted) {
  EventQueue q;
  util::Rng rng(1);
  double now = 0.0;
  double last = 0.0;
  for (int round = 0; round < 2000; ++round) {
    q.push(now + rng.next_double() * 10.0, EventKind::kHeaderAdvance, round);
    if (round % 3 == 0 && !q.empty()) {
      const Event e = q.pop();
      EXPECT_GE(e.time, last);
      last = e.time;
      now = e.time;
    }
  }
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1.0, EventKind::kGenerate, 0);
  q.push(2.0, EventKind::kGenerate, 0);
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pushed(), 2u);
}

// ---------------------------------------------------------------------------
// Property/fuzz tests against a reference oracle. The oracle is a
// std::priority_queue over the same (time, seq) total order; because every
// seq is unique the order is strict, so ANY correct pending-event structure
// must pop the exact same sequence. This is what licenses swapping the
// queue implementation under the golden tests: equivalence here + a total
// order implies bit-identical simulations.

struct OracleAfter {
  bool operator()(const Event& x, const Event& y) const {
    return x.after(y);  // max-heap adaptor + "after" = min-queue
  }
};
using Oracle =
    std::priority_queue<Event, std::vector<Event>, OracleAfter>;

TEST(EventQueueProperty, MatchesPriorityQueueOracleOnRandomWorkloads) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    util::Rng rng(1000 + trial);
    EventQueue q;
    Oracle oracle;
    std::uint64_t seq = 0;
    double now = 0.0;
    // Random interleaving of pushes and pops with drift-free clock: pops
    // advance `now`, pushes schedule at or after it (ties are common by
    // construction: ~1/4 of pushes reuse the current time exactly).
    for (int step = 0; step < 4000; ++step) {
      const bool do_push = oracle.empty() || rng.next_below(100) < 55;
      if (do_push) {
        const double dt = rng.next_below(4) == 0
                              ? 0.0
                              : rng.next_double() * 8.0;
        const auto kind = static_cast<EventKind>(rng.next_below(4));
        const auto a = static_cast<std::int32_t>(rng.next_below(512));
        q.push(now + dt, kind, a);
        oracle.push(Event{now + dt, seq++, kind, a});
      } else {
        const Event expected = oracle.top();
        oracle.pop();
        const Event got = q.pop();
        EXPECT_EQ(got.time, expected.time);
        EXPECT_EQ(got.seq, expected.seq);
        EXPECT_EQ(got.kind, expected.kind);
        EXPECT_EQ(got.a, expected.a);
        ASSERT_GE(got.time, now);  // monotonic-pop invariant
        now = got.time;
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    // Drain: the tail must match too, and stay monotone.
    while (!oracle.empty()) {
      const Event expected = oracle.top();
      oracle.pop();
      const Event got = q.pop();
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_GE(got.time, now);
      now = got.time;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueProperty, LatePushedReservationsKeepTheOracleOrder) {
  // reserve_seq() hands out a seq without pushing; a random subset of
  // those reservations is pushed later through push_reserved() (while
  // popped_before() says its turn has not come), the rest never. Events
  // also go to the generate heap (every kGenerate event) and to 0-4 delay
  // lanes, each pushed at (last pop time + its fixed delay). A shadow oracle
  // holds EVERY scheduled event, pushed or not: the queue must pop the
  // pushed ones in oracle order, the shadow events that pass between two
  // pops must all be unpushed reservations, and popped_before() must
  // name exactly the reservations the shadow has passed.
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    util::Rng rng(5000 + trial);
    EventQueue q;
    // Delays: 0 and small integers tie with each other and with the
    // heap pushes below; a random one ties only through equal pop times.
    const double delays[] = {1.0, 0.0, 0.5 + rng.next_double(), 2.0};
    std::vector<int> lanes;
    for (std::uint64_t l = 0; l < trial % 5; ++l)
      lanes.push_back(q.delay_lane(delays[l]));
    Oracle oracle;  // pushed events
    Oracle shadow;  // every scheduled event
    std::vector<Event> pending;  // reserved, not (yet) pushed
    std::vector<bool> pushed;    // by seq
    std::vector<bool> passed;    // by seq: the shadow popped it
    std::size_t lane_pushes = 0;
    double now = 0.0;
    const auto pop_and_check = [&] {
      const Event expected = oracle.top();
      oracle.pop();
      ASSERT_EQ(q.top().seq, expected.seq);
      const Event got = q.pop();
      ASSERT_EQ(got.time, expected.time);
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_EQ(got.kind, expected.kind);
      ASSERT_EQ(got.a, expected.a);
      for (;;) {
        const Event s = shadow.top();
        shadow.pop();
        if (s.seq == got.seq) break;
        ASSERT_FALSE(pushed[s.seq]);  // a pushed event may not be skipped
        passed[s.seq] = true;
      }
      now = got.time;
      for (const Event& r : pending)
        ASSERT_EQ(q.popped_before(r.time, r.seq), passed[r.seq]);
    };
    const auto push_both = [&](const Event& e) {
      oracle.push(e);
      shadow.push(e);
      pushed.push_back(true);
      passed.push_back(false);
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      // Offsets are 0 in over 40% of draws and small integers in more, so
      // exact time ties are common across every source, including the
      // event just popped.
      const std::uint64_t tie = rng.next_below(3);
      const double time =
          now + (tie == 2 ? rng.next_double() * 8.0
                          : static_cast<double>(tie * rng.next_below(3)));
      const auto kind = static_cast<EventKind>(rng.next_below(4));
      const auto a = static_cast<std::int32_t>(rng.next_below(512));
      if (op < 25) {
        const Event e{time, q.pushed(), kind, a};
        q.push(time, kind, a);
        push_both(e);
      } else if (op < 45) {
        const Event e{time, q.reserve_seq(), kind, a};
        shadow.push(e);
        pending.push_back(e);
        pushed.push_back(false);
        passed.push_back(false);
      } else if (op < 58 && !pending.empty()) {
        const std::size_t i = rng.next_below(pending.size());
        const Event e = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        if (q.popped_before(e.time, e.seq)) continue;  // its turn is gone
        q.push_reserved(e.time, e.kind, e.a, e.seq);
        oracle.push(e);
        pushed[e.seq] = true;
      } else if (op < 72 && !lanes.empty()) {
        const std::size_t l = rng.next_below(lanes.size());
        const Event e{now + delays[l], q.pushed(), EventKind::kHeaderAdvance,
                      a};
        q.push_lane(lanes[l], e.time, e.kind, e.a);
        push_both(e);
        ++lane_pushes;
      } else if (!oracle.empty()) {
        pop_and_check();
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    while (!oracle.empty()) {
      pop_and_check();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty());
    if (!lanes.empty()) {
      EXPECT_GT(lane_pushes, 300u);
    }
  }
}

TEST(EventQueue, DelayLanesAreKeyedByDelayAndCapped) {
  EventQueue q;
  for (int l = 0; l < EventQueue::kMaxDelayLanes; ++l)
    EXPECT_EQ(q.delay_lane(0.5 + l), l);
  EXPECT_EQ(q.delay_lane(1.5), 1);
  EXPECT_EQ(q.delay_lane(9.0), EventQueue::kNoLane);
}

TEST(EventQueue, LaneHeadsTieSignedZerosBySeq) {
  // Lane heads are merged through integer keys; -0.0 must tie with +0.0
  // and fall back to seq, as the double compare does.
  EventQueue q;
  const int lane = q.delay_lane(1.0);
  for (int i = 0; i < 4; ++i) q.push(0.0, EventKind::kWormDone, i);
  q.push_lane(lane, -0.0, EventKind::kHeaderAdvance, 4);
  q.push(0.0, EventKind::kWormDone, 5);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(q.pop().a, i);
}

TEST(EventQueue, DelayLaneGrowsInPlaceOfItsRing) {
  // More events than the lane's initial ring, pushed while earlier ones
  // pop, so the ring wraps before it grows. The far-future heap events
  // keep the worm heap deep enough that push_lane uses the lane.
  EventQueue q;
  const int lane = q.delay_lane(1.0);
  for (int i = 0; i < 4; ++i) q.push(1e9, EventKind::kWormDone, 1000 + i);
  for (int i = 0; i < 10; ++i)
    q.push_lane(lane, static_cast<double>(i), EventKind::kHeaderAdvance, i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().a, i);
  for (int i = 10; i < 100; ++i)
    q.push_lane(lane, static_cast<double>(i), EventKind::kHeaderAdvance, i);
  for (int i = 5; i < 100; ++i) EXPECT_EQ(q.pop().a, i);
  EXPECT_EQ(q.size(), 4u);
}

TEST(EventQueueProperty, BurstyTiesPopInSeqOrder) {
  // Adversarial tie pattern: many bursts pushed at identical times in
  // shuffled arrival order must come out in global seq order per time.
  util::Rng rng(42);
  EventQueue q;
  std::vector<Event> pushed;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 64; ++burst) {
    const double t = static_cast<double>(rng.next_below(16));
    const int n = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n; ++i) {
      q.push(t, EventKind::kRelease, burst);
      pushed.push_back(Event{t, seq++, EventKind::kRelease, burst});
    }
  }
  std::sort(pushed.begin(), pushed.end(),
            [](const Event& x, const Event& y) { return y.after(x); });
  for (const Event& expected : pushed) {
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, ReserveDoesNotChangeBehavior) {
  util::Rng rng(7);
  EventQueue plain;
  EventQueue hinted;
  hinted.reserve(10'000, 10'000);
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.next_double() * 100.0;
    plain.push(t, EventKind::kGenerate, i);
    hinted.push(t, EventKind::kGenerate, i);
  }
  while (!plain.empty()) {
    const Event a = plain.pop();
    const Event b = hinted.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(hinted.empty());
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH((void)q.pop(), "precondition");
}

TEST(EventQueueDeathTest, PushingAReservationPastItsTurnAborts) {
  EventQueue q;
  const std::uint64_t seq = q.reserve_seq();
  q.push(1.0, EventKind::kHeaderAdvance, 0);
  (void)q.pop();
  EXPECT_TRUE(q.popped_before(1.0, seq));
  EXPECT_DEATH(q.push_reserved(1.0, EventKind::kRelease, 0, seq),
               "precondition");
}

TEST(EventQueueDeathTest, OutOfOrderLanePushAborts) {
  EventQueue q;
  const int lane = q.delay_lane(1.0);
  q.push_lane(lane, 2.0, EventKind::kHeaderAdvance, 0);
  q.push_lane(lane, 2.0, EventKind::kHeaderAdvance, 1);  // a tie is fine
  EXPECT_DEATH(q.push_lane(lane, 1.5, EventKind::kHeaderAdvance, 2),
               "precondition");
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.push(10.0, EventKind::kGenerate, 0);
  (void)q.pop();
  EXPECT_DEATH(q.push(5.0, EventKind::kGenerate, 0), "precondition");
}

}  // namespace
}  // namespace mcs::sim
