// Worm-granularity wormhole-switching engine.
//
// Semantics (paper Sec. 2/4 assumptions): single-flit input buffers, FIFO
// arbitration per channel, destinations always accept, infinite source
// queues. A worm acquires the channels of its precomputed path one by one;
// while its header waits for the next channel it holds everything acquired
// so far. Because every path in the studied systems is shorter than the
// message length M, a worm spans its entire path when the header reaches
// the destination; from that moment no other worm can interfere with it,
// so the tail's crossing time of every held channel — and hence each
// channel-release instant — follows deterministically from the single-flit
// buffer recurrence
//
//     start(f, j) = max( finish(f, j-1),        [flit f arrives at stage j]
//                        finish(f-1, j),        [channel j free again]
//                        start(f-1, j+1) )      [buffer ahead vacated]
//
// evaluated at header arrival (sim/drain.hpp: O(M*K) arithmetic instead of
// O(M*K) heap events, or one chain of M-1 adds on a monotone path). A
// brute-force per-flit event simulator in the test suite verifies the
// recurrence.
//
// Hot-path data layout (DESIGN.md §9): worm records are plain structs in a
// free-listed pool, and their per-hop path/acquire arrays live in two flat
// stride-indexed pools (`worm row i` = elements [i*stride, i*stride+len)),
// so spawning a worm is a memcpy into a recycled row and the drain
// recurrence walks contiguous memory — no per-worm allocation anywhere in
// steady state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/params.hpp"
#include "sim/event_queue.hpp"

namespace mcs::sim {

using GlobalChannelId = std::int32_t;
using WormId = std::int32_t;

/// Switching mechanism — defined next to the NetworkParams it modulates
/// (model/params.hpp) so the analytical models can share it.
using FlowControl = model::FlowControl;

/// One in-flight worm. The per-hop path/acquire arrays live in the
/// engine's flat pools; read them via path_of() / acquire_times().
struct Worm {
  double enqueue_time = 0.0;
  std::int32_t msg = -1;      ///< owning message, opaque to the engine
  std::int32_t hop = 0;       ///< next channel index to acquire
  std::int32_t len = 0;       ///< path length in channels
  std::int32_t next_waiter = kNoWorm;  ///< intrusive FIFO link

  static constexpr std::int32_t kNoWorm = -1;
};

class WormholeEngine {
 public:
  /// Receives worm-completion notifications (tail fully at endpoint).
  /// The worm record remains valid during the call and is recycled after.
  class Listener {
   public:
    virtual void on_worm_done(WormId worm, double time) = 0;
    virtual ~Listener() = default;
  };

  /// `channel_service[c]` is the flit transfer time of global channel c.
  WormholeEngine(std::vector<double> channel_service, int message_flits,
                 EventQueue& queue, Listener& listener,
                 FlowControl flow_control = FlowControl::kWormhole);

  /// Pre-size the worm pools: rows for `expected_worms` concurrently live
  /// worms of up to `max_path_len` hops. Purely an allocation hint — the
  /// pools grow on demand either way.
  void reserve_worms(int expected_worms, int max_path_len);

  /// Spawn a worm at `now`: it joins the FIFO of path[0] (the source/relay
  /// queue) and is granted immediately when that channel is idle.
  WormId spawn(std::int32_t msg, std::span<const GlobalChannelId> path,
               double now);

  /// Dispatch kHeaderAdvance / kRelease / kWormDone events.
  void handle(const Event& event);

  [[nodiscard]] const Worm& worm(WormId id) const {
    return worms_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::span<const GlobalChannelId> path_of(WormId id) const {
    const Worm& w = worms_[static_cast<std::size_t>(id)];
    return {path_pool_.data() + row(id), static_cast<std::size_t>(w.len)};
  }
  /// acquire_times(id)[h] is when channel path_of(id)[h] was granted
  /// (meaningful for hops already acquired).
  [[nodiscard]] std::span<const double> acquire_times(WormId id) const {
    const Worm& w = worms_[static_cast<std::size_t>(id)];
    return {acquire_pool_.data() + row(id), static_cast<std::size_t>(w.len)};
  }
  [[nodiscard]] std::int64_t live_worms() const { return live_worms_; }
  /// Worm-pool rows ever allocated — the high-water mark of concurrently
  /// live worms (obs probe signal; rows are never returned to the OS).
  [[nodiscard]] std::int64_t pool_rows() const;
  /// Total worms ever spawned (perf-harness worms/sec numerator).
  [[nodiscard]] std::uint64_t total_spawned() const { return spawned_; }
  /// Worms currently blocked in some channel FIFO (saturation signal).
  [[nodiscard]] std::int64_t waiting_worms() const { return waiting_; }
  /// Header-crossing time of channel c: service_[c] under wormhole, a
  /// full message transmission (flits * service) under store-and-forward
  /// — the exact per-hop term the acquire/advance events are scheduled
  /// with, so observers can re-derive hop boundaries bit-exactly.
  [[nodiscard]] double crossing_time(GlobalChannelId c) const {
    return crossing_[static_cast<std::size_t>(c)];
  }

  // --- channel statistics (enable before running) -------------------------

  /// Turn on per-channel busy-time and traversal accounting. Nothing is
  /// accumulated until set_stats_window_start() opens the window (the
  /// simulator opens it when the warm-up phase ends).
  void enable_channel_stats();
  void set_stats_window_start(double t) { window_start_ = t; }
  [[nodiscard]] double busy_time(GlobalChannelId c) const {
    return busy_time_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t traversals(GlobalChannelId c) const {
    return traversals_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::size_t channel_count() const {
    return service_.size();
  }

 private:
  /// holder == kDraining: a worm's tail is draining out of the channel,
  /// and its kRelease (free_at, free_seq) is pushed only once a waiter
  /// queues (DESIGN.md §9.1). With waiters it is in the queue; without,
  /// it was never pushed.
  struct ChannelState {
    WormId holder = Worm::kNoWorm;
    WormId wait_head = Worm::kNoWorm;
    WormId wait_tail = Worm::kNoWorm;
    double free_at = 0.0;
    std::uint64_t free_seq = 0;

    static constexpr WormId kDraining = -2;
  };

  [[nodiscard]] std::size_t row(WormId id) const {
    return static_cast<std::size_t>(id) * stride_;
  }
  void grow_stride(std::int32_t needed_len);

  void request(WormId w, double now);
  void acquire(WormId w, double now);
  void header_advanced(WormId w, double now);
  void release(GlobalChannelId c, double now);
  void finish_header(WormId w, double now);
  void account(GlobalChannelId c, double from, double to);

  std::vector<double> service_;
  /// Header-crossing time per channel: service_[c] under wormhole,
  /// flits_ * service_[c] under store-and-forward — precomputed so
  /// acquire() pays neither the branch nor the multiply.
  std::vector<double> crossing_;
  /// Delay lane of each channel's header advances: channels with one
  /// crossing value share a lane (EventQueue::delay_lane), and values
  /// past the queue's lane cap get kNoLane and use the heap.
  std::vector<int> lane_;
  int flits_;
  FlowControl flow_control_;
  EventQueue& queue_;
  Listener& listener_;

  std::vector<ChannelState> channels_;
  std::vector<Worm> worms_;
  std::vector<WormId> free_worms_;
  std::int64_t live_worms_ = 0;
  std::int64_t waiting_ = 0;
  std::uint64_t spawned_ = 0;

  // Flat per-hop storage: row i spans [i*stride_, i*stride_ + worm.len).
  // stride_ grows (rarely) when a longer path than ever seen arrives.
  std::size_t stride_ = 8;
  std::vector<GlobalChannelId> path_pool_;
  std::vector<double> acquire_pool_;

  bool stats_enabled_ = false;
  double window_start_ = 0.0;
  std::vector<double> busy_time_;
  std::vector<std::uint64_t> traversals_;

  // Scratch rows for the drain (avoid per-worm allocation): hoisted
  // per-hop service times and the last flit row.
  std::vector<double> drain_svc_;
  std::vector<double> drain_last_;
};

}  // namespace mcs::sim
