#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "sim/drain.hpp"
#include "util/contracts.hpp"

namespace mcs::sim {

WormholeEngine::WormholeEngine(std::vector<double> channel_service,
                               int message_flits, EventQueue& queue,
                               Listener& listener, FlowControl flow_control)
    : service_(std::move(channel_service)),
      flits_(message_flits),
      flow_control_(flow_control),
      queue_(queue),
      listener_(listener),
      channels_(service_.size()) {
  MCS_EXPECTS(flits_ >= 1);
  MCS_EXPECTS(service_.size() <=
              static_cast<std::size_t>(EventQueue::kMaxPayload));
  crossing_.resize(service_.size());
  lane_.resize(service_.size());
  for (std::size_t c = 0; c < service_.size(); ++c) {
    crossing_[c] = flow_control_ == FlowControl::kWormhole
                       ? service_[c]
                       : flits_ * service_[c];
    lane_[c] = queue_.delay_lane(crossing_[c]);
  }
  busy_time_.assign(service_.size(), 0.0);
  traversals_.assign(service_.size(), 0);
  drain_svc_.resize(stride_);
  drain_last_.resize(stride_);
}

void WormholeEngine::enable_channel_stats() {
  stats_enabled_ = true;
  window_start_ = std::numeric_limits<double>::infinity();
}

std::int64_t WormholeEngine::pool_rows() const {
  return static_cast<std::int64_t>(worms_.size());
}

void WormholeEngine::reserve_worms(int expected_worms, int max_path_len) {
  MCS_EXPECTS(expected_worms >= 0 && max_path_len >= 0);
  if (static_cast<std::size_t>(max_path_len) > stride_)
    grow_stride(max_path_len);
  worms_.reserve(static_cast<std::size_t>(expected_worms));
  free_worms_.reserve(static_cast<std::size_t>(expected_worms));
  path_pool_.reserve(static_cast<std::size_t>(expected_worms) * stride_);
  acquire_pool_.reserve(static_cast<std::size_t>(expected_worms) * stride_);
}

void WormholeEngine::grow_stride(std::int32_t needed_len) {
  // Rare: only when a path longer than any seen so far arrives. Re-lay the
  // pools at the wider stride; row indices (worm ids) stay valid, so
  // in-flight worms survive the move.
  const std::size_t new_stride =
      std::max<std::size_t>(static_cast<std::size_t>(needed_len),
                            2 * stride_);
  const std::size_t rows = worms_.size();
  std::vector<GlobalChannelId> path(rows * new_stride);
  std::vector<double> acquire(rows * new_stride);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto len = static_cast<std::size_t>(worms_[i].len);
    std::copy_n(path_pool_.begin() + static_cast<std::ptrdiff_t>(i * stride_),
                len, path.begin() + static_cast<std::ptrdiff_t>(i * new_stride));
    std::copy_n(
        acquire_pool_.begin() + static_cast<std::ptrdiff_t>(i * stride_), len,
        acquire.begin() + static_cast<std::ptrdiff_t>(i * new_stride));
  }
  path_pool_ = std::move(path);
  acquire_pool_ = std::move(acquire);
  stride_ = new_stride;
  drain_svc_.resize(stride_);
  drain_last_.resize(stride_);
}

WormId WormholeEngine::spawn(std::int32_t msg,
                             std::span<const GlobalChannelId> path,
                             double now) {
  MCS_EXPECTS(!path.empty());
  // A wormhole worm must be able to span its whole path; see the header
  // comment. Store-and-forward holds one channel at a time.
  MCS_EXPECTS(flow_control_ == FlowControl::kStoreAndForward ||
              static_cast<int>(path.size()) <= flits_);
  if (path.size() > stride_)
    grow_stride(static_cast<std::int32_t>(path.size()));

  WormId id;
  if (!free_worms_.empty()) {
    id = free_worms_.back();
    free_worms_.pop_back();
  } else {
    id = static_cast<WormId>(worms_.size());
    MCS_EXPECTS(id <= EventQueue::kMaxPayload);
    worms_.emplace_back();
    path_pool_.resize(worms_.size() * stride_);
    acquire_pool_.resize(worms_.size() * stride_);
  }
  Worm& w = worms_[static_cast<std::size_t>(id)];
  std::copy_n(path.data(), path.size(), path_pool_.data() + row(id));
  w.enqueue_time = now;
  w.msg = msg;
  w.hop = 0;
  w.len = static_cast<std::int32_t>(path.size());
  w.next_waiter = Worm::kNoWorm;
  ++live_worms_;
  ++spawned_;

  request(id, now);
  return id;
}

void WormholeEngine::request(WormId id, double now) {
  Worm& w = worms_[static_cast<std::size_t>(id)];
  const GlobalChannelId c =
      path_pool_[row(id) + static_cast<std::size_t>(w.hop)];
  ChannelState& ch = channels_[static_cast<std::size_t>(c)];
  if (ch.holder == ChannelState::kDraining && ch.wait_head == Worm::kNoWorm) {
    // The release was never pushed. If it would already have popped, the
    // channel is free; otherwise push it at its reserved place in the
    // order and queue behind it.
    if (queue_.popped_before(ch.free_at, ch.free_seq)) {
      ch.holder = Worm::kNoWorm;
    } else {
      queue_.push_reserved(ch.free_at, EventKind::kRelease, c, ch.free_seq);
    }
  }
  if (ch.holder == Worm::kNoWorm) {
    MCS_ASSERT(ch.wait_head == Worm::kNoWorm);
    acquire(id, now);
    return;
  }
  // FIFO enqueue via the intrusive list.
  w.next_waiter = Worm::kNoWorm;
  if (ch.wait_tail == Worm::kNoWorm) {
    ch.wait_head = ch.wait_tail = id;
  } else {
    worms_[static_cast<std::size_t>(ch.wait_tail)].next_waiter = id;
    ch.wait_tail = id;
  }
  ++waiting_;
}

void WormholeEngine::acquire(WormId id, double now) {
  Worm& w = worms_[static_cast<std::size_t>(id)];
  const std::size_t hop = static_cast<std::size_t>(w.hop);
  const GlobalChannelId c = path_pool_[row(id) + hop];
  ChannelState& ch = channels_[static_cast<std::size_t>(c)];
  MCS_ASSERT(ch.holder == Worm::kNoWorm);
  ch.holder = id;
  acquire_pool_[row(id) + hop] = now;
  // Wormhole: the header crosses in one flit time. Store-and-forward: the
  // entire message crosses before anything else happens (see crossing_).
  // `now` never decreases, so each lane receives its events in order.
  const double at = now + crossing_[static_cast<std::size_t>(c)];
  const int lane = lane_[static_cast<std::size_t>(c)];
  if (lane != EventQueue::kNoLane) {
    queue_.push_lane(lane, at, EventKind::kHeaderAdvance, id);
  } else {
    queue_.push(at, EventKind::kHeaderAdvance, id);
  }
}

void WormholeEngine::handle(const Event& event) {
  switch (event.kind) {
    case EventKind::kHeaderAdvance:
      header_advanced(event.a, event.time);
      break;
    case EventKind::kRelease:
      // Only releases with a waiter are ever pushed (finish_header).
      MCS_ASSERT(channels_[static_cast<std::size_t>(event.a)].wait_head !=
                 Worm::kNoWorm);
      release(event.a, event.time);
      break;
    case EventKind::kWormDone: {
      const WormId id = event.a;
      listener_.on_worm_done(id, event.time);
      --live_worms_;
      free_worms_.push_back(id);
      break;
    }
    case EventKind::kGenerate:
      MCS_ASSERT(false);  // traffic events belong to the Simulator
  }
}

void WormholeEngine::header_advanced(WormId id, double now) {
  Worm& w = worms_[static_cast<std::size_t>(id)];
  if (flow_control_ == FlowControl::kStoreAndForward) {
    // The full message crossed this channel: release it immediately, then
    // queue for the next hop (or deliver).
    const auto hop = static_cast<std::size_t>(w.hop);
    account(path_pool_[row(id) + hop], acquire_pool_[row(id) + hop], now);
    release(path_pool_[row(id) + hop], now);
    ++w.hop;
    if (w.hop < w.len) {
      request(id, now);
    } else {
      queue_.push(now, EventKind::kWormDone, id);
    }
    return;
  }
  ++w.hop;
  if (w.hop < w.len) {
    request(id, now);
  } else {
    finish_header(id, now);
  }
}

void WormholeEngine::finish_header(WormId id, double now) {
  const Worm& w = worms_[static_cast<std::size_t>(id)];
  const std::size_t hops = static_cast<std::size_t>(w.len);
  const GlobalChannelId* path = path_pool_.data() + row(id);
  const double* acquire = acquire_pool_.data() + row(id);

  // Hoist the per-hop service times out of the flit loop: one indirect
  // lookup per hop instead of one per (flit, hop) pair.
  double* const svc = drain_svc_.data();
  for (std::size_t j = 0; j < hops; ++j)
    svc[j] = service_[static_cast<std::size_t>(path[j])];

  // Last flit row start(M-1, j) of the drain recurrence, from the header
  // row start(0, j) = acquire[j] (sim/drain.hpp). A wormhole header walk
  // satisfies acquire[j+1] >= acquire[j] + svc[j], so the closed form is
  // exact whenever the service shape allows it.
  double* const last = drain_last_.data();
  if (drain_is_monotone(svc, hops)) {
    drain_closed_form(acquire, svc, hops, flits_, last);
  } else {
    drain_grid(acquire, svc, hops, flits_, last);
  }

  // Release channel j when the tail finishes crossing it. Releases are
  // non-decreasing in j; the worm is done when the tail crosses the last
  // channel. The max() guards the M == path-length edge case where a
  // release could precede this event (see the header comment).
  //
  // Each release takes its seq now, in hop order, but is pushed only when
  // a worm already waits for the channel; otherwise the channel drains
  // and request() pushes it (or finds it past) when a worm asks. A
  // release with no waiter changes no state when it pops, so skipping it
  // leaves every other event's order and effect unchanged (DESIGN.md
  // §9.1).
  double done = now;
  for (std::size_t j = 0; j < hops; ++j) {
    const double rel = std::max(last[j] + svc[j], now);
    account(path[j], acquire[j], rel);
    const std::uint64_t seq = queue_.reserve_seq();
    ChannelState& ch = channels_[static_cast<std::size_t>(path[j])];
    ch.holder = ChannelState::kDraining;
    if (ch.wait_head != Worm::kNoWorm) {
      queue_.push_reserved(rel, EventKind::kRelease, path[j], seq);
    } else {
      ch.free_at = rel;
      ch.free_seq = seq;
    }
    done = std::max(done, rel);
  }
  queue_.push(done, EventKind::kWormDone, id);
}

void WormholeEngine::release(GlobalChannelId c, double now) {
  ChannelState& ch = channels_[static_cast<std::size_t>(c)];
  MCS_ASSERT(ch.holder != Worm::kNoWorm);
  ch.holder = Worm::kNoWorm;
  const WormId next = ch.wait_head;
  if (next == Worm::kNoWorm) return;
  Worm& w = worms_[static_cast<std::size_t>(next)];
  ch.wait_head = w.next_waiter;
  if (ch.wait_head == Worm::kNoWorm) ch.wait_tail = Worm::kNoWorm;
  w.next_waiter = Worm::kNoWorm;
  --waiting_;
  acquire(next, now);
}

void WormholeEngine::account(GlobalChannelId c, double from, double to) {
  if (!stats_enabled_) return;
  const double lo = std::max(from, window_start_);
  if (to > lo) busy_time_[static_cast<std::size_t>(c)] += to - lo;
  if (from >= window_start_) ++traversals_[static_cast<std::size_t>(c)];
}

}  // namespace mcs::sim
