// Pending-event set for the discrete-event simulator: a 4-ary min-heap
// over 16-byte packed entries, ordered by (time, sequence number).
//
// Determinism contract: every event gets a unique, monotonically
// increasing sequence number when it is scheduled (push, or reserve_seq
// for an event pushed later or never), so (time, seq) is a STRICT total
// order over all events that ever coexist in the queue. Any correct
// priority queue over a strict total order pops the exact same sequence
// — which is what lets the heap layout change (binary -> 4-ary, packed
// entries, hole sifting) without perturbing simulation results by a
// single bit. The property tests in tests/event_queue_test.cpp check this
// equivalence against a std::priority_queue oracle;
// tests/sim_golden_test.cpp pins end-to-end results.
//
// Layout choices (DESIGN.md §9):
//  - 4-ary: the simulator is pop-heavy (every push is eventually popped
//    and pops pay the full sift-down). A 4-ary heap halves the tree depth
//    and keeps the 4 children of a node within one cache line.
//  - Packed 16-byte entries: {time, seq<<26 | kind<<24 | a}. Because seq
//    occupies the high bits, comparing the packed word compares seq —
//    the time tie-break costs ONE integer compare and sift moves shift
//    16 bytes instead of 24.
//  - Hole sifting: the moving entry rides in a register and is stored
//    exactly once, halving the store traffic of swap-based sifting.
//  - Lanes: kGenerate events and constant-delay FIFO lanes bypass the
//    worm heap; pop() takes the smallest lane head, which is the same
//    global (time, seq) order. The traffic process keeps exactly one
//    pending arrival per node — a large, slow-turnover population that
//    would otherwise deepen every worm-event sift — so kGenerate events
//    always live in a heap of their own.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contracts.hpp"

namespace mcs::sim {

enum class EventKind : std::uint8_t {
  kGenerate,       ///< a = global node id
  kHeaderAdvance,  ///< a = worm id (header finished crossing a channel)
  kRelease,        ///< a = global channel id (tail crossed; free it)
  kWormDone        ///< a = worm id (tail fully at endpoint)
};
inline constexpr std::size_t kEventKinds = 4;

struct Event {
  double time;
  std::uint64_t seq;
  EventKind kind;
  std::int32_t a = -1;

  [[nodiscard]] bool after(const Event& other) const {
    // Branchless (time, seq) lexicographic compare: double comparisons in
    // the sift loops are data-dependent and mispredict badly as branches.
    return (time > other.time) |
           ((time == other.time) & (seq > other.seq));
  }
};

class EventQueue {
 public:
  /// Capacity hints for the two heaps: the worm heap's expected
  /// high-water mark of in-flight worm events, and the generate heap's
  /// one pending arrival per node. The simulator sizes both so warmup
  /// does not pay repeated reallocation; purely allocation hints, never
  /// observable in pop order.
  void reserve(std::size_t expected_worm_events, std::size_t expected_nodes) {
    heap_.reserve(expected_worm_events);
    gen_.reserve(expected_nodes);
  }

  /// Most delay lanes one queue opens. A fixed bound, not a knob: a
  /// homogeneous system needs two (t_cn and t_cs crossings), and every
  /// lane adds one compare to each pop while the lanes hold events.
  static constexpr int kMaxDelayLanes = 4;
  static constexpr int kNoLane = -1;

  /// The FIFO lane for events pushed at (current time + `delay`), opened
  /// on first use; kNoLane once kMaxDelayLanes are open. Such a producer
  /// pushes in (time, seq) order: the current time never decreases,
  /// rounding to nearest is monotone, and seq only grows (DESIGN.md
  /// §9.2). The lane is then sorted without a heap, and pop() merges its
  /// head with the other sources' heads.
  [[nodiscard]] int delay_lane(double delay) {
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      if (lanes_[l].delay == delay) return static_cast<int>(l);
    if (lanes_.size() == kMaxDelayLanes) return kNoLane;
    lanes_.emplace_back().delay = delay;
    return static_cast<int>(lanes_.size()) - 1;
  }

  /// Largest event payload id that fits the packed layout. Producers
  /// validate their id spaces against this bound ONCE (engine: channel
  /// count and worm-pool growth; simulator: node count) so the hot push
  /// path only pays the semantic not-in-the-past check.
  static constexpr std::int32_t kMaxPayload = (1 << 24) - 1;

  void push(double time, EventKind kind, std::int32_t a) {
    MCS_EXPECTS(time >= last_pop_time_);
    insert(time, kind, a, reserve_seq());
  }

  /// Push into a delay lane. The event must not order before the lane's
  /// last event: its seq is fresh, so its time may not be earlier. While
  /// the worm heap holds fewer than kArity events, a pop from it is one
  /// compare round, cheaper than merging lane heads, so the event goes to
  /// the heap instead; it pops in the same order from either.
  void push_lane(int lane, double time, EventKind kind, std::int32_t a) {
    Fifo& fifo = lanes_[static_cast<std::size_t>(lane)];
    MCS_EXPECTS(time >= last_pop_time_ && time >= fifo.last_time);
    fifo.last_time = time;
    if (heap_.size() < kArity) {
      insert(time, kind, a, reserve_seq());
      return;
    }
    fifo.push(pack(time, kind, a, reserve_seq()));
    ++lane_events_;
    ++size_;
  }

  /// Take the next sequence number without pushing anything. The event it
  /// orders is pushed later through push_reserved(), or never: a number
  /// that is never pushed only leaves a gap in the seq order, so every
  /// event that is pushed pops exactly where it would have (DESIGN.md
  /// §9.1).
  [[nodiscard]] std::uint64_t reserve_seq() {
    // seq gets 64 - 26 = 38 bits in the packed word; wrapping would
    // silently break the tie-break total order, so fail loudly instead
    // (~2.75e11 events; a register compare + never-taken branch).
    MCS_EXPECTS(next_seq_ < (std::uint64_t{1} << (64 - kABits - kKindBits)));
    return next_seq_++;
  }

  /// Push under a seq taken by reserve_seq(). The event must still order
  /// after the last popped one (for a fresh seq: not in the past).
  void push_reserved(double time, EventKind kind, std::int32_t a,
                     std::uint64_t seq) {
    MCS_EXPECTS(seq < next_seq_ && !popped_before(time, seq));
    insert(time, kind, a, seq);
  }

  /// True when (time, seq) orders before the last popped event — while
  /// that event is being handled, an event with this key would already
  /// have popped had it been pushed.
  [[nodiscard]] bool popped_before(double time, std::uint64_t seq) const {
    return time < last_pop_time_ ||
           (time == last_pop_time_ && seq < last_pop_seq_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Event top() const {
    MCS_EXPECTS(!empty());
    return unpack(*head(pick()));
  }

  Event pop() {
    MCS_EXPECTS(!empty());
    const int from = pick();
    Packed out;
    if (from >= 0) {
      out = lanes_[static_cast<std::size_t>(from)].pop();
      --lane_events_;
    } else {
      std::vector<Packed>& heap = from == kFromHeap ? heap_ : gen_;
      out = heap.front();
      heap.front() = heap.back();
      heap.pop_back();
      if (!heap.empty()) sift_down(heap, 0);
    }
    --size_;
    const Event event = unpack(out);
    last_pop_time_ = event.time;
    last_pop_seq_ = event.seq;
    return event;
  }

  /// Sequence numbers handed out so far, pushed or only reserved.
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

 private:
  static constexpr int kABits = 24;   ///< payload id; see kMaxPayload
  static constexpr int kKindBits = 2;
  static constexpr std::size_t kArity = 4;

  /// meta = seq << 26 | kind << 24 | a. seq is unique, so meta order ==
  /// seq order whenever times tie.
  struct Packed {
    double time;
    std::uint64_t meta;

    [[nodiscard]] bool after(const Packed& other) const {
      return (time > other.time) |
             ((time == other.time) & (meta > other.meta));
    }
  };

  /// Orders after every event: an empty lane's head (see Fifo).
  static constexpr Packed kEmptyHead{
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<std::uint64_t>::max()};

  /// Ring buffer of one delay lane. The slot at `tail` always holds
  /// kEmptyHead, so front() is the lane's head, or kEmptyHead when the
  /// lane is empty, and pick() needs no emptiness test.
  struct Fifo {
    std::vector<Packed> ring = std::vector<Packed>(16, kEmptyHead);
    std::size_t head = 0;  ///< unwrapped indices; slot = index & mask
    std::size_t tail = 0;
    double delay = 0.0;
    double last_time = -std::numeric_limits<double>::infinity();

    [[nodiscard]] const Packed& front() const {
      return ring[head & (ring.size() - 1)];
    }
    void push(const Packed& packed) {
      ring[tail & (ring.size() - 1)] = packed;
      if (++tail - head == ring.size()) grow();
      ring[tail & (ring.size() - 1)] = kEmptyHead;
    }
    Packed pop() { return ring[head++ & (ring.size() - 1)]; }
    void grow() {
      std::vector<Packed> wider(2 * ring.size(), kEmptyHead);
      for (std::size_t i = head; i != tail; ++i)
        wider[i & (wider.size() - 1)] = ring[i & (ring.size() - 1)];
      ring = std::move(wider);
    }
  };

  static constexpr int kFromHeap = -1;
  static constexpr int kFromGen = -2;

  static Packed pack(double time, EventKind kind, std::int32_t a,
                     std::uint64_t seq) {
    return {time, (seq << (kABits + kKindBits)) |
                      (static_cast<std::uint64_t>(kind) << kABits) |
                      static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))};
  }

  void insert(double time, EventKind kind, std::int32_t a,
              std::uint64_t seq) {
    std::vector<Packed>& heap = kind == EventKind::kGenerate ? gen_ : heap_;
    heap.push_back(pack(time, kind, a, seq));
    sift_up(heap, heap.size() - 1);
    ++size_;
  }

  static Event unpack(const Packed& p) {
    return Event{p.time, p.meta >> (kABits + kKindBits),
                 static_cast<EventKind>((p.meta >> kABits) & 0x3),
                 static_cast<std::int32_t>(p.meta & ((1u << kABits) - 1))};
  }

  /// (time, meta) as one unsigned 128-bit integer with the order of
  /// Packed::after. Event times are never negative (every push checks
  /// them against the last pop, which starts at 0), and the bit patterns
  /// of non-negative doubles, +inf included, order as integers; clearing
  /// the sign bit makes -0.0 equal to +0.0, as the double compare does.
  static unsigned __int128 key(const Packed& p) {
    const std::uint64_t bits =
        std::bit_cast<std::uint64_t>(p.time) & ~(std::uint64_t{1} << 63);
    return (static_cast<unsigned __int128>(bits) << 64) | p.meta;
  }

  /// The source holding the next event: kFromHeap, kFromGen or a delay
  /// lane's index. Ties between heads cannot occur (seq is unique). The
  /// lanes are compared as integer keys, which the compiler selects
  /// without branches: which lane holds the next event is data-dependent
  /// and would mispredict as a branch.
  [[nodiscard]] int pick() const {
    const Packed* top = heap_.empty() ? &kEmptyHead : &heap_.front();
    int from = kFromHeap;
    if (!gen_.empty() && top->after(gen_.front())) {
      top = &gen_.front();
      from = kFromGen;
    }
    if (lane_events_ == 0) return from;
    unsigned __int128 best = key(*top);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const unsigned __int128 k = key(lanes_[l].front());
      const bool earlier = k < best;
      best = earlier ? k : best;
      from = earlier ? static_cast<int>(l) : from;
    }
    return from;
  }
  [[nodiscard]] const Packed* head(int from) const {
    if (from >= 0) return &lanes_[static_cast<std::size_t>(from)].front();
    return from == kFromHeap ? &heap_.front() : &gen_.front();
  }

  // Both sifts hold the moving entry in registers and shift the others
  // into the hole, storing the mover exactly once at its final slot.
  static void sift_up(std::vector<Packed>& heap, std::size_t i) {
    const Packed moving = heap[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!heap[parent].after(moving)) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = moving;
  }

  // Bottom-up ("bounce") sift-down: walk the min-child path all the way
  // to a leaf WITHOUT comparing against the moving entry, then sift the
  // mover back up from there. The mover is the old back-of-heap element,
  // which almost always belongs at a leaf — so the per-level mover
  // comparison of the classic loop is wasted work, and the up-phase
  // usually terminates after a single compare.
  static void sift_down(std::vector<Packed>& heap, std::size_t i) {
    const std::size_t n = heap.size();
    const Packed moving = heap[i];
    // Down: pull the smallest child up into the hole, to a leaf.
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t smallest = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap[smallest].after(heap[c])) smallest = c;
      heap[i] = heap[smallest];
      i = smallest;
    }
    // Up: the hole is at a leaf; float the mover to its true slot.
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!heap[parent].after(moving)) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = moving;
  }

  std::vector<Packed> heap_;  ///< worm events (header/release/done)
  std::vector<Packed> gen_;   ///< kGenerate events
  std::vector<Fifo> lanes_;   ///< delay lanes (delay_lane)
  std::size_t size_ = 0;      ///< events in heap_, gen_ and lanes_
  std::size_t lane_events_ = 0;  ///< events in lanes_
  std::uint64_t next_seq_ = 0;
  double last_pop_time_ = 0.0;
  std::uint64_t last_pop_seq_ = 0;
};

}  // namespace mcs::sim
