// Latency anatomy: exhaustive per-stage / per-channel contention
// accounting (DESIGN.md §13). Unlike the sampled flight recorder
// (probe.hpp / trace.hpp), a LatencyAnatomy decomposes EVERY measured
// message's latency into per-worm-segment queue wait vs service time
// (and service further into header walk vs tail drain), accumulates
// log-bucketed histograms (util::LogHistogram) per segment and per network
// class, and accounts per-channel header waits, traversals and busy time
// — so the measured utilization rho-hat and mean wait W-hat of each of
// the model's M/G/1 stations (ICN1 NIC, ECN1 NIC, concentrator,
// dispatcher) can be joined stage-by-stage against a
// model::ModelBreakdown (exp/explain.hpp).
//
// Contract (shared by the whole obs/ layer): observation NEVER consumes
// RNG, never pushes or reorders events, and costs one pointer test per
// event when disabled — the golden tests re-pin every fingerprint with an
// anatomy attached. This header depends only on the standard library and
// util/ so sim/ headers can embed its types without a layering cycle;
// network classes are plain indices (0 = ICN1, 1 = ECN1, 2 = ICN2) and
// worm segments use the simulator's convention (0 = icn1, 1 = ecn1_out,
// 2 = icn2, 3 = ecn1_in, 4 = cut_through).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.hpp"

namespace mcs::obs {

/// Worm-segment kinds (the simulator's MsgRec::segment convention).
inline constexpr int kSegments = 5;
[[nodiscard]] const char* segment_name(int segment);

/// The four M/G/1 stations of the message flow model (Fig. 2): source
/// ICN1 NIC, source ECN1 NIC, concentrator, dispatcher. Station i serves
/// worm segment i, except that cut-through worms (segment 4) queue at the
/// ECN1 NIC (station 1).
inline constexpr int kStations = 4;
[[nodiscard]] const char* station_name(int station);
[[nodiscard]] int station_of_segment(int segment);

struct AnatomyConfig {
  /// How many ICN2 channels the hot-channel ranking keeps (top-k by
  /// accumulated header residence time).
  int top_channels = 8;

  /// Throws mcs::ConfigError on top_channels < 1.
  void validate() const;
};

/// Exhaustive accounting of one worm-segment kind over all measured legs.
struct SegmentAnatomy {
  std::uint64_t legs = 0;
  util::LogHistogram wait;     ///< enqueue -> first channel grant
  util::LogHistogram service;  ///< first grant -> tail drained (header+drain)
  // Component sums (exact accumulation order: one add per leg), kept
  // separately from the histograms so means need no bucket arithmetic.
  double wait_sum = 0.0;
  double header_sum = 0.0;  ///< first grant -> header reaches endpoint
  double drain_sum = 0.0;   ///< header at endpoint -> tail drained

  [[nodiscard]] double mean_wait() const {
    return legs > 0 ? wait_sum / static_cast<double>(legs) : 0.0;
  }
  [[nodiscard]] double mean_service() const {
    return legs > 0 ? (header_sum + drain_sum) / static_cast<double>(legs)
                    : 0.0;
  }
};

/// Per-network-class hop accounting (index convention above).
struct NetAnatomy {
  util::LogHistogram hop_wait;       ///< per-hop header blocking time
  util::LogHistogram hop_residence;  ///< per-hop header occupancy span
};

/// One channel's finalized accounting row (the hot-channel ranking).
struct ChannelAnatomy {
  std::int32_t channel = -1;  ///< global channel id
  int net_class = 0;          ///< 0 ICN1 / 1 ECN1 / 2 ICN2
  std::uint64_t traversals = 0;  ///< measured-worm hops through it
  double wait_sum = 0.0;         ///< header blocking accumulated at it
  double residence_sum = 0.0;    ///< header occupancy accumulated at it
  double utilization = 0.0;      ///< busy time / stats window

  [[nodiscard]] double mean_wait() const {
    return traversals > 0 ? wait_sum / static_cast<double>(traversals) : 0.0;
  }
};

/// Measured view of one M/G/1 station after finalize().
struct StationMeasure {
  std::uint64_t legs = 0;        ///< measured legs served by the station
  double mean_wait = 0.0;        ///< W-hat: mean queue wait
  double mean_service = 0.0;     ///< mean service (header + drain)
  double utilization = 0.0;      ///< rho-hat: mean injection-channel busy
  std::size_t channels = 0;      ///< injection channels behind rho-hat
};

/// Caller-owned, attached via sim::SimConfig::anatomy (same lifecycle as
/// ProbeSeries/TraceBuffer). One producer (the simulator) drives
/// prepare()/record_*()/finalize(); readers walk the accessors after the
/// run.
class LatencyAnatomy {
 public:
  explicit LatencyAnatomy(AnatomyConfig config = {});

  // --- producer interface (one simulator) -------------------------------

  /// Size the per-channel tables; `channel_class[c]` is channel c's
  /// network class (0/1/2). Called by the simulator's constructor.
  void prepare(std::vector<std::uint8_t> channel_class);

  /// Account one completed measured worm leg of `segment` kind:
  /// latency components wait (enqueue -> first grant), header (first
  /// grant -> header at endpoint) and drain (header at endpoint -> tail
  /// drained), all in virtual time.
  void record_leg(int segment, double wait, double header, double drain);

  /// Account the header's visit to `channel` (hop h of a measured worm):
  /// `wait` is the blocking time before the grant, `span` the occupancy
  /// until the next grant (or the drain instant on the last hop).
  /// `first_hop` marks injection channels — they define the owning
  /// station's measured utilization. `net_class` is passed by the caller
  /// (it has the table at hand) and must match prepare()'s.
  void record_hop(std::int32_t channel, int net_class, double wait,
                  double span, bool first_hop, int segment);

  /// Account one delivered measured message: its end-to-end latency and
  /// the sum of every component recorded for it (conservation check —
  /// the components must re-add to the latency up to rounding).
  void record_message(double latency, double component_sum, bool internal);

  /// Close the run: `window` is the channel-stats window length, and
  /// `busy[c]` the engine's accumulated busy time of channel c over it.
  /// Computes per-channel and per-station utilization and the
  /// hot-channel ranking.
  void finalize(double window, const std::vector<double>& busy);

  // --- reader interface --------------------------------------------------

  [[nodiscard]] const AnatomyConfig& config() const { return config_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

  [[nodiscard]] const SegmentAnatomy& segment(int s) const;
  [[nodiscard]] const NetAnatomy& net(int net_class) const;
  /// End-to-end latency histogram over all measured messages.
  [[nodiscard]] const util::LogHistogram& message_latency() const {
    return message_latency_;
  }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t internal_messages() const {
    return internal_messages_;
  }

  /// Measured station view (valid after finalize(); waits/services are
  /// populated as legs are recorded either way).
  [[nodiscard]] StationMeasure station(int station) const;

  /// ICN2 channels ranked by accumulated header residence, at most
  /// config().top_channels entries (valid after finalize()).
  [[nodiscard]] const std::vector<ChannelAnatomy>& hot_channels() const {
    return hot_channels_;
  }

  /// Largest absolute / latency-relative conservation residual
  /// |latency - sum(components)| observed over all measured messages.
  [[nodiscard]] double max_residual() const { return max_residual_; }
  [[nodiscard]] double max_relative_residual() const {
    return max_relative_residual_;
  }

  /// The stats window length finalize() was given (0 before).
  [[nodiscard]] double window() const { return window_; }

 private:
  AnatomyConfig config_;
  bool finalized_ = false;
  double window_ = 0.0;

  SegmentAnatomy segments_[kSegments];
  NetAnatomy nets_[3];
  util::LogHistogram message_latency_;
  std::uint64_t messages_ = 0;
  std::uint64_t internal_messages_ = 0;
  double max_residual_ = 0.0;
  double max_relative_residual_ = 0.0;

  // Per-channel accounting (sized by prepare()).
  std::vector<std::uint8_t> channel_class_;
  std::vector<std::uint64_t> channel_traversals_;
  std::vector<double> channel_wait_;
  std::vector<double> channel_residence_;
  std::vector<double> channel_utilization_;
  /// Bitmask of stations whose worms injected at this channel (bit k =
  /// station k) — the channels whose busy time defines rho-hat.
  std::vector<std::uint8_t> channel_station_mask_;

  // Finalized station utilizations (mean over marked channels).
  double station_rho_[kStations] = {0.0, 0.0, 0.0, 0.0};
  std::size_t station_channels_[kStations] = {0, 0, 0, 0};
  std::vector<ChannelAnatomy> hot_channels_;
};

}  // namespace mcs::obs
