// Structural state of a multi-cluster simulation: the canonical network
// registry (ICN1_0, ECN1_0, ..., ICN2) with its global channel numbering
// and service-time table, the in-flight message record, and the memoized
// route tables. Simulator owns one of each; keeping them here leaves the
// simulator with the event loop and statistics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/params.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "topology/multi_cluster.hpp"

namespace mcs::sim {

/// How external messages traverse the concentrator/dispatcher relays.
enum class RelayMode : std::uint8_t {
  /// The relay receives the whole message, then re-injects it (three
  /// chained worms). Matches the M/D/1 relay model of Eq. (33) and is the
  /// physically faithful reading of "simple bi-directional buffers".
  kStoreForward,
  /// The relay cuts the worm through: one worm spans source ECN1, ICN2 and
  /// destination ECN1 (the merged-journey abstraction of Eq. (26)).
  kCutThrough,
};

/// One registered network in the canonical order.
struct Net {
  NetKind kind;
  int cluster;  ///< -1 for ICN2
  const topo::Network* net;
  GlobalChannelId base;
};

/// In-flight message; recycled through a free list.
struct MsgRec {
  double gen_time = 0.0;
  std::int32_t src_cluster = 0;
  std::int32_t dst_cluster = 0;
  topo::EndpointId src_local = 0;
  topo::EndpointId dst_local = 0;
  /// 0: internal; 1..3: external store-and-forward legs;
  /// 4: external cut-through (single merged worm).
  std::int8_t segment = 0;
  bool measured = false;
  bool internal = false;
  /// Trace lane (tid) of a traced message; -1 when untraced. Assigned
  /// deterministically from the generation index, never from RNG.
  std::int32_t trace_tid = -1;
  /// Running sum of the anatomy components recorded for this message
  /// (wait + header + drain per leg) — finalize() hands it to the
  /// anatomy's conservation check against the end-to-end latency.
  double anatomy_sum = 0.0;
};

/// Canonical global channel layout plus the per-channel service table.
struct SimLayout {
  std::vector<Net> nets;
  std::vector<std::int32_t> channel_net;  ///< global channel -> nets index
  std::vector<GlobalChannelId> icn1_base;
  std::vector<GlobalChannelId> ecn1_base;
  GlobalChannelId icn2_base = 0;
  int max_path_len = 0;  ///< longest worm path (queue/pool size hints)
  std::vector<double> service;

  [[nodiscard]] std::size_t channel_count() const { return service.size(); }
};

/// Build the canonical layout. `params` must already be validated. Throws
/// mcs::ConfigError when a wormhole worm could not span the longest path
/// (message_flits too small; see DESIGN.md).
[[nodiscard]] SimLayout build_layout(const topo::MultiClusterTopology& topology,
                                     const model::NetworkParams& params,
                                     RelayMode relay_mode,
                                     FlowControl flow_control);

/// Memoized global-channel routes, shaped per use-site: the ICN1s carry
/// all-pairs internal traffic, the ECN1s only ever route to/from their
/// concentrator, the ICN2 routes concentrator pairs. Routes are
/// deterministic, so caching them is invisible to results (DESIGN.md §9).
class RouteTables {
 public:
  void init(const topo::MultiClusterTopology& topology,
            const SimLayout& layout);

  /// Source-cluster ICN1 route, src_local -> dst_local.
  [[nodiscard]] std::span<const GlobalChannelId> icn1(const MsgRec& m);
  /// Source ECN1 route, src_local -> concentrator.
  [[nodiscard]] std::span<const GlobalChannelId> ecn1_out(const MsgRec& m);
  /// ICN2 route, source concentrator -> destination concentrator.
  [[nodiscard]] std::span<const GlobalChannelId> icn2(const MsgRec& m);
  /// Destination ECN1 route, concentrator -> dst_local.
  [[nodiscard]] std::span<const GlobalChannelId> ecn1_in(const MsgRec& m);
  /// Cut-through: the three external legs concatenated into one path
  /// (valid until the next cut_through() call).
  [[nodiscard]] std::span<const GlobalChannelId> cut_through(const MsgRec& m);

 private:
  /// One memoized route: off/len into pool_ (-1 = not computed yet).
  struct RouteSlot {
    std::int32_t off = -1;
    std::int16_t len = 0;
  };

  [[nodiscard]] std::span<const GlobalChannelId> route_via(
      RouteSlot& slot, const topo::Network& net, GlobalChannelId base,
      topo::EndpointId src, topo::EndpointId dst);

  const topo::MultiClusterTopology* topology_ = nullptr;
  const SimLayout* layout_ = nullptr;
  std::vector<std::vector<RouteSlot>> icn1_routes_;    ///< [cl][src*N+dst]
  std::vector<std::vector<RouteSlot>> ecn1_to_conc_;   ///< [cl][src]
  std::vector<std::vector<RouteSlot>> ecn1_from_conc_; ///< [cl][dst]
  std::vector<RouteSlot> icn2_routes_;                 ///< [src_c*C+dst_c]
  std::vector<GlobalChannelId> pool_;
  std::vector<topo::ChannelId> route_scratch_;
  std::vector<GlobalChannelId> path_scratch_;
};

/// (short token, human-readable reason) for each saturation cap and the
/// drift verdict, indexed by the simulator's StopCause value. The long
/// strings predate the token and are part of the reporting surface; the
/// token is what replication/sweep aggregation carries forward.
struct StopCauseText {
  const char* cause;
  const char* reason;
};
[[nodiscard]] StopCauseText stop_cause_text(int cause_index);

/// Aggregate per-channel busy/traversal counters into the per-class
/// utilization table of `result` (NetKind x ChannelKind x level), exactly
/// as the sequential simulator reports them. `busy`/`traversals` are
/// indexed by global channel id; `duration` is the measured window.
void collect_channel_classes(const SimLayout& layout,
                             std::span<const double> busy,
                             std::span<const std::uint64_t> traversals,
                             double duration, SimResult& result);

}  // namespace mcs::sim
