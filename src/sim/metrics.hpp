// Result structures reported by one simulation run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "topology/fat_tree.hpp"
#include "util/stats.hpp"

namespace mcs::sim {

/// Which network a channel belongs to (for classified utilization stats).
enum class NetKind : std::uint8_t { kIcn1, kEcn1, kIcn2 };

[[nodiscard]] const char* to_string(NetKind kind);

/// Aggregated utilization/rate over all channels sharing a class
/// (network kind, channel kind, level boundary).
struct ChannelClassStat {
  NetKind net;
  topo::ChannelKind kind;
  int level = 0;
  std::size_t channels = 0;
  double mean_utilization = 0.0;
  double max_utilization = 0.0;
  double mean_message_rate = 0.0;  ///< worms per time unit per channel
};

struct SimResult {
  /// Mean end-to-end message latency with a batch-means 95% CI.
  util::ConfidenceInterval latency;
  util::ConfidenceInterval internal_latency;
  util::ConfidenceInterval external_latency;

  /// Latency percentiles over all measured messages (-1 when none).
  double latency_p50 = -1.0;
  double latency_p95 = -1.0;
  double latency_p99 = -1.0;

  /// Mean waits at the three queueing points of the message flow model
  /// (Fig. 2): source NIC, concentrator, dispatcher.
  double mean_source_wait = 0.0;
  double mean_conc_wait = 0.0;
  double mean_disp_wait = 0.0;

  std::int64_t generated = 0;
  std::int64_t delivered_measured = 0;
  std::int64_t measured_internal = 0;
  std::int64_t measured_external = 0;

  /// True when the run hit a resource cap before delivering every measured
  /// message, or its measured latency drifted upward (util::DriftTest) —
  /// the offered load is beyond the saturation point.
  bool saturated = false;
  std::string saturation_reason;
  /// Machine-readable token naming the stop behind saturation_reason:
  /// "events", "time", "worms", "generated" or "drift"; empty when
  /// !saturated.
  /// Survives replication/sweep aggregation (unlike the long reason).
  std::string saturation_cause;

  double end_time = 0.0;
  std::uint64_t events_processed = 0;
  /// Popped events by EventKind (generate, header advance, release, worm
  /// done); sums to events_processed, and the generate count equals
  /// `generated`. A speed-up that moves a count other than the kind it
  /// removes changed the simulation, not just its cost.
  std::array<std::uint64_t, kEventKinds> events_by_kind{};
  std::uint64_t worms_spawned = 0;

  /// Initial-transient deletion (SimConfig::warmup_deletion): measured
  /// messages excluded from the latency statistics beyond the fixed
  /// warmup phase. 0 when deletion is off (the default) or the stream
  /// looked stationary from the start.
  std::int64_t warmup_deleted = 0;
  /// True when MSER-5 could not determine a cutoff (stream too short or
  /// minimum on the search bound) and the fixed 10% fallback was applied
  /// instead.
  bool warmup_fallback = false;

  /// Mean latency by source cluster (Eq. 35's per-cluster view).
  std::vector<double> per_cluster_latency;
  std::vector<std::int64_t> per_cluster_count;

  /// Filled when SimConfig::collect_channel_stats is set.
  std::vector<ChannelClassStat> channel_classes;
};

}  // namespace mcs::sim
