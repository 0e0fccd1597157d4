// Top-level discrete-event simulator of the heterogeneous multi-cluster
// system (the paper's validation substrate, Sec. 4): Poisson sources on
// every node, uniform (or patterned) destinations, wormhole transport on
// the per-cluster ICN1/ECN1 trees and the global ICN2, store-and-forward
// relays at the concentrator/dispatcher, warm-up / measurement / drain
// phasing, and full determinism from a single seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "model/params.hpp"
#include "obs/anatomy.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/layout.hpp"
#include "sim/metrics.hpp"
#include "sim/traffic.hpp"
#include "topology/multi_cluster.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcs::sim {

/// Initial-transient ("warmup") deletion applied to the measured latency
/// stream after the run (DESIGN.md §11). The fixed warmup_messages phase
/// always runs; deletion additionally truncates the front of the
/// *measured* stream so steady-state means are not biased by the
/// empty-network start. Off by default: the PR 3 golden fingerprints and
/// every fixed-phase experiment are bit-identical with deletion off.
enum class WarmupDeletion : std::uint8_t {
  kOff,    ///< keep every measured message (legacy behavior)
  kMser5,  ///< MSER-5 cutoff over per-message latencies; the first 10%
           ///< of the stream when the rule is undetermined
};

struct SimConfig {
  std::uint64_t seed = 20060814;  ///< any value; runs are reproducible

  RelayMode relay_mode = RelayMode::kStoreForward;
  FlowControl flow_control = FlowControl::kWormhole;

  /// Paper-scale phases are 10k warm-up / 100k measured; benches default
  /// to smaller counts for wall-clock reasons and offer --paper-scale.
  std::int64_t warmup_messages = 10'000;
  std::int64_t measured_messages = 100'000;
  std::size_t batch_size = 1'000;  ///< batch-means CI granularity

  /// Post-run initial-transient deletion over the measured latencies.
  /// Affects only the reported latency statistics (means/CI/percentiles,
  /// internal/external split, per-cluster means) — the event flow, RNG
  /// consumption, end_time and event counts are identical either way.
  WarmupDeletion warmup_deletion = WarmupDeletion::kOff;

  // Saturation guards: the run stops and is flagged `saturated` when any
  // cap is hit before all measured messages are delivered, or as soon as
  // the measured latency's batch means drift upward (util::DriftTest,
  // DESIGN.md §11.5; its constants live with the test, not here), or
  // more than max(10,000, 50 * total nodes) worms are blocked at once.
  /// Cap on popped events (SimResult::events_processed). A channel
  /// release nobody waits for is never pushed or popped (DESIGN.md §9.1),
  /// so the pops per worm depend on contention.
  std::uint64_t max_events = 400'000'000;
  double max_time = std::numeric_limits<double>::infinity();
  /// Cap on generated messages; <= 0 selects 4 * (warmup + measured).
  std::int64_t max_generated = -1;

  bool collect_channel_stats = false;
  TrafficPattern pattern;

  // --- observability (DESIGN.md §12) -------------------------------------
  // Caller-owned observers; both default off. The contract is hard:
  // attaching them never consumes RNG, never pushes or reorders events,
  // and the SimResult is bit-identical with or without them (the golden
  // tests pin this). Disabled cost is one pointer test per event.
  /// Periodic virtual-time snapshots of the live simulation state.
  obs::ProbeSeries* probes = nullptr;
  /// Sampled worm-lifecycle spans (deterministic 1-in-K by generation
  /// index) in Chrome trace_event form.
  obs::TraceBuffer* trace = nullptr;
  /// Exhaustive per-segment/per-channel latency decomposition of EVERY
  /// measured message (DESIGN.md §13). Unlike probes/trace it is never
  /// sampled; same bit-identity contract. Enables the engine's channel
  /// stats over the measured window (like collect_channel_stats).
  obs::LatencyAnatomy* anatomy = nullptr;
};

class Simulator : private WormholeEngine::Listener {
 public:
  /// The topology must outlive the simulator. Throws mcs::ConfigError when
  /// a worm could not span the longest path (message_flits too small for
  /// the engine's wormhole semantics; the paper's configs satisfy it).
  /// `lambda_g` is the global per-node Poisson rate; the topology config's
  /// heterogeneity knobs refine it per cluster — cluster i's nodes
  /// generate at load_scale[i] * lambda_g, and channel service times come
  /// from the owning network's technology (cluster_net / icn2_net
  /// overrides on the shared `params`).
  Simulator(const topo::MultiClusterTopology& topology,
            const model::NetworkParams& params, double lambda_g,
            SimConfig config);

  /// Run to completion (all measured messages delivered, or a saturation
  /// cap). Single-use: construct a fresh Simulator per run.
  SimResult run();

 private:
  void on_worm_done(WormId worm, double time) override;

  void handle_generate(std::int32_t node, double now);
  void spawn_segment(std::int32_t msg_id, double now);
  void finalize(std::int32_t msg_id, double now);
  /// Which saturation cap (if any) the run has hit at `now`, or kDrift
  /// once the drift test has fired. Values index stop_cause_text.
  enum class StopCause : std::uint8_t {
    kNone,
    kEvents,
    kTime,
    kWorms,
    kGenerated,
    kDrift,
  };
  [[nodiscard]] StopCause should_stop(double now) const;
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Take one probe snapshot at `now` (config_.probes must be set).
  void record_probe(double now);
  /// Emit the completed leg's trace spans (worm wait/leg/hop spans).
  void trace_worm(const Worm& w, const MsgRec& m, WormId worm, double time);
  /// Decompose the completed measured leg into wait/header/drain and
  /// per-hop channel visits for the attached anatomy.
  void record_anatomy(const Worm& w, MsgRec& m, WormId worm, double time);
  void collect_channel_classes(SimResult& result) const;
  /// Drop the first `cut` measured messages from every latency statistic
  /// (rebuilds the batch-means accumulators, the internal/external split
  /// and the per-cluster means from the recorded per-message detail).
  void apply_warmup_deletion(std::size_t cut);

  const topo::MultiClusterTopology& topology_;
  model::NetworkParams params_;
  double lambda_;
  SimConfig config_;

  EventQueue queue_;
  // The canonical channel layout is built — and the config validated — by
  // layout_'s initializer, so it must be declared (i.e. constructed)
  // before engine_.
  SimLayout layout_;
  WormholeEngine engine_;
  RouteTables routes_;

  // Node addressing and per-node RNG streams.
  std::vector<std::int32_t> cluster_of_;
  std::vector<topo::EndpointId> local_of_;
  std::vector<util::Rng> node_rng_;
  DestinationSampler sampler_;
  /// Per-cluster Poisson rate: load_scale[i] * lambda_g (== lambda_ for
  /// every cluster on homogeneous-load configs).
  std::vector<double> cluster_lambda_;

  [[nodiscard]] double node_lambda(std::int32_t node) const {
    return cluster_lambda_[static_cast<std::size_t>(
        cluster_of_[static_cast<std::size_t>(node)])];
  }

  // Message pool.
  std::vector<MsgRec> msgs_;
  std::vector<std::int32_t> free_msgs_;

  // Phase bookkeeping and statistics.
  std::int64_t generated_ = 0;
  std::int64_t delivered_measured_ = 0;
  double measure_start_time_ = 0.0;
  util::BatchMeans latency_;
  /// Fed each completed batch of latency_ (finalize()).
  util::DriftTest drift_;
  util::BatchMeans internal_latency_;
  util::BatchMeans external_latency_;
  std::vector<double> measured_latencies_;  ///< for p50/p95/p99
  // Per-message detail recorded only when warmup_deletion is on, so the
  // post-run truncation can rebuild the split/per-cluster statistics.
  std::vector<std::int32_t> measured_cluster_;
  std::vector<std::uint8_t> measured_is_internal_;
  util::OnlineMoments source_wait_;
  util::OnlineMoments conc_wait_;
  util::OnlineMoments disp_wait_;
  std::vector<util::OnlineMoments> per_cluster_;
  std::int64_t waiting_cap_ = 0;
  std::int64_t generated_cap_ = 0;
  /// Pops by EventKind; their sum is events_processed().
  std::array<std::uint64_t, kEventKinds> events_by_kind_{};

  // Observability state (null/zero when observers are off). The
  // per-class busy accumulators turn the engine's cumulative busy-time
  // counters into per-window utilization deltas between samples.
  obs::ProbeSeries* probes_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  obs::LatencyAnatomy* anatomy_ = nullptr;
  std::int32_t next_trace_tid_ = 0;
  double probe_prev_time_ = 0.0;
  double probe_prev_busy_[obs::kNetClasses] = {0.0, 0.0, 0.0};
  std::int64_t class_channels_[obs::kNetClasses] = {0, 0, 0};

};

}  // namespace mcs::sim
