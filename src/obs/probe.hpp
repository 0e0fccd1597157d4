// Time-series probes: a periodic virtual-time sampler the simulator drives
// from its event loop (DESIGN.md §12). Each ProbeSample is a snapshot of
// the live simulation state — event-queue depth, in-flight worms, per-net
// channel utilization, pool occupancy, per-cluster delivered counts — taken
// at (approximately) fixed virtual-time intervals, so saturation transients
// and the MSER-5 warmup cutoff become plottable.
//
// Contract (shared by the whole obs/ layer): observation NEVER consumes
// RNG, never pushes or reorders events, and costs one pointer test per
// event when disabled. This header depends only on the standard library so
// sim/ headers can embed its types without a layering cycle; network kinds
// are therefore plain indices here (0 = ICN1, 1 = ECN1, 2 = ICN2 — the
// same order as sim::NetKind).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcs::obs {

/// Number of network classes a sample tracks utilization for (see the
/// index convention above).
inline constexpr int kNetClasses = 3;

[[nodiscard]] const char* net_class_name(int net_class);

struct ProbeConfig {
  /// Virtual-time distance between samples. <= 0 selects auto mode: the
  /// interval initializes to the virtual time of the first snapshot
  /// opportunity, which scales the cadence to the workload without any
  /// configuration.
  double interval = 0.0;
  /// Buffer capacity. When full, the series drops every second sample and
  /// doubles the interval (adaptive decimation), so a bounded buffer
  /// always covers the whole run at the finest affordable resolution.
  std::size_t max_samples = 4096;

  /// Throws mcs::ConfigError on max_samples < 2 or a negative interval.
  void validate() const;
};

/// One snapshot of the simulation state at virtual time `time`.
struct ProbeSample {
  double time = 0.0;
  std::uint64_t events = 0;            ///< events processed so far
  std::int64_t queue_depth = 0;        ///< pending events in the heap
  std::int64_t live_worms = 0;         ///< worms in flight
  std::int64_t waiting_worms = 0;      ///< worms blocked in a channel FIFO
  std::int64_t pool_rows = 0;          ///< worm-pool rows ever allocated
  std::int64_t generated = 0;          ///< messages generated so far
  std::int64_t delivered_measured = 0; ///< measured messages delivered
  /// Mean channel utilization per network class over the window since the
  /// previous sample (busy-time delta / channels / dt), in [0, 1];
  /// 0 for classes with no channels. Indexed by the 0/1/2 convention.
  double utilization[kNetClasses] = {0.0, 0.0, 0.0};
  std::vector<std::int64_t> per_cluster_delivered;
};

/// Bounded, adaptively decimating sample buffer. The producer (one
/// simulator) calls due()/record(); readers walk samples() afterwards.
class ProbeSeries {
 public:
  explicit ProbeSeries(ProbeConfig config = {});

  /// True when `now` has reached the next sampling instant (and, in auto
  /// mode, locks the interval to the first such `now`). A true return
  /// must be followed by record() — due() advances the schedule.
  [[nodiscard]] bool due(double now);

  /// Append a snapshot; decimates in place when the buffer is full.
  void record(ProbeSample sample);

  [[nodiscard]] const std::vector<ProbeSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] const ProbeConfig& config() const { return config_; }
  /// Current sampling interval (doubles on each decimation; 0 until the
  /// auto mode locks it).
  [[nodiscard]] double interval() const { return interval_; }
  /// How many times the buffer halved itself to stay within max_samples.
  [[nodiscard]] int decimations() const { return decimations_; }

 private:
  ProbeConfig config_;
  double interval_ = 0.0;
  double next_sample_ = 0.0;
  int decimations_ = 0;
  std::vector<ProbeSample> samples_;
};

/// A labeled series, for multi-run emission (e.g. one per sweep row).
struct LabeledProbeSeries {
  std::string label;
  const ProbeSeries* series = nullptr;
};

/// CSV: one header, one row per sample, a leading `run` label column and
/// one `delivered_c<i>` column per cluster (padded to the widest series).
void write_probe_csv(std::ostream& out,
                     const std::vector<LabeledProbeSeries>& series);

/// JSON: {"probes":[{"run":label,"interval":...,"samples":[{...},...]}]}.
void write_probe_json(std::ostream& out,
                      const std::vector<LabeledProbeSeries>& series);

/// Dispatch on the path's extension: ".json" selects JSON, anything else
/// CSV. Throws mcs::ConfigError when the file cannot be opened or written
/// in full (util::write_file).
void write_probe_file(const std::string& path,
                      const std::vector<LabeledProbeSeries>& series);

}  // namespace mcs::obs
