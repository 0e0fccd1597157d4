// Worm-lifecycle tracing in Chrome trace_event JSON (DESIGN.md §12).
//
// The simulator samples a deterministic 1-in-K subset of messages (by
// generation index — no RNG) and emits "complete" ("ph":"X") spans for the
// message lifetime, each worm leg, and each per-hop channel occupancy.
// The resulting file loads directly into Perfetto / chrome://tracing:
// each traced message renders as one "thread" (tid) inside the buffer's
// process (pid), so a sweep can merge per-row buffers side by side.
//
// Timestamps are virtual simulation time passed through as microseconds
// (the viewer's native unit); durations are exact virtual-time spans.
// The buffer is size-capped: events past the cap are counted as dropped,
// never silently lost.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcs::obs {

struct TraceConfig {
  /// Trace every K-th generated message (1 = all). Deterministic: the
  /// choice depends only on the generation index, never on RNG state.
  std::int64_t sample_every = 16;
  /// Hard cap on buffered events; the overflow is counted in dropped().
  std::size_t max_events = 200'000;

  /// Throws mcs::ConfigError on sample_every < 1 or max_events < 1.
  void validate() const;
};

struct TraceEvent {
  std::string name;
  std::int32_t tid = 0;     ///< traced-message lane within the process
  double ts = 0.0;          ///< span start (virtual time)
  double dur = 0.0;         ///< span duration (virtual time)
  std::string args;         ///< raw JSON object body ("k":v,...) or empty
};

class TraceBuffer {
 public:
  explicit TraceBuffer(TraceConfig config = {}, int pid = 0);

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t sample_every() const {
    return config_.sample_every;
  }
  [[nodiscard]] int pid() const { return pid_; }
  /// Viewer label of this buffer's process ("process_name" metadata).
  void set_label(std::string label) { label_ = std::move(label); }
  [[nodiscard]] const std::string& label() const { return label_; }

  /// Append one complete ("X") span; drops (and counts) when full.
  void complete(std::string name, std::int32_t tid, double ts, double dur,
                std::string args = "");

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  TraceConfig config_;
  int pid_ = 0;
  std::string label_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Merge the buffers into one Chrome trace_event JSON document
/// ({"traceEvents":[...]}); each non-empty label becomes a process_name
/// metadata record for its pid.
void write_trace_json(std::ostream& out,
                      const std::vector<const TraceBuffer*>& buffers);

/// write_trace_json to a file. Throws mcs::ConfigError when the file
/// cannot be opened or written in full (util::write_file).
void write_trace_file(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers);

}  // namespace mcs::obs
