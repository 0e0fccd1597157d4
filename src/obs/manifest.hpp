// RunManifest: build + host + resource provenance attached to perf
// reports and sweep JSON (DESIGN.md §12), so committed result files are
// comparable across machines and commits. Capture static facts (git
// describe, compiler, build flags, hostname) at start; complete() fills
// the resource usage (wall/CPU time, peak RSS) at the end of the run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace mcs::obs {

struct RunManifest {
  std::string git;         ///< `git describe --always --dirty` at configure
  std::string compiler;    ///< compiler family + __VERSION__
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string build_flags; ///< CMAKE_CXX_FLAGS (may be empty)
  std::string hostname;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;       ///< user+system, whole process
  std::int64_t peak_rss_kb = 0;   ///< 0 where getrusage is unavailable

  /// Capture the static fields and anchor the wall clock.
  [[nodiscard]] static RunManifest begin();

  /// Fill wall_seconds / cpu_seconds / peak_rss_kb. Idempotent; call at
  /// the end of the measured activity.
  void complete();

  /// Emit as one JSON object `{...}` (no trailing newline), `indent`
  /// leading spaces on each inner line when > 0, compact when 0. Field
  /// names are chosen to never collide with the perf baseline reader's
  /// line greps ("id", "worms_per_sec").
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  double wall_anchor_ = 0.0;  ///< steady_clock seconds at begin()
};

}  // namespace mcs::obs
