// Shared flag parsing for the bench binaries: phase sizes, seed, the
// simulation switch and the sweep worker count, plus the path of the
// checked-in scenario specs.
#pragma once

#include <cstdint>
#include <string>

#include <mcs/mcs.hpp>

namespace mcs::bench {

struct SweepOptions {
  std::int64_t warmup = 3'000;
  std::int64_t measured = 30'000;
  std::uint64_t seed = 20060814;
  bool run_sim = true;
  int threads = 0;  ///< sweep workers; 0 = hardware concurrency
};

/// Parse the common bench flags: --measured, --warmup, --seed,
/// --paper-scale (10k/100k phases as in Sec. 4), --no-sim, --threads.
SweepOptions options_from_args(const util::Args& args);

/// Absolute path of a checked-in scenario spec (scenarios/<name>.ini).
[[nodiscard]] std::string scenario_path(const std::string& name);

}  // namespace mcs::bench
