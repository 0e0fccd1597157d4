#include "sim/replication.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcs::sim {

void SequentialSpec::validate() const {
  if (r_min < 1)
    throw ConfigError("SequentialSpec: r_min must be >= 1");
  if (r_max < r_min)
    throw ConfigError("SequentialSpec: r_max must be >= r_min");
  if (!(rel_precision > 0.0))
    throw ConfigError("SequentialSpec: rel_precision must be > 0");
}

ReplicationResult aggregate_replications(std::vector<SimResult> runs) {
  ReplicationResult result;
  result.runs = std::move(runs);
  util::OnlineMoments latency, internal, external;
  for (const SimResult& run : result.runs) {
    if (run.saturated) {
      ++result.saturated;
      if (!run.saturation_cause.empty() &&
          std::find(result.saturation_causes.begin(),
                    result.saturation_causes.end(),
                    run.saturation_cause) == result.saturation_causes.end())
        result.saturation_causes.push_back(run.saturation_cause);
    } else {
      ++result.completed;
      latency.add(run.latency.mean);
      internal.add(run.internal_latency.mean);
      external.add(run.external_latency.mean);
    }
  }
  result.replications = static_cast<int>(result.runs.size());
  if (result.completed == 0) {
    // Every replication saturated: t_interval over zero samples would
    // report a confident-looking {mean 0.0, half-width 0.0}. Make the
    // degenerate state explicit instead — NaN intervals plus the flag.
    result.all_saturated = true;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    result.latency = {nan, nan};
    result.internal_latency = {nan, nan};
    result.external_latency = {nan, nan};
    return result;
  }
  result.latency = util::t_interval(latency);
  result.internal_latency = util::t_interval(internal);
  result.external_latency = util::t_interval(external);
  result.rel_half_width = util::relative_half_width(latency);
  return result;
}

ReplicationResult run_replications_sequential(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, const SequentialSpec& spec) {
  spec.validate();

  std::vector<SimResult> runs;
  runs.reserve(static_cast<std::size_t>(spec.r_max));
  util::OnlineMoments prefix_latency;
  int prefix_saturated = 0;
  while (static_cast<int>(runs.size()) < spec.r_max) {
    // Splitmix64-derived per-replication seed: `base.seed + r` would make
    // replication r of seed S identical to replication r-1 of seed S+1.
    SimConfig cfg = base;
    cfg.seed = util::derive_seed(
        base.seed, {static_cast<std::uint64_t>(runs.size())});
    runs.push_back(Simulator(topology, params, lambda_g, cfg).run());
    if (runs.back().saturated) {
      ++prefix_saturated;
    } else {
      prefix_latency.add(runs.back().latency.mean);
    }
    if (static_cast<int>(runs.size()) < spec.r_min) continue;
    // Saturation termination: r_min saturated runs within the prefix is
    // decisive — the CI over completed runs cannot converge at a load
    // past the knee, so do not burn the remaining budget.
    if (prefix_saturated >= spec.r_min) break;
    // The CI rule needs at least two completed runs before it may fire:
    // below that relative_half_width() returns infinity, which a
    // permissive target (rel_precision = inf passes validate()) would
    // "satisfy" via inf <= inf, stopping after a single run with a
    // meaningless interval and precision_met = false.
    if (prefix_latency.count() >= 2 &&
        util::relative_half_width(prefix_latency) <= spec.rel_precision)
      break;
  }

  ReplicationResult result = aggregate_replications(std::move(runs));
  result.precision_met =
      result.completed >= 2 && result.rel_half_width <= spec.rel_precision;
  return result;
}

}  // namespace mcs::sim
