#include "sim/replication.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcs::sim {

namespace {

/// Simulate replication r of `base` (splitmix64-derived per-replication
/// seed; `base.seed + r` would make replication r of seed S identical to
/// replication r-1 of seed S+1, silently sharing runs between replication
/// sets launched from nearby base seeds, e.g. consecutive sweep rows).
SimResult run_one(const topo::MultiClusterTopology& topology,
                  const model::NetworkParams& params, double lambda_g,
                  const SimConfig& base, std::int64_t r) {
  SimConfig cfg = base;
  cfg.seed = util::derive_seed(base.seed, {static_cast<std::uint64_t>(r)});
  return Simulator(topology, params, lambda_g, cfg).run();
}

/// Derive every aggregate of `result` from result.runs (walked in
/// replication order, so the aggregates never depend on scheduling).
void aggregate(ReplicationResult& result) {
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
    return;
  }
  result.latency = util::t_interval(latency);
  result.internal_latency = util::t_interval(internal);
  result.external_latency = util::t_interval(external);
  result.rel_half_width = util::relative_half_width(latency);
}

}  // namespace

void SequentialSpec::validate() const {
  if (r_min < 1)
    throw ConfigError("SequentialSpec: r_min must be >= 1");
  if (r_max < r_min)
    throw ConfigError("SequentialSpec: r_max must be >= r_min");
  if (!(rel_precision > 0.0))
    throw ConfigError("SequentialSpec: rel_precision must be > 0");
}

ReplicationResult run_replications(const topo::MultiClusterTopology& topology,
                                   const model::NetworkParams& params,
                                   double lambda_g, const SimConfig& base,
                                   int replications, exp::ThreadPool* pool) {
  if (replications < 1)
    throw ConfigError("run_replications: need at least one replication");

  // Each replication writes its own slot; aggregation walks the slots in
  // replication order, so the result does not depend on how the pool
  // schedules the runs.
  ReplicationResult result;
  result.runs.resize(static_cast<std::size_t>(replications));

  auto body = [&](std::int64_t r) {
    result.runs[static_cast<std::size_t>(r)] =
        run_one(topology, params, lambda_g, base, r);
  };
  if (pool != nullptr) {
    pool->parallel_for(replications, body);
  } else {
    for (int r = 0; r < replications; ++r) body(r);
  }

  aggregate(result);
  return result;
}

ReplicationResult run_replications_sequential(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, const SequentialSpec& spec,
    exp::ThreadPool* pool) {
  spec.validate();

  std::vector<SimResult> runs;
  runs.reserve(static_cast<std::size_t>(spec.r_max));

  // The stopping point is the smallest prefix length R in [r_min, r_max]
  // whose first R runs satisfy the rule, scanned in replication order.
  // These accumulators mirror that prefix; the wave machinery below only
  // decides how much is simulated concurrently, never what is reported.
  util::OnlineMoments prefix_latency;
  int prefix_saturated = 0;
  int stop_at = 0;  // 0 = undecided yet

  const int wave =
      pool != nullptr ? std::max(pool->thread_count(), 1) : 1;
  int done = 0;
  int scanned = 0;
  while (stop_at == 0 && done < spec.r_max) {
    // First wave fills the mandatory r_min; later waves are pool-sized.
    const int target =
        std::min(spec.r_max, std::max(spec.r_min, done + wave));
    runs.resize(static_cast<std::size_t>(target));
    const int count = target - done;
    auto body = [&](std::int64_t i) {
      const std::int64_t r = done + i;
      runs[static_cast<std::size_t>(r)] =
          run_one(topology, params, lambda_g, base, r);
    };
    if (pool != nullptr) {
      pool->parallel_for(count, body);
    } else {
      for (int i = 0; i < count; ++i) body(i);
    }
    done = target;

    for (; scanned < done && stop_at == 0; ++scanned) {
      const SimResult& run = runs[static_cast<std::size_t>(scanned)];
      if (run.saturated) {
        ++prefix_saturated;
      } else {
        prefix_latency.add(run.latency.mean);
      }
      const int r_count = scanned + 1;
      if (r_count < spec.r_min) continue;
      // Saturation termination: r_min saturated runs within the prefix is
      // decisive — the CI over completed runs cannot converge at a load
      // past the knee, so do not burn the remaining budget.
      if (prefix_saturated >= spec.r_min) stop_at = r_count;
      // The CI rule needs at least two completed runs before it may fire:
      // below that relative_half_width() returns infinity, which a
      // permissive target (rel_precision = inf passes validate()) would
      // "satisfy" via inf <= inf, stopping after a single run with a
      // meaningless interval and precision_met = false.
      else if (prefix_latency.count() >= 2 &&
               util::relative_half_width(prefix_latency) <=
                   spec.rel_precision)
        stop_at = r_count;
    }
  }

  ReplicationResult result;
  result.runs = std::move(runs);
  // A wide pool may have simulated past the stopping point; discard the
  // excess so the result is bit-identical for any thread count.
  if (stop_at != 0)
    result.runs.resize(static_cast<std::size_t>(stop_at));
  aggregate(result);
  result.precision_met =
      result.completed >= 2 && result.rel_half_width <= spec.rel_precision;
  return result;
}

}  // namespace mcs::sim
