#include "exp/saturation_search.hpp"

#include <algorithm>

#include "model/saturation.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcs::exp {

namespace {

/// Seed-stream tag separating probe seeds from replication/sweep chains
/// derived from the same base seed.
constexpr std::uint64_t kProbeTag = 0x5a70'5ea7'c4b1'5ec7ULL;

}  // namespace

void SaturationSearchConfig::validate() const {
  seq.validate();
  if (!(rel_tol > 0.0))
    throw ConfigError("SaturationSearchConfig: rel_tol must be > 0");
  if (!(latency_blowup > 1.0))
    throw ConfigError("SaturationSearchConfig: latency_blowup must be > 1");
  if (max_probes < 4)
    throw ConfigError("SaturationSearchConfig: max_probes must be >= 4");
}

SaturationSearch::SaturationSearch(const topo::MultiClusterTopology& topology,
                                   const model::NetworkParams& params,
                                   sim::SimConfig base,
                                   SaturationSearchConfig config)
    : topology_(topology),
      params_(params),
      base_(std::move(base)),
      config_(std::move(config)) {
  config_.validate();
}

sim::ReplicationResult SaturationSearch::probe(double lambda,
                                               int probe_index) const {
  sim::SimConfig cfg = base_;
  // Independent stream per probe: re-probing a nearby lambda must not
  // replay the previous probe's arrival process.
  cfg.seed = util::derive_seed(
      base_.seed, {kProbeTag, static_cast<std::uint64_t>(probe_index)});
  // Probes run serially; parallelism lives across search tasks.
  return sim::run_replications_sequential(topology_, params_, lambda, cfg,
                                          config_.seq);
}

bool SaturationSearch::is_saturated(const sim::ReplicationResult& result,
                                    double reference_latency) const {
  if (result.all_saturated) return true;
  // Mirror the sequential layer's own termination rule: it truncates a
  // probe as soon as r_min runs saturate (capping `saturated` at r_min
  // while `replications` may be larger), so that count IS the decisive
  // signal — a strict-majority test over the truncated prefix would
  // read such probes as stable.
  if (result.saturated >= config_.seq.r_min) return true;
  if (2 * result.saturated > result.replications) return true;
  // Latency blowup: completed-but-exploded latencies (queues grew for the
  // whole measurement window without tripping a cap).
  if (reference_latency > 0.0 &&
      result.latency.mean > config_.latency_blowup * reference_latency)
    return true;
  return false;
}

SaturationSearchResult SaturationSearch::run(double model_lambda_sat) const {
  SaturationSearchResult result;
  double seed_lambda = model_lambda_sat;
  if (!(seed_lambda > 0.0))
    seed_lambda = model::concentrator_saturation_estimate(topology_.config(),
                                                          params_);
  MCS_ASSERT(seed_lambda > 0.0);
  result.model_lambda_sat = seed_lambda;

  const auto record = [&](double lambda,
                          const sim::ReplicationResult& r) -> bool {
    const bool saturated = is_saturated(r, result.reference_latency);
    SaturationProbe p;
    p.lambda = lambda;
    p.saturated = saturated;
    p.latency = r.completed > 0 ? r.latency.mean : -1.0;
    p.replications = r.replications;
    result.trace.push_back(p);
    ++result.probes;
    return saturated;
  };

  // --- low-load anchor: reference latency for the blowup predicate ------
  // Deeply below the analytical knee the simulator should complete; if it
  // does not, keep halving (a badly over-optimistic model seed).
  double lambda_ref = 0.25 * seed_lambda;
  bool anchored = false;
  while (result.probes < config_.max_probes) {
    const sim::ReplicationResult r = probe(lambda_ref, result.probes);
    if (!record(lambda_ref, r)) {
      result.reference_latency = r.latency.mean;
      anchored = true;
      break;
    }
    lambda_ref *= 0.5;
  }
  if (!anchored) return result;  // lambda_sat = 0: nothing stable found

  // --- bracket: grow hi geometrically from the seed until saturated -----
  double lo = lambda_ref;
  double hi = std::max(seed_lambda, lambda_ref * 2.0);
  result.latency_at = result.reference_latency;
  bool bracketed = false;
  while (result.probes < config_.max_probes) {
    const sim::ReplicationResult r = probe(hi, result.probes);
    if (record(hi, r)) {
      bracketed = true;
      break;
    }
    lo = hi;
    if (r.completed > 0) result.latency_at = r.latency.mean;
    hi *= 1.5;
  }
  if (!bracketed) {
    // Probe budget exhausted while still stable: report the largest load
    // verified stable (a lower bound on the knee).
    result.lambda_sat = lo;
    result.ratio = lo / result.model_lambda_sat;
    return result;
  }

  // --- bisection ---------------------------------------------------------
  while ((hi - lo) > config_.rel_tol * hi &&
         result.probes < config_.max_probes) {
    const double mid = 0.5 * (lo + hi);
    const sim::ReplicationResult r = probe(mid, result.probes);
    if (record(mid, r)) {
      hi = mid;
    } else {
      lo = mid;
      if (r.completed > 0) result.latency_at = r.latency.mean;
    }
  }

  result.lambda_sat = lo;
  result.ratio = lo / result.model_lambda_sat;
  return result;
}

}  // namespace mcs::exp
