// Fixed-count replication sets for tests: the sequential runner with
// r_min = r_max = R and an infinite precision target runs exactly R
// replications (seeds derived from base.seed and the replication index).
#pragma once

#include <limits>

#include "sim/replication.hpp"

namespace mcs::sim::testsupport {

[[nodiscard]] inline ReplicationResult run_fixed_replications(
    const topo::MultiClusterTopology& topology,
    const model::NetworkParams& params, double lambda_g,
    const SimConfig& base, int replications) {
  SequentialSpec spec;
  spec.r_min = replications;
  spec.r_max = replications;
  spec.rel_precision = std::numeric_limits<double>::infinity();
  return run_replications_sequential(topology, params, lambda_g, base, spec);
}

}  // namespace mcs::sim::testsupport
