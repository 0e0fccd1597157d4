// Generic per-channel flow model for any ICN2 network, routed from its
// deterministic routing tables.
//
// The analytical framework only needs, for every ICN2 channel, the
// message rate crossing it (the coefficient of lambda_g). For a tree the
// refined model takes that rate from the d-mod-k convergence
// combinatorics (icn2_funnel.hpp); here it follows directly from the
// routes: walk the route of every ordered cluster pair (i, v), weighted
// by the inter-cluster traffic matrix, and accumulate onto the channels
// it crosses. The refined model feeds the result of a graph ICN2 to the
// same M/G/1 stage recursion it applies to the tree; the bottleneck
// analyzer reads it for every ICN2 kind.
#pragma once

#include <vector>

#include "topology/multi_cluster.hpp"
#include "topology/network.hpp"

namespace mcs::model {

struct GraphLoad {
  /// coeff[c]: messages/time (per unit lambda_g) crossing ICN2 channel c.
  /// Flow is conserved per switch: transit in + injections equals transit
  /// out + ejections (verified by the tests).
  std::vector<double> coeff;
  /// out_coeff[i] = N_i * P_o^i * load_scale[i]: cluster i's outbound rate
  /// coefficient, weighted by the config's per-cluster load multiplier.
  std::vector<double> out_coeff;
  /// inter[i*C + v]: rate coefficient of the (i -> v) cluster pair.
  std::vector<double> inter;

  /// Per-channel flow from the routing tables under the uniform
  /// destination split w_iv = N_v / (N - N_i) (the same weighting the
  /// refined model uses for the tree). `p_outgoing` overrides Eq. (13)
  /// per cluster, as for locality-skewed patterns; `inter_override`
  /// (row-major C x C, diagonal ignored) replaces the whole matrix.
  [[nodiscard]] static GraphLoad compute(
      const topo::Network& graph, const topo::SystemConfig& config,
      const std::vector<double>& p_outgoing = {},
      const std::vector<double>& inter_override = {});
};

/// Per-destination-cluster inbound rate coefficients from the outbound
/// ones, under the uniform destination split:
///   in[v] = sum_{i != v} out[i] * N_v / (N - N_i).
/// Linear in `out`, so any common multiplier (lambda_g, or none) passes
/// through. When the config's load is uniform the split makes inbound
/// equal outbound and `out` is returned VERBATIM — the N_v * P_o^i
/// identity — keeping homogeneous results bit-identical. Shared by
/// RefinedModel's dispatcher/inbound-leg rates and analyze_bottlenecks
/// so the two cannot silently diverge.
[[nodiscard]] std::vector<double> inbound_coefficients(
    const topo::SystemConfig& config, const std::vector<double>& out);

}  // namespace mcs::model
