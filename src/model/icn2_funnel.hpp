// Exact d-mod-k traffic concentration in the ICN2 (coefficients of
// lambda_g), consumed by the refined model for a fat-tree ICN2.
//
// Under the destination-digit (d-mod-k) up-port rule, every path toward a
// given endpoint — and, through the shared sigma digits, toward all of its
// leaf siblings — converges onto one down channel per level boundary. The
// boundary-l down channel toward endpoint v therefore carries the combined
// inbound traffic of v's whole leaf group that crosses boundary l, while
// ascending traffic from a leaf group spreads over k^l (sigma, port)
// combinations.
#pragma once

#include <vector>

#include "topology/multi_cluster.hpp"

namespace mcs::model {

struct Icn2Funnel {
  /// down_coeff[v][l]: messages/time (per unit lambda_g) crossing the
  /// boundary-l down channel on the path toward concentrator v.
  std::vector<std::vector<double>> down_coeff;
  /// up_coeff[i][l]: per-channel rate coefficient on the ascending path
  /// from concentrator i at boundary l.
  std::vector<std::vector<double>> up_coeff;
  /// out_coeff[i] = N_i * P_o^i * load_scale[i]: concentrator i's outbound
  /// (and, under uniform traffic and load, inbound) rate per unit
  /// lambda_g, weighted by the config's per-cluster load multiplier.
  std::vector<double> out_coeff;
  int height = 0;

  /// Compute from the system organization (uniform destinations; or the
  /// supplied per-cluster outgoing probabilities).
  [[nodiscard]] static Icn2Funnel compute(
      const topo::SystemConfig& config,
      const std::vector<double>& p_outgoing = {});
};

}  // namespace mcs::model
