// Paper-literal analytical model: Eqs. (3)-(36) of Javadi et al. 2006.
// OCR-ambiguous constants are resolved as documented in DESIGN.md §3.1;
// each resolution is marked at its implementation site.
#pragma once

#include <vector>

#include "model/latency.hpp"
#include "model/pair_classes.hpp"
#include "model/service_recursion.hpp"
#include "sim/traffic.hpp"

namespace mcs::model {

class PaperModel final : public LatencyModel {
 public:
  /// `p_out_override`, when non-empty (one entry per cluster), replaces
  /// Eq. (13)'s uniform-destination outgoing probabilities — the hook for
  /// traffic patterns with a cluster-symmetric locality bias (the paper's
  /// "non-uniform traffic" future-work item).
  /// Throws mcs::ConfigError with unsupported_reason(config) when set.
  PaperModel(topo::SystemConfig config, NetworkParams params,
             std::vector<double> p_out_override = {});

  /// The paper-literal model's domain: the refined model's traffic
  /// patterns, wormhole flow control, a fat-tree ICN2, one network
  /// technology and one offered load everywhere. Returns nullptr inside
  /// it, else the message naming the first condition that fails.
  [[nodiscard]] static const char* unsupported_reason(
      const topo::SystemConfig& config,
      const sim::TrafficPattern& pattern = {},
      FlowControl flow = FlowControl::kWormhole);
  [[nodiscard]] static bool supports(const topo::SystemConfig& config) {
    return unsupported_reason(config) == nullptr;
  }

  [[nodiscard]] LatencyPrediction predict(double lambda_g) const override;
  [[nodiscard]] std::string name() const override { return "paper"; }
  [[nodiscard]] const topo::SystemConfig& config() const override {
    return config_;
  }
  [[nodiscard]] const NetworkParams& params() const override {
    return params_;
  }

 private:
  struct ClusterCache {
    int height = 0;
    double nodes = 0.0;              ///< N_i
    double p_out = 0.0;              ///< Eq. (13)
    std::vector<double> hop_prob;    ///< P_{j,n_i}, index j-1 (Eq. 4)
    double d_avg = 0.0;              ///< Eq. (8)/(9)
  };

  /// T_I1 components for one cluster at the given load.
  struct InternalResult {
    double w_source = 0.0;
    double s_mean = 0.0;
    double r_mean = 0.0;
    bool stable = true;
  };
  /// `stages` is the caller's scratch buffer (reused, never shrunk), so
  /// the per-pair evaluations of one predict() do not allocate.
  [[nodiscard]] InternalResult internal_latency(
      int cluster, double lambda_g, std::vector<Stage>& stages) const;

  /// T_{E1&I2}^{(i,v)} + W_s terms for one ordered cluster pair.
  struct PairResult {
    double t_external = 0.0;  ///< W + S + R of the merged journey (Eq. 25)
    double w_source = 0.0;
    double s_mean = 0.0;
    double w_conc_disp = 0.0;  ///< 2 * W_s^{(i,v)} (Eq. 33, both buffers)
    bool stable = true;
  };
  [[nodiscard]] PairResult pair_latency(int i, int v, double lambda_g,
                                        std::vector<Stage>& stages) const;

  topo::SystemConfig config_;
  NetworkParams params_;
  std::vector<ClusterCache> clusters_;
  /// pair_latency() reads height, N and P_o of both clusters (plus shared
  /// ICN2 constants), so pairs of equal (height, N, P_o) clusters share a
  /// class (pair_classes.hpp).
  PairClasses pairs_;
  std::vector<double> icn2_hop_prob_;  ///< P_{h,n_c}
  double icn2_d_avg_ = 0.0;
  int icn2_height_ = 0;
  double total_nodes_ = 0.0;
};

}  // namespace mcs::model
