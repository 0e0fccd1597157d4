// Refined analytical model: the same Draper-Ghosh/M-G-1 skeleton as the
// paper (Eqs. 16-23), but with inputs that match the physical system the
// simulator implements (DESIGN.md §3.2):
//
//  * per-queue arrival rates — a node's ICN1 NIC sees (1-P_o)*lambda_g,
//    its ECN1 NIC P_o*lambda_g, the concentrator and dispatcher
//    N_i*P_o*lambda_g each;
//  * flow-conservation channel rates that depend on the stage's level
//    boundary, including the hot converging chain of channels into (and
//    out of) the concentrator;
//  * the external path decomposed into three worm segments with
//    store-and-forward relays, using the exact ICN2 distance per cluster
//    pair and destination-cluster weights N_v/(N - N_i) instead of the
//    paper's arithmetic 1/(C-1).
//
// Three extensions beyond the paper's scope:
//  * graph-shaped ICN2s (SystemConfig::icn2.kind != kFatTree): the ICN2
//    leg uses per-channel rates from the routing-table flow model
//    (graph_load.hpp) instead of the d-mod-k funnel coefficients, and is
//    evaluated once per distinct route suffix (suffix_forest.hpp);
//  * store-and-forward flow control: channel occupancies become M full
//    message transmissions per hop instead of the wormhole span;
//  * true heterogeneity (DESIGN.md §10): per-cluster / ICN2 technology
//    overrides (SystemConfig::cluster_net / icn2_net) give each segment
//    its own t_cn/t_cs, and per-cluster load multipliers (load_scale)
//    scale every cluster's arrival rates — including the inbound rate at
//    a destination cluster, which is then the explicit source-weighted
//    matrix sum rather than the uniform-load shortcut N_v * P_o^v.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/breakdown.hpp"
#include "model/graph_load.hpp"
#include "model/latency.hpp"
#include "model/pair_classes.hpp"
#include "model/suffix_forest.hpp"
#include "topology/fat_tree.hpp"
#include "topology/graph.hpp"

namespace mcs::model {

class RefinedModel final : public LatencyModel {
 public:
  /// `p_out_override` as in PaperModel: per-cluster outgoing probabilities
  /// replacing Eq. (13) for locality-biased traffic patterns. `flow`
  /// selects the switching mechanism the occupancies model.
  RefinedModel(topo::SystemConfig config, NetworkParams params,
               std::vector<double> p_out_override = {},
               FlowControl flow = FlowControl::kWormhole);

  [[nodiscard]] LatencyPrediction predict(double lambda_g) const override;
  /// Per-station decomposition of the same prediction (DESIGN.md §13):
  /// the station terms predict() folds into one scalar — each M/G/1
  /// station's arrival rate, service moments, wait and utilization —
  /// plus traffic-weighted system aggregates.
  [[nodiscard]] ModelBreakdown breakdown(double lambda_g) const;
  [[nodiscard]] std::string name() const override { return "refined"; }
  [[nodiscard]] const topo::SystemConfig& config() const override {
    return config_;
  }
  [[nodiscard]] const NetworkParams& params() const override {
    return params_;
  }

 private:
  struct ClusterCache {
    int height = 0;
    double nodes = 0.0;
    double p_out = 0.0;
    double scale = 1.0;       ///< load_scale[i]: per-node rate multiplier
    double in_coeff = 0.0;    ///< inbound rate coefficient (of lambda_g)
    double in_per_node = 0.0; ///< inbound spread over the N_i down chains
    NetworkParams net;        ///< the cluster's resolved channel timing
    std::vector<double> hop_prob;       ///< node-to-node, Eq. (4)
    std::vector<double> hop_tail;       ///< tail[l] = Pr(j > l), l = 0..n
    std::vector<double> conc_prob;      ///< node-to-concentrator
    std::vector<double> conc_tail;      ///< Pr(distance to conc > l)
    std::vector<std::int64_t> k_pow;    ///< k^l, l = 0..n
  };

  /// Mean journey stats for one segment kind, averaged over hop counts.
  struct SegmentResult {
    double s_mean = 0.0;  ///< hop-weighted S_0 of the stage recursion
    double s_zero = 0.0;  ///< hop-weighted zero-load S_0 (contention-free)
    double r_mean = 0.0;  ///< hop-weighted remaining header pipeline time
    bool stable = true;
  };

  /// Work buffers of one evaluate_stations() call. The call owns them
  /// and passes them down, so the segment loops reuse them instead of
  /// allocating while the model itself stays an immutable, shareable
  /// object (defined in the .cpp).
  struct Scratch;

  /// A graph ICN2 pair's leg: its whole-route node in the destination's
  /// suffix tree and its channel count.
  struct GraphLeg {
    std::int32_t node = 0;
    std::int32_t stages = 0;
  };

  [[nodiscard]] SegmentResult internal_segment(int cluster, double lambda_g,
                                               Scratch& scratch) const;
  [[nodiscard]] SegmentResult ecn1_outbound_segment(int cluster,
                                                    double lambda_g,
                                                    Scratch& scratch) const;
  /// The fat-tree ICN2 leg of the pair (i, v).
  [[nodiscard]] SegmentResult icn2_segment(int i, int v, double lambda_g,
                                           Scratch& scratch) const;
  /// Every source's ICN2 leg averaged over destination clusters with
  /// uniform-destination weights N_v/(N - N_i): the concentrator's
  /// service (station 2).
  [[nodiscard]] std::vector<SegmentResult> icn2_averages(
      double lambda_g, Scratch& scratch) const;
  [[nodiscard]] SegmentResult ecn1_inbound_segment(int cluster,
                                                   double lambda_g,
                                                   Scratch& scratch) const;
  /// Every cluster's four M/G/1 station terms at lambda_g: the one
  /// evaluation predict() folds into Eqs. (35)-(36) and breakdown()
  /// reports. Station 3 of cluster i is its dispatcher as DESTINATION.
  [[nodiscard]] std::vector<ClusterBreakdown> evaluate_stations(
      double lambda_g) const;

  topo::SystemConfig config_;
  NetworkParams params_;
  NetworkParams icn2_params_;  ///< ICN2 technology (== params_ by default)
  FlowControl flow_ = FlowControl::kWormhole;
  std::vector<ClusterCache> clusters_;
  std::unique_ptr<topo::FatTree> icn2_;  ///< for exact per-pair distances
  /// Graph-shaped ICN2 (kind != kFatTree): the routed graph and its
  /// per-channel flow coefficients, replacing the tree funnel below.
  std::unique_ptr<topo::ChannelGraph> icn2_graph_;
  std::vector<double> icn2_coeff_;
  /// Its routes merged per destination cluster into suffix trees
  /// (DESIGN.md §3.2), and every pair's leg (i, v), i != v, in (v, i)
  /// order.
  SuffixForest icn2_suffixes_;
  std::vector<GraphLeg> icn2_graph_legs_;
  double total_nodes_ = 0.0;
  double gen_weight_ = 0.0;  ///< sum_i N_i * scale_i: Eq. (36) denominator

  // Exact d-mod-k funnel rates in the ICN2 (coefficients of lambda_g),
  // precomputed from pairwise concentrator distances. The boundary-l down
  // channel toward endpoint v is shared by v's whole *leaf group* (all
  // paths to one destination — and, through the sigma digits, to its leaf
  // siblings — converge); ascending traffic from a leaf group spreads
  // over k^l (sigma, port) combinations.
  std::vector<std::vector<double>> icn2_down_coeff_;  ///< [v][l]
  std::vector<std::vector<double>> icn2_up_coeff_;    ///< [i][l]
  /// Fat-tree ICN2 pair classes (pair_classes.hpp). Graph ICN2s have
  /// none: per-channel flow under real routing keeps nearly every whole
  /// leg distinct, so they share work per route suffix instead
  /// (icn2_suffixes_, DESIGN.md §3.2).
  PairClasses icn2_pairs_;
};

}  // namespace mcs::model
