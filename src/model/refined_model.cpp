#include "model/refined_model.hpp"

#include <algorithm>
#include <cmath>

#include "model/icn2_funnel.hpp"
#include "model/mg1.hpp"
#include "model/service_recursion.hpp"
#include "topology/tree_math.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::model {

namespace {

/// Remaining pipeline time after the first of `channels` physical stages
/// ((channels - 2) switch channels plus the ejection channel): for
/// wormhole the header's flit times, for store-and-forward a full message
/// transmission per remaining channel.
double pipeline_r(int channels, const NetworkParams& p, FlowControl flow) {
  const double header = (channels - 2.0) * p.t_cs() + p.t_cn();
  return flow == FlowControl::kStoreAndForward ? p.message_flits * header
                                               : header;
}

/// One physical channel along a journey: flit time and message rate.
struct PhysStage {
  double t;
  double rate;
};

/// The recursion base of a channel with flit time `t`, stepping backward
/// from the journey's end. Under wormhole a worm occupies channel k for
/// roughly M times the slowest channel at or beyond k (the body drains at
/// the downstream bottleneck's rate), so
///   base_k = M * max_{k' >= k} t_{k'};
/// under store-and-forward each channel is held for exactly one full
/// message transmission, base_k = M * t_k, released before the next hop.
/// `suffix_max` carries max t over the channels beyond k and takes in t_k.
double occupancy(double t, double& suffix_max, int flits, FlowControl flow) {
  suffix_max = std::max(suffix_max, t);
  return flits * (flow == FlowControl::kStoreAndForward ? t : suffix_max);
}

/// The recursion (with the M/D/1-style residual waits) over physical
/// stages ordered source to destination. Returns its result and, via
/// `zero_load`, the contention-free occupancy of the first channel.
RecursionResult run_stages(const std::vector<PhysStage>& phys, int flits,
                           FlowControl flow, double& zero_load) {
  MCS_EXPECTS(!phys.empty());
  double suffix_max = 0.0;
  SuffixState state;
  double s = 0.0;
  for (std::size_t idx = phys.size(); idx-- > 0;) {
    zero_load = occupancy(phys[idx].t, suffix_max, flits, flow);
    s = recursion_step({zero_load, phys[idx].rate}, WaitModel::kResidual,
                       state);
  }
  return {s, state.stable};
}

/// One node of a graph ICN2 suffix tree under evaluation: run_stages'
/// running values after stepping the node's channel.
struct SuffixNode {
  double suffix_max = 0.0;
  SuffixState state;
  double base = 0.0;  ///< the channel's occupancy
  double s = 0.0;     ///< its service time S_k
};

}  // namespace

struct RefinedModel::Scratch {
  std::vector<PhysStage> phys;
  std::vector<SuffixNode> suffix;  ///< one destination's suffix tree
};

RefinedModel::RefinedModel(topo::SystemConfig config, NetworkParams params,
                           std::vector<double> p_out_override,
                           FlowControl flow)
    : config_(std::move(config)), params_(std::move(params)), flow_(flow) {
  config_.validate();
  params_.validate();
  icn2_params_ = config_.icn2_params(params_);
  if (!p_out_override.empty() &&
      p_out_override.size() !=
          static_cast<std::size_t>(config_.cluster_count()))
    throw ConfigError("RefinedModel: p_out_override size mismatch");
  total_nodes_ = static_cast<double>(config_.total_nodes());

  for (int i = 0; i < config_.cluster_count(); ++i) {
    const topo::TreeShape shape{
        config_.m, config_.cluster_heights[static_cast<std::size_t>(i)]};
    ClusterCache c;
    c.height = shape.n;
    c.nodes = static_cast<double>(shape.node_count());
    c.p_out = p_out_override.empty()
                  ? config_.p_outgoing(i)
                  : p_out_override[static_cast<std::size_t>(i)];
    c.scale = config_.cluster_load_scale(i);
    c.net = config_.cluster_params(i, params_);
    c.hop_prob = shape.hop_distribution();
    c.hop_tail = topo::tail_of(c.hop_prob);
    c.conc_prob = topo::concentrator_hop_distribution(shape);
    c.conc_tail = topo::tail_of(c.conc_prob);
    for (int l = 0; l <= shape.n; ++l)
      c.k_pow.push_back(topo::checked_pow(shape.k(), l));
    clusters_.push_back(std::move(c));
    gen_weight_ += c.nodes * c.scale;
  }

  // Inbound rate coefficient of each destination cluster. Under uniform
  // load the uniform-destination split makes inbound equal outbound
  // (N_v * P_o^v — the exact identity for Eq. 13's p_out, and the model's
  // standing approximation under p_out_override); non-uniform load breaks
  // that symmetry and inbound_coefficients sums the scale-weighted
  // inter-cluster matrix instead (shared with analyze_bottlenecks).
  const bool skewed = config_.heterogeneous_load();
  std::vector<double> out_coeffs;
  for (const ClusterCache& c : clusters_)
    out_coeffs.push_back(c.nodes * c.p_out * c.scale);
  const std::vector<double> in_coeffs =
      inbound_coefficients(config_, out_coeffs);
  for (int v = 0; v < config_.cluster_count(); ++v) {
    ClusterCache& cv = clusters_[static_cast<std::size_t>(v)];
    cv.in_coeff = in_coeffs[static_cast<std::size_t>(v)];
    cv.in_per_node = skewed ? cv.in_coeff / cv.nodes : cv.p_out;
  }

  std::vector<double> p_out;
  for (const ClusterCache& c : clusters_) p_out.push_back(c.p_out);
  const int c_count = config_.cluster_count();
  if (config_.icn2.kind == topo::Icn2Kind::kFatTree) {
    icn2_ = std::make_unique<topo::FatTree>(
        topo::TreeShape{config_.m, config_.icn2_height()});

    // Exact d-mod-k concentration coefficients (see icn2_funnel.hpp).
    const Icn2Funnel funnel = Icn2Funnel::compute(config_, p_out);
    icn2_down_coeff_ = funnel.down_coeff;
    icn2_up_coeff_ = funnel.up_coeff;

    // Pair classes: icn2_segment() reads N_i, P_o^i, scale_i and the up
    // funnel prefix up_i[1..h-1] of the source, the inbound coefficient
    // and down prefix down_v[1..h-1] of the destination, and the NCA level
    // h. Label both sides per level, then key each pair by all three.
    const int levels = config_.icn2_height();
    const auto prefix_equal = [](const std::vector<double>& a,
                                 const std::vector<double>& b, int h) {
      return std::equal(a.begin() + 1, a.begin() + h, b.begin() + 1,
                        same_bits);
    };
    std::vector<Labels> src(static_cast<std::size_t>(levels) + 1);
    std::vector<Labels> dst(src.size());
    std::vector<std::size_t> offset(src.size() + 1, 0);  // key space of h
    for (int h = 1; h <= levels; ++h) {
      const auto hh = static_cast<std::size_t>(h);
      src[hh] = classify(c_count, [&](int a, int b) {
        const ClusterCache& ca = clusters_[static_cast<std::size_t>(a)];
        const ClusterCache& cb = clusters_[static_cast<std::size_t>(b)];
        return same_bits(ca.nodes, cb.nodes) &&
               same_bits(ca.p_out, cb.p_out) &&
               same_bits(ca.scale, cb.scale) &&
               prefix_equal(icn2_up_coeff_[static_cast<std::size_t>(a)],
                            icn2_up_coeff_[static_cast<std::size_t>(b)], h);
      });
      dst[hh] = classify(c_count, [&](int a, int b) {
        return same_bits(clusters_[static_cast<std::size_t>(a)].in_coeff,
                         clusters_[static_cast<std::size_t>(b)].in_coeff) &&
               prefix_equal(icn2_down_coeff_[static_cast<std::size_t>(a)],
                            icn2_down_coeff_[static_cast<std::size_t>(b)], h);
      });
      offset[hh + 1] = offset[hh] + src[hh].count * dst[hh].count;
    }
    icn2_pairs_ = PairClasses::build(
        c_count, offset.back(), [&](int i, int v) {
          const auto h = static_cast<std::size_t>(
              icn2_->nca_level(static_cast<topo::EndpointId>(i),
                               static_cast<topo::EndpointId>(v)));
          return offset[h] +
                 src[h].of[static_cast<std::size_t>(i)] * dst[h].count +
                 dst[h].of[static_cast<std::size_t>(v)];
        });
  } else {
    // Graph ICN2: per-channel rates straight from the routing tables.
    icn2_graph_ =
        std::make_unique<topo::ChannelGraph>(topo::make_icn2_graph(config_));
    icn2_coeff_ = GraphLoad::compute(*icn2_graph_, config_, p_out).coeff;

    // One suffix tree per destination (suffix_forest.hpp), so the leg's
    // recursion steps each distinct route suffix once.
    icn2_suffixes_ = SuffixForest(icn2_graph_->channel_count());
    std::vector<topo::ChannelId> route;
    for (int v = 0; v < c_count; ++v) {
      icn2_suffixes_.begin_tree();
      for (int i = 0; i < c_count; ++i) {
        if (i == v) continue;
        route.clear();
        const int stages =
            icn2_graph_->route_into(static_cast<topo::EndpointId>(i),
                                    static_cast<topo::EndpointId>(v), route);
        icn2_graph_legs_.push_back({icn2_suffixes_.add(route), stages});
      }
    }
  }
}

RefinedModel::SegmentResult RefinedModel::internal_segment(
    int cluster, double lambda_g, Scratch& scratch) const {
  const ClusterCache& c = clusters_[static_cast<std::size_t>(cluster)];
  const double tcn = c.net.t_cn();
  const double tcs = c.net.t_cs();
  const double lam = c.scale * lambda_g;  // cluster's per-node rate
  const double lambda_int = (1.0 - c.p_out) * lam;  // per-NIC rate

  SegmentResult out;
  std::vector<PhysStage>& phys = scratch.phys;
  for (int j = 1; j <= c.height; ++j) {
    phys.clear();
    phys.push_back({tcn, lambda_int});  // injection channel
    // Up then down boundaries; a boundary-l channel carries the cluster's
    // internal traffic whose NCA lies above l, spread over N_i channels:
    // rate = Lambda * Pr(j' > l) / N_i = lambda_int * tail[l].
    for (int l = 1; l < j; ++l)
      phys.push_back(
          {tcs, lambda_int * c.hop_tail[static_cast<std::size_t>(l)]});
    for (int l = j - 1; l >= 1; --l)
      phys.push_back(
          {tcs, lambda_int * c.hop_tail[static_cast<std::size_t>(l)]});
    phys.push_back({tcn, lambda_int});  // ejection channel
    double zero_load = 0.0;
    const RecursionResult rec =
        run_stages(phys, params_.message_flits, flow_, zero_load);
    out.stable = out.stable && rec.stable;
    const double pj = c.hop_prob[static_cast<std::size_t>(j - 1)];
    out.s_mean += pj * rec.s0;
    out.s_zero += pj * zero_load;
    out.r_mean += pj * pipeline_r(2 * j, c.net, flow_);
  }
  return out;
}

RefinedModel::SegmentResult RefinedModel::ecn1_outbound_segment(
    int cluster, double lambda_g, Scratch& scratch) const {
  const ClusterCache& c = clusters_[static_cast<std::size_t>(cluster)];
  const double tcn = c.net.t_cn();
  const double tcs = c.net.t_cs();
  const double per_node = c.p_out * (c.scale * lambda_g);
  const double funnel = c.nodes * per_node;  // whole cluster's outbound

  SegmentResult out;
  std::vector<PhysStage>& phys = scratch.phys;
  for (int j = 1; j <= c.height; ++j) {
    phys.clear();
    phys.push_back({tcn, per_node});
    // Ascending toward the concentrator, d-mod-k picks port 0 everywhere,
    // so the boundary-l channel carries the outbound traffic of the whole
    // level-l source group: k^l * per_node.
    for (int l = 1; l < j; ++l)
      phys.push_back(
          {tcs,
           static_cast<double>(c.k_pow[static_cast<std::size_t>(l)]) *
               per_node});
    // Descending into the concentrator's leaf: the boundary-l channel is
    // the single chain link carrying all outbound whose source lies
    // outside the concentrator's level-l group: (N_i - k^l) * per_node.
    for (int l = j - 1; l >= 1; --l)
      phys.push_back(
          {tcs,
           (c.nodes -
            static_cast<double>(c.k_pow[static_cast<std::size_t>(l)])) *
               per_node});
    phys.push_back({tcn, funnel});  // ejection into the concentrator
    double zero_load = 0.0;
    const RecursionResult rec =
        run_stages(phys, params_.message_flits, flow_, zero_load);
    out.stable = out.stable && rec.stable;
    const double pj = c.conc_prob[static_cast<std::size_t>(j - 1)];
    out.s_mean += pj * rec.s0;
    out.s_zero += pj * zero_load;
    out.r_mean += pj * pipeline_r(2 * j, c.net, flow_);
  }
  return out;
}

RefinedModel::SegmentResult RefinedModel::icn2_segment(
    int i, int v, double lambda_g, Scratch& scratch) const {
  const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
  const ClusterCache& cv = clusters_[static_cast<std::size_t>(v)];
  const double tcn = icn2_params_.t_cn();
  const double tcs = icn2_params_.t_cs();
  // conc_i outbound / conc_v inbound, load-scale-weighted.
  const double out_rate = ci.nodes * ci.p_out * (ci.scale * lambda_g);
  const double in_rate = cv.in_coeff * lambda_g;

  // Exact distance between the two concentrators in the ICN2 tree.
  const int h = icn2_->nca_level(static_cast<topo::EndpointId>(i),
                                 static_cast<topo::EndpointId>(v));
  std::vector<PhysStage>& phys = scratch.phys;
  phys.clear();
  phys.push_back({tcn, out_rate});
  // Ascending and descending rates use the precomputed exact d-mod-k
  // funnel coefficients (see the constructor): the down chain toward
  // conc_v aggregates the inbound traffic of v's whole ICN2 leaf group —
  // the true system bottleneck when large clusters share a leaf.
  for (int l = 1; l < h; ++l)
    phys.push_back({tcs, icn2_up_coeff_[static_cast<std::size_t>(i)]
                                       [static_cast<std::size_t>(l)] *
                             lambda_g});
  for (int l = h - 1; l >= 1; --l)
    phys.push_back({tcs, icn2_down_coeff_[static_cast<std::size_t>(v)]
                                         [static_cast<std::size_t>(l)] *
                             lambda_g});
  phys.push_back({tcn, in_rate});

  SegmentResult out;
  double zero_load = 0.0;
  const RecursionResult rec =
      run_stages(phys, params_.message_flits, flow_, zero_load);
  out.stable = rec.stable;
  out.s_mean = rec.s0;
  out.s_zero = zero_load;
  out.r_mean =
      pipeline_r(static_cast<int>(phys.size()), icn2_params_, flow_);
  return out;
}

RefinedModel::SegmentResult RefinedModel::ecn1_inbound_segment(
    int cluster, double lambda_g, Scratch& scratch) const {
  const ClusterCache& c = clusters_[static_cast<std::size_t>(cluster)];
  const double tcn = c.net.t_cn();
  const double tcs = c.net.t_cs();
  const double funnel = c.in_coeff * lambda_g;  // dispatcher inbound
  const double per_node = c.in_per_node * lambda_g;

  SegmentResult out;
  std::vector<PhysStage>& phys = scratch.phys;
  for (int j = 1; j <= c.height; ++j) {
    phys.clear();
    phys.push_back({tcn, funnel});  // dispatcher injection channel
    // Ascending from the concentrator's leaf, spread over destinations:
    // 1/k^l of the inbound flow shares each boundary-l channel.
    for (int l = 1; l < j; ++l)
      phys.push_back(
          {tcs,
           funnel * c.conc_tail[static_cast<std::size_t>(l)] /
               static_cast<double>(c.k_pow[static_cast<std::size_t>(l)])});
    // Descending to the destination node: generic down channels, inbound
    // flow spread over the N_i channels of each boundary.
    for (int l = j - 1; l >= 1; --l)
      phys.push_back(
          {tcs, per_node * c.conc_tail[static_cast<std::size_t>(l)]});
    phys.push_back({tcn, per_node});
    double zero_load = 0.0;
    const RecursionResult rec =
        run_stages(phys, params_.message_flits, flow_, zero_load);
    out.stable = out.stable && rec.stable;
    const double pj = c.conc_prob[static_cast<std::size_t>(j - 1)];
    out.s_mean += pj * rec.s0;
    out.s_zero += pj * zero_load;
    out.r_mean += pj * pipeline_r(2 * j, c.net, flow_);
  }
  return out;
}

std::vector<RefinedModel::SegmentResult> RefinedModel::icn2_averages(
    double lambda_g, Scratch& scratch) const {
  const int c_count = config_.cluster_count();
  std::vector<SegmentResult> avg(static_cast<std::size_t>(c_count));
  // Adds the (i, v) leg with its uniform-destination weight N_v/(N - N_i).
  // Each source's terms arrive in increasing v on both ICN2 paths.
  const auto add = [&](int i, int v, const SegmentResult& leg) {
    const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
    const ClusterCache& cv = clusters_[static_cast<std::size_t>(v)];
    const double w = cv.nodes / (total_nodes_ - ci.nodes);
    SegmentResult& a = avg[static_cast<std::size_t>(i)];
    a.s_mean += w * leg.s_mean;
    a.s_zero += w * leg.s_zero;
    a.r_mean += w * leg.r_mean;
    a.stable = a.stable && leg.stable;
  };

  if (!icn2_graph_) {
    // Fat tree: the leg is a pair-class property, one segment per class.
    std::vector<SegmentResult> class_legs;
    class_legs.reserve(icn2_pairs_.rep.size());
    for (const auto& [i, v] : icn2_pairs_.rep)
      class_legs.push_back(icn2_segment(i, v, lambda_g, scratch));
    for (int i = 0; i < c_count; ++i)
      for (int v = 0; v < c_count; ++v)
        if (v != i) add(i, v, class_legs[icn2_pairs_(i, v)]);
    return avg;
  }

  // Graph ICN2: every channel's rate is its routing-table flow coefficient
  // (graph_load.hpp). Per destination, one recursion step per suffix-tree
  // node, parents first: each pair's whole-route node then holds what
  // run_stages returns for its route [injection, switch route, ejection],
  // bit for bit (DESIGN.md §3.2).
  const double tcn = icn2_params_.t_cn();
  const double tcs = icn2_params_.t_cs();
  std::vector<SuffixNode>& nodes = scratch.suffix;
  std::size_t pair = 0;
  for (int v = 0; v < c_count; ++v) {
    const auto parents = icn2_suffixes_.parents(static_cast<std::size_t>(v));
    const auto channels =
        icn2_suffixes_.channels(static_cast<std::size_t>(v));
    nodes.resize(parents.size());
    for (std::size_t k = 0; k < parents.size(); ++k) {
      SuffixNode& node = nodes[k];
      node = parents[k] < 0 ? SuffixNode{}
                            : nodes[static_cast<std::size_t>(parents[k])];
      const topo::ChannelId c = channels[k];
      const topo::ChannelKind kind = icn2_graph_->channel(c).kind;
      const bool endpoint = kind == topo::ChannelKind::kInjection ||
                            kind == topo::ChannelKind::kEjection;
      node.base = occupancy(endpoint ? tcn : tcs, node.suffix_max,
                            params_.message_flits, flow_);
      node.s = recursion_step(
          {node.base, icn2_coeff_[static_cast<std::size_t>(c)] * lambda_g},
          WaitModel::kResidual, node.state);
    }
    for (int i = 0; i < c_count; ++i) {
      if (i == v) continue;
      const GraphLeg& leg = icn2_graph_legs_[pair++];
      const SuffixNode& node = nodes[static_cast<std::size_t>(leg.node)];
      add(i, v,
          {node.s, node.base, pipeline_r(leg.stages, icn2_params_, flow_),
           node.state.stable});
    }
  }
  return avg;
}

std::vector<ClusterBreakdown> RefinedModel::evaluate_stations(
    double lambda_g) const {
  const int c_count = config_.cluster_count();

  // One station term from a segment's journey stats: Eq. (16)'s wait with
  // the Draper-Ghosh variance.
  const auto station = [](double lambda, const SegmentResult& s) {
    StationTerm t;
    t.present = lambda > 0.0;
    t.lambda = lambda;
    t.s_mean = s.s_mean;
    t.s_zero = s.s_zero;
    t.r_mean = s.r_mean;
    t.wait =
        mg1_wait(lambda, s.s_mean, draper_ghosh_variance(s.s_mean, s.s_zero));
    t.rho = lambda * s.s_mean;
    t.stable = s.stable && std::isfinite(t.wait);
    return t;
  };

  Scratch scratch;
  const std::vector<SegmentResult> icn2_legs =
      icn2_averages(lambda_g, scratch);

  std::vector<ClusterBreakdown> out(static_cast<std::size_t>(c_count));
  for (int i = 0; i < c_count; ++i) {
    const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
    const double lam = ci.scale * lambda_g;  // cluster's per-node rate
    ClusterBreakdown& cb = out[static_cast<std::size_t>(i)];
    cb.cluster = i;
    cb.p_outgoing = ci.p_out;

    // Station 0 — source ICN1 NIC (internal messages).
    cb.stations[0] = station((1.0 - ci.p_out) * lam,
                             internal_segment(i, lambda_g, scratch));

    // Station 1 — source ECN1 NIC (external leg 1).
    cb.stations[1] = station(ci.p_out * lam,
                             ecn1_outbound_segment(i, lambda_g, scratch));

    // Station 2 — concentrator: arrivals are the cluster's whole outbound
    // flow; service is the destination-averaged ICN2 leg.
    cb.stations[2] = station(ci.nodes * ci.p_out * lam,
                             icn2_legs[static_cast<std::size_t>(i)]);
    if (c_count == 1) cb.stations[2].present = false;

    // Station 3 — dispatcher of cluster i as DESTINATION: the inbound
    // rate coefficient times the global rate.
    cb.stations[3] = station(ci.in_coeff * lambda_g,
                             ecn1_inbound_segment(i, lambda_g, scratch));

    for (const StationTerm& t : cb.stations)
      if (t.present) cb.stable = cb.stable && t.stable;
  }
  return out;
}

ModelBreakdown RefinedModel::breakdown(double lambda_g) const {
  MCS_EXPECTS(lambda_g >= 0.0);
  ModelBreakdown out;
  out.lambda_g = lambda_g;
  out.clusters = evaluate_stations(lambda_g);
  for (const ClusterBreakdown& cb : out.clusters)
    out.stable = out.stable && cb.stable;

  // System aggregates: weight each cluster's station by its share of the
  // traffic that station serves — internal messages for the ICN1 NIC,
  // external messages for the ECN1 NIC and the concentrator, inbound
  // arrivals for the dispatcher. These equal the measured per-leg count
  // shares, so system terms compare against the anatomy's station means.
  for (int k = 0; k < kBreakdownStations; ++k) {
    StationTerm agg;
    double total_w = 0.0;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      const ClusterCache& ci = clusters_[i];
      const StationTerm& t = out.clusters[i].stations[k];
      if (!t.present) continue;
      double w = 0.0;
      switch (k) {
        case 0: w = ci.nodes * ci.scale * (1.0 - ci.p_out); break;
        case 1:
        case 2: w = ci.nodes * ci.scale * ci.p_out; break;
        case 3: w = ci.in_coeff; break;
        default: break;
      }
      if (!(w > 0.0)) continue;
      total_w += w;
      agg.lambda += w * t.lambda;
      agg.s_mean += w * t.s_mean;
      agg.s_zero += w * t.s_zero;
      agg.r_mean += w * t.r_mean;
      agg.wait += w * t.wait;
      agg.rho += w * t.rho;
      agg.stable = agg.stable && t.stable;
    }
    if (total_w > 0.0) {
      agg.present = true;
      agg.lambda /= total_w;
      agg.s_mean /= total_w;
      agg.s_zero /= total_w;
      agg.r_mean /= total_w;
      agg.wait /= total_w;
      agg.rho /= total_w;
    }
    out.system[k] = agg;
  }
  return out;
}

LatencyPrediction RefinedModel::predict(double lambda_g) const {
  MCS_EXPECTS(lambda_g >= 0.0);
  LatencyPrediction prediction;
  prediction.lambda_g = lambda_g;
  const int c_count = config_.cluster_count();
  const std::vector<ClusterBreakdown> stations = evaluate_stations(lambda_g);

  double weighted = 0.0;
  for (int i = 0; i < c_count; ++i) {
    const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
    const StationTerm* st = stations[static_cast<std::size_t>(i)].stations;
    ClusterLatency cl;
    cl.p_outgoing = ci.p_out;

    // Internal messages: the source ICN1 NIC's residence.
    cl.s_internal = st[0].s_mean;
    cl.w_source_internal = st[0].wait;
    cl.t_internal = st[0].residence();
    cl.stable = st[0].stable && std::isfinite(cl.t_internal);

    // External messages: ECN1 NIC, concentrator, then the destination's
    // dispatcher and inbound leg, v-averaged with weights N_v / (N - N_i).
    cl.w_source_external = st[1].wait;
    cl.stable = cl.stable && st[1].stable && st[2].stable;
    double t_tail = 0.0;
    double w_disp_avg = 0.0;
    for (int v = 0; v < c_count; ++v) {
      if (v == i) continue;
      const ClusterCache& cv = clusters_[static_cast<std::size_t>(v)];
      const double w = cv.nodes / (total_nodes_ - ci.nodes);
      const StationTerm& disp =
          stations[static_cast<std::size_t>(v)].stations[3];
      cl.stable = cl.stable && disp.stable;
      t_tail += w * disp.residence();
      w_disp_avg += w * disp.wait;
    }
    cl.w_conc_disp = st[2].wait + w_disp_avg;
    cl.s_external = st[1].s_mean + st[2].s_mean;  // plus seg3 inside t_tail
    cl.t_external = st[1].residence() + st[2].wait + st[2].s_mean +
                    st[2].r_mean + t_tail;
    cl.stable = cl.stable && std::isfinite(cl.t_external);

    cl.latency = (1.0 - ci.p_out) * cl.t_internal + ci.p_out * cl.t_external;
    prediction.stable = prediction.stable && cl.stable;
    // Eq. (36) generalized: weight by each cluster's share of generated
    // messages, N_i * scale_i / sum_j N_j * scale_j (the plain node mix
    // when the load is uniform).
    weighted += (ci.nodes * ci.scale / gen_weight_) * cl.latency;
    prediction.clusters.push_back(cl);
  }
  prediction.mean_latency = weighted;
  if (!std::isfinite(prediction.mean_latency)) prediction.stable = false;
  return prediction;
}

}  // namespace mcs::model
