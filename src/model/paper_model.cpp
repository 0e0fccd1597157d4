#include "model/paper_model.hpp"

#include <cmath>

#include "model/mg1.hpp"
#include "model/service_recursion.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::model {

const char* PaperModel::unsupported_reason(const topo::SystemConfig& config) {
  if (config.icn2.kind != topo::Icn2Kind::kFatTree)
    return "PaperModel: the paper-literal model only covers the fat-tree "
           "ICN2 (use RefinedModel for graph topologies)";
  // Eqs. (3)-(36) assume one network technology and one offered load
  // everywhere (a single t_cn/t_cs pair and a global lambda_g enter every
  // recursion); per-cluster overrides have no faithful reading here.
  if (config.heterogeneous_params())
    return "PaperModel: the paper-literal model assumes one shared network "
           "technology (cluster_net / icn2_net overrides are set; use "
           "RefinedModel)";
  if (config.heterogeneous_load())
    return "PaperModel: the paper-literal model assumes a uniform per-node "
           "load (load_scale is set; use RefinedModel)";
  return nullptr;
}

PaperModel::PaperModel(topo::SystemConfig config, NetworkParams params,
                       std::vector<double> p_out_override)
    : config_(std::move(config)), params_(std::move(params)) {
  config_.validate();
  params_.validate();
  if (const char* reason = unsupported_reason(config_))
    throw ConfigError(reason);
  if (!p_out_override.empty() &&
      p_out_override.size() !=
          static_cast<std::size_t>(config_.cluster_count()))
    throw ConfigError("PaperModel: p_out_override size mismatch");
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
    c.hop_prob = shape.hop_distribution();
    c.d_avg = shape.avg_distance();
    clusters_.push_back(std::move(c));
  }

  // Clusters of equal (height, N, P_o) are interchangeable in a pair.
  const Labels kind =
      classify(config_.cluster_count(), [&](int a, int b) {
        const ClusterCache& ca = clusters_[static_cast<std::size_t>(a)];
        const ClusterCache& cb = clusters_[static_cast<std::size_t>(b)];
        return ca.height == cb.height && same_bits(ca.nodes, cb.nodes) &&
               same_bits(ca.p_out, cb.p_out);
      });
  pairs_ = PairClasses::build(
      config_.cluster_count(), kind.count * kind.count, [&](int i, int v) {
        return kind.of[static_cast<std::size_t>(i)] * kind.count +
               kind.of[static_cast<std::size_t>(v)];
      });

  icn2_height_ = config_.icn2_height();
  const topo::TreeShape icn2{config_.m, icn2_height_};
  icn2_hop_prob_ = icn2.hop_distribution();
  icn2_d_avg_ = icn2.avg_distance();
}

PaperModel::InternalResult PaperModel::internal_latency(
    int cluster, double lambda_g, std::vector<Stage>& stages) const {
  const ClusterCache& c = clusters_[static_cast<std::size_t>(cluster)];
  const double m_tcn = params_.message_flits * params_.t_cn();
  const double m_tcs = params_.message_flits * params_.t_cs();

  // Eq. (5): total message rate into the cluster's ICN1.
  const double lambda_i1 = c.nodes * (1.0 - c.p_out) * lambda_g;
  // Eq. (10): uniform per-channel rate, literal 1/(4 n N) normalization.
  const double eta =
      lambda_i1 * c.d_avg / (4.0 * c.height * c.nodes);

  InternalResult out;
  for (int j = 1; j <= c.height; ++j) {
    const int stage_count = 2 * j - 1;  // K = 2j - 1 (Sec. 3.1.2)
    stages.assign(static_cast<std::size_t>(stage_count), Stage{m_tcs, eta});
    stages.back().base = m_tcn;  // destination stage (Eq. 18)
    const RecursionResult rec = stage_recursion(stages);
    out.stable = out.stable && rec.stable;
    const double pj = c.hop_prob[static_cast<std::size_t>(j - 1)];
    out.s_mean += pj * rec.s0;                                   // Eq. (3)
    out.r_mean += pj * ((stage_count - 1) * params_.t_cs() +
                        params_.t_cn());                         // Eq. (24)
  }

  // Eqs. (19)-(23): M/G/1 source queue. The paper substitutes the whole
  // network's rate lambda_I1 as the arrival rate here (Sec. 3.2).
  const double variance = draper_ghosh_variance(out.s_mean, m_tcn);
  out.w_source = mg1_wait(lambda_i1, out.s_mean, variance);
  if (!std::isfinite(out.w_source)) out.stable = false;
  return out;
}

PaperModel::PairResult PaperModel::pair_latency(
    int i, int v, double lambda_g, std::vector<Stage>& stages) const {
  const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
  const ClusterCache& cv = clusters_[static_cast<std::size_t>(v)];
  const double m_tcn = params_.message_flits * params_.t_cn();
  const double m_tcs = params_.message_flits * params_.t_cs();

  // Eq. (6): ECN1 rate for the (i, v) pair.
  const double lambda_e1 =
      (ci.nodes * ci.p_out + cv.nodes * cv.p_out) * lambda_g;
  // Eq. (7), OCR-resolved (DESIGN.md §3.1): size-weighted symmetric mean;
  // for equal clusters it reduces to one cluster's external rate.
  const double lambda_i2 =
      (ci.nodes * ci.p_out * cv.nodes + cv.nodes * cv.p_out * ci.nodes) *
      lambda_g / (ci.nodes + cv.nodes);

  // Eq. (11): ECN1 channel rate from the source cluster's tree geometry.
  const double eta_e1 = lambda_e1 * ci.d_avg / (4.0 * ci.height * ci.nodes);
  // Eq. (12), literal: the scan divides by 4*n_c only (no C factor).
  const double eta_i2 = lambda_i2 * icn2_d_avg_ / (4.0 * icn2_height_);

  PairResult out;
  // Eqs. (26)-(27): merged (j, l, h) journey, P = P_j * P_l * P_h.
  for (int j = 1; j <= ci.height; ++j) {
    for (int l = 1; l <= cv.height; ++l) {
      for (int h = 1; h <= icn2_height_; ++h) {
        const double p =
            ci.hop_prob[static_cast<std::size_t>(j - 1)] *
            cv.hop_prob[static_cast<std::size_t>(l - 1)] *
            icn2_hop_prob_[static_cast<std::size_t>(h - 1)];
        const int stage_count = j + l + 2 * h - 1;  // K (Sec. 3.3)
        stages.clear();
        for (int k = 0; k < stage_count; ++k) {
          // Eq. (29): ICN2 channels for j <= k < j + 2h - 1, else ECN1.
          const bool icn2_stage = k >= j && k < j + 2 * h - 1;
          stages.push_back(Stage{m_tcs, icn2_stage ? eta_i2 : eta_e1});
        }
        stages.back().base = m_tcn;
        const RecursionResult rec = stage_recursion(stages);
        out.stable = out.stable && rec.stable;
        out.s_mean += p * rec.s0;                               // Eq. (26)
        out.t_external += p * ((stage_count - 1) * params_.t_cs() +
                               params_.t_cn());                 // Eq. (32)
      }
    }
  }
  // At this point t_external holds R̄; add W and S̄ (Eq. 25 analogue).
  // Eq. (30): source-queue wait with the merged-network rate; the scan's
  // lambda_{E1&2} is read as Eq. (7)'s lambda_I2 (DESIGN.md §3.1).
  const double variance = draper_ghosh_variance(out.s_mean, m_tcn);
  out.w_source = mg1_wait(lambda_i2, out.s_mean, variance);
  if (!std::isfinite(out.w_source)) out.stable = false;
  out.t_external += out.w_source + out.s_mean;

  // Eq. (33): concentrate and dispatch buffers, M/D/1 with service M*t_cs;
  // both buffers see the same rate, hence the factor 2 (Eq. 34's inner sum).
  const double w_s = md1_wait(lambda_i2, m_tcs);
  if (!std::isfinite(w_s)) out.stable = false;
  out.w_conc_disp = 2.0 * w_s;
  return out;
}

LatencyPrediction PaperModel::predict(double lambda_g) const {
  MCS_EXPECTS(lambda_g >= 0.0);
  LatencyPrediction prediction;
  prediction.lambda_g = lambda_g;

  const int c_count = config_.cluster_count();
  std::vector<Stage> stages;
  std::vector<PairResult> pair_table;
  pair_table.reserve(pairs_.rep.size());
  for (const auto& [i, v] : pairs_.rep)
    pair_table.push_back(pair_latency(i, v, lambda_g, stages));

  double weighted = 0.0;
  for (int i = 0; i < c_count; ++i) {
    const ClusterCache& ci = clusters_[static_cast<std::size_t>(i)];
    ClusterLatency cl;
    cl.p_outgoing = ci.p_out;

    const InternalResult internal = internal_latency(i, lambda_g, stages);
    cl.w_source_internal = internal.w_source;
    cl.s_internal = internal.s_mean;
    cl.t_internal = internal.w_source + internal.s_mean + internal.r_mean;
    cl.stable = internal.stable;

    // Eqs. (31) and (34): arithmetic averages over destination clusters.
    double t_ext_sum = 0.0;
    double w_cd_sum = 0.0;
    double w_src_sum = 0.0;
    double s_ext_sum = 0.0;
    for (int v = 0; v < c_count; ++v) {
      if (v == i) continue;
      const PairResult& pair = pair_table[pairs_(i, v)];
      t_ext_sum += pair.t_external;
      w_cd_sum += pair.w_conc_disp;
      w_src_sum += pair.w_source;
      s_ext_sum += pair.s_mean;
      cl.stable = cl.stable && pair.stable;
    }
    const double pairs = static_cast<double>(c_count - 1);
    const double t_ext = t_ext_sum / pairs;
    cl.w_conc_disp = w_cd_sum / pairs;
    cl.w_source_external = w_src_sum / pairs;
    cl.s_external = s_ext_sum / pairs;
    // Eq. (35): concentrator/dispatcher waits apply to external messages.
    cl.t_external = t_ext + cl.w_conc_disp;
    cl.latency =
        (1.0 - ci.p_out) * cl.t_internal + ci.p_out * cl.t_external;

    prediction.stable = prediction.stable && cl.stable;
    weighted += (ci.nodes / total_nodes_) * cl.latency;  // Eq. (36)
    prediction.clusters.push_back(cl);
  }
  prediction.mean_latency = weighted;
  if (!std::isfinite(prediction.mean_latency)) prediction.stable = false;
  return prediction;
}

}  // namespace mcs::model
