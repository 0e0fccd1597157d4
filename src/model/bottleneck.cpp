#include "model/bottleneck.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "model/graph_load.hpp"
#include "topology/tree_math.hpp"
#include "util/contracts.hpp"

namespace mcs::model {

const char* to_string(NetworkLayer layer) {
  switch (layer) {
    case NetworkLayer::kIcn1: return "ICN1";
    case NetworkLayer::kEcn1: return "ECN1";
    case NetworkLayer::kIcn2: return "ICN2";
  }
  return "?";
}

namespace {

struct Acc {
  std::int64_t channels = 0;
  double total = 0.0;       ///< messages/time summed over the class
  double total_util = 0.0;  ///< rate x owning network's occupancy, summed
  double worst = 0.0;       ///< rate of the worst channel (by utilization)
  double worst_util = 0.0;
  std::string worst_desc;
};

}  // namespace

std::vector<ClassLoad> analyze_bottlenecks(const topo::SystemConfig& config,
                                           const NetworkParams& params,
                                           double lambda_g) {
  config.validate();
  params.validate();
  MCS_EXPECTS(lambda_g >= 0.0);

  // Wormhole occupancy per message — the body drains at the slowest
  // channel's rhythm — per network technology: a class aggregates the
  // same structural position across clusters, so utilization must be
  // computed at add time from the owning network's occupancy.
  const auto occupancy_of = [&](const NetworkParams& p) {
    return p.message_flits * std::max(p.t_cs(), p.t_cn());
  };
  const double occ_icn2 = occupancy_of(config.icn2_params(params));

  std::map<std::tuple<int, int, int>, Acc> acc;
  auto add = [&](NetworkLayer net, topo::ChannelKind kind, int level,
                 std::int64_t channels, double total, double worst,
                 double occupancy, const std::string& desc) {
    Acc& a = acc[{static_cast<int>(net), static_cast<int>(kind), level}];
    a.channels += channels;
    a.total += total;
    a.total_util += total * occupancy;
    if (worst * occupancy > a.worst_util) {
      a.worst = worst;
      a.worst_util = worst * occupancy;
      a.worst_desc = desc;
    }
  };

  // Per-cluster outbound flow (load-scale-weighted) and its inbound
  // counterpart — under skewed load the latter is the explicit matrix sum
  // shared with RefinedModel::in_coeff (inbound_coefficients, DESIGN.md
  // §10).
  const int c_count = config.cluster_count();
  std::vector<double> out_funnel(static_cast<std::size_t>(c_count));
  for (int i = 0; i < c_count; ++i)
    out_funnel[static_cast<std::size_t>(i)] =
        static_cast<double>(config.cluster_size(i)) * config.p_outgoing(i) *
        (config.cluster_load_scale(i) * lambda_g);
  const std::vector<double> in_funnel =
      inbound_coefficients(config, out_funnel);

  using topo::ChannelKind;
  for (int i = 0; i < c_count; ++i) {
    const topo::TreeShape shape{
        config.m, config.cluster_heights[static_cast<std::size_t>(i)]};
    const auto ni = static_cast<double>(shape.node_count());
    const double po = config.p_outgoing(i);
    // Per-node rate scaled by the cluster's load multiplier (exact 1.0
    // multiply on uniform-load configs).
    const double lam = config.cluster_load_scale(i) * lambda_g;
    const double node_int = (1.0 - po) * lam;       // per ICN1 NIC
    const double node_ext = po * lam;               // per ECN1 NIC
    const double out_f = out_funnel[static_cast<std::size_t>(i)];
    const double in_f = in_funnel[static_cast<std::size_t>(i)];
    const double node_in = in_f / ni;               // per node ejection
    const double occ = occupancy_of(config.cluster_params(i, params));
    const auto hop_tail = topo::tail_of(shape.hop_distribution());
    const auto conc_tail =
        topo::tail_of(topo::concentrator_hop_distribution(shape));
    const std::string cname = "cluster of " +
                              std::to_string(shape.node_count()) + " nodes";

    // ICN1: perfectly balanced within each class.
    add(NetworkLayer::kIcn1, ChannelKind::kInjection, 0,
        shape.node_count(), ni * node_int, node_int, occ,
        "node NIC, " + cname);
    add(NetworkLayer::kIcn1, ChannelKind::kEjection, 0, shape.node_count(),
        ni * node_int, node_int, occ, "node, " + cname);
    for (int l = 1; l < shape.n; ++l) {
      const double per_channel =
          node_int * hop_tail[static_cast<std::size_t>(l)];
      add(NetworkLayer::kIcn1, ChannelKind::kUp, l, shape.node_count(),
          ni * per_channel, per_channel, occ, "switch link, " + cname);
      add(NetworkLayer::kIcn1, ChannelKind::kDown, l, shape.node_count(),
          ni * per_channel, per_channel, occ, "switch link, " + cname);
    }

    // ECN1: the concentrator/dispatcher attachment and the d-mod-k chain
    // toward the concentrator are serial funnels. Outbound flows funnel
    // into the concentrator; inbound (the dispatcher's re-injections)
    // funnel out of it.
    add(NetworkLayer::kEcn1, ChannelKind::kInjection, 0,
        shape.node_count() + 1, ni * node_ext + in_f, in_f, occ,
        "dispatcher injection, " + cname);
    add(NetworkLayer::kEcn1, ChannelKind::kEjection, 0,
        shape.node_count() + 1, in_f + out_f, out_f, occ,
        "concentrator ejection, " + cname);
    for (int l = 1; l < shape.n; ++l) {
      const double crossing =
          (out_f + in_f) * conc_tail[static_cast<std::size_t>(l)];
      const auto k_l = static_cast<double>(
          topo::checked_pow(shape.k(), l));
      const double worst_up = std::max(
          k_l * node_ext,  // outbound port-0 chain of a level-l group
          in_f * conc_tail[static_cast<std::size_t>(l)] / k_l);
      const double worst_down =
          std::max((ni - k_l) * node_ext,
                   node_in * conc_tail[static_cast<std::size_t>(l)]);
      add(NetworkLayer::kEcn1, ChannelKind::kUp, l, shape.node_count(),
          crossing, worst_up, occ, "ascent chain, " + cname);
      add(NetworkLayer::kEcn1, ChannelKind::kDown, l, shape.node_count(),
          crossing, worst_down, occ,
          "descent chain into concentrator, " + cname);
    }
  }

  // ICN2: per-channel flow from the routing tables (GraphLoad), for the
  // fat tree and the graph kinds alike, grouped into (kind, level)
  // classes. A class's worst rate is its routed per-channel maximum; the
  // hottest channel is named by the cluster sending (injection, ascent)
  // or receiving (ejection, descent) the most flow through it.
  const std::unique_ptr<topo::Network> icn2 = topo::make_icn2(config);
  const GraphLoad flow = GraphLoad::compute(*icn2, config);
  struct Icn2Class {
    std::int64_t channels = 0;
    double total = 0.0;
    std::size_t worst = 0;  ///< channel id of the routed maximum
  };
  std::map<std::pair<int, int>, Icn2Class> icn2_classes;
  for (std::size_t c = 0; c < icn2->channel_count(); ++c) {
    const topo::Channel& ch = icn2->channel(static_cast<topo::ChannelId>(c));
    Icn2Class& cls = icn2_classes[{static_cast<int>(ch.kind), ch.level}];
    if (cls.channels++ == 0 || flow.coeff[c] > flow.coeff[cls.worst])
      cls.worst = c;
    cls.total += flow.coeff[c];
  }
  const auto from_source = [](ChannelKind kind) {
    return kind == ChannelKind::kInjection || kind == ChannelKind::kUp;
  };
  // Per-cluster flow through each class's worst channel.
  std::map<std::size_t, std::vector<double>> share;
  for (const auto& [key, cls] : icn2_classes)
    share[cls.worst].assign(static_cast<std::size_t>(c_count), 0.0);
  std::vector<topo::ChannelId> path;
  for (int i = 0; i < c_count; ++i) {
    for (int v = 0; v < c_count; ++v) {
      if (v == i) continue;
      path.clear();
      icn2->route_into(static_cast<topo::EndpointId>(i),
                       static_cast<topo::EndpointId>(v), path);
      for (const topo::ChannelId c : path) {
        const auto it = share.find(static_cast<std::size_t>(c));
        if (it == share.end()) continue;
        const int cluster = from_source(icn2->channel(c).kind) ? i : v;
        it->second[static_cast<std::size_t>(cluster)] +=
            flow.inter[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(c_count) +
                       static_cast<std::size_t>(v)];
      }
    }
  }
  // Indexed by ChannelKind.
  const char* const verb[] = {"injection from", "ejection toward",
                              "ascent from", "descent toward"};
  for (const auto& [key, cls] : icn2_classes) {
    const auto kind = static_cast<ChannelKind>(key.first);
    const std::vector<double>& by_cluster = share[cls.worst];
    const auto top = static_cast<int>(
        std::max_element(by_cluster.begin(), by_cluster.end()) -
        by_cluster.begin());
    add(NetworkLayer::kIcn2, kind, key.second, cls.channels,
        cls.total * lambda_g, flow.coeff[cls.worst] * lambda_g, occ_icn2,
        std::string("ICN2 ") + verb[key.first] + " the " +
            std::to_string(config.cluster_size(top)) + "-node cluster");
  }

  std::vector<ClassLoad> out;
  for (const auto& [key, a] : acc) {
    ClassLoad load;
    load.net = static_cast<NetworkLayer>(std::get<0>(key));
    load.kind = static_cast<topo::ChannelKind>(std::get<1>(key));
    load.level = std::get<2>(key);
    load.channels = a.channels;
    load.total_rate = a.total;
    load.mean_rate = a.channels > 0
                         ? a.total / static_cast<double>(a.channels)
                         : 0.0;
    load.worst_rate = a.worst;
    load.mean_utilization = a.channels > 0
                                ? a.total_util /
                                      static_cast<double>(a.channels)
                                : 0.0;
    load.worst_utilization = a.worst_util;
    load.hottest = a.worst_desc;
    out.push_back(std::move(load));
  }
  std::sort(out.begin(), out.end(),
            [](const ClassLoad& a, const ClassLoad& b) {
              return a.worst_utilization > b.worst_utilization;
            });
  return out;
}

double load_at_worst_utilization(const topo::SystemConfig& config,
                                 const NetworkParams& params,
                                 double utilization) {
  MCS_EXPECTS(utilization > 0.0);
  const auto loads = analyze_bottlenecks(config, params, 1.0);
  MCS_ASSERT(!loads.empty());
  const double worst_per_unit = loads.front().worst_utilization;
  MCS_ASSERT(worst_per_unit > 0.0);
  return utilization / worst_per_unit;
}

}  // namespace mcs::model
