#include "model/graph_load.hpp"

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::model {

std::vector<double> inbound_coefficients(const topo::SystemConfig& config,
                                         const std::vector<double>& out) {
  const int c_count = config.cluster_count();
  MCS_EXPECTS(out.size() == static_cast<std::size_t>(c_count));
  if (!config.heterogeneous_load()) return out;

  const auto n_total = static_cast<double>(config.total_nodes());
  std::vector<double> in(static_cast<std::size_t>(c_count), 0.0);
  for (int v = 0; v < c_count; ++v) {
    double sum = 0.0;
    for (int i = 0; i < c_count; ++i) {
      if (i == v) continue;
      sum += out[static_cast<std::size_t>(i)] *
             static_cast<double>(config.cluster_size(v)) /
             (n_total - static_cast<double>(config.cluster_size(i)));
    }
    in[static_cast<std::size_t>(v)] = sum;
  }
  return in;
}

GraphLoad GraphLoad::compute(const topo::Network& graph,
                             const topo::SystemConfig& config,
                             const std::vector<double>& p_outgoing,
                             const std::vector<double>& inter_override) {
  const int c_count = config.cluster_count();
  MCS_EXPECTS(graph.total_endpoints() >= c_count);
  MCS_EXPECTS(p_outgoing.empty() ||
              p_outgoing.size() == static_cast<std::size_t>(c_count));
  MCS_EXPECTS(inter_override.empty() ||
              inter_override.size() ==
                  static_cast<std::size_t>(c_count) *
                      static_cast<std::size_t>(c_count));
  const auto n_total = static_cast<double>(config.total_nodes());

  GraphLoad load;
  load.coeff.assign(graph.channel_count(), 0.0);
  for (int i = 0; i < c_count; ++i) {
    const double po = p_outgoing.empty()
                          ? config.p_outgoing(i)
                          : p_outgoing[static_cast<std::size_t>(i)];
    // Weight by the cluster's offered-load multiplier: a hot-spot cluster
    // pushes proportionally more flow onto every channel its routes cross
    // (exact multiply by 1.0 on uniform-load configs).
    load.out_coeff.push_back(static_cast<double>(config.cluster_size(i)) *
                             po * config.cluster_load_scale(i));
  }

  load.inter.assign(static_cast<std::size_t>(c_count) *
                        static_cast<std::size_t>(c_count),
                    0.0);
  for (int i = 0; i < c_count; ++i) {
    const auto ni = static_cast<double>(config.cluster_size(i));
    for (int v = 0; v < c_count; ++v) {
      if (v == i) continue;
      const auto idx = static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(c_count) +
                       static_cast<std::size_t>(v);
      load.inter[idx] =
          inter_override.empty()
              ? load.out_coeff[static_cast<std::size_t>(i)] *
                    static_cast<double>(config.cluster_size(v)) /
                    (n_total - ni)
              : inter_override[idx];
    }
  }

  std::vector<topo::ChannelId> path;
  for (int i = 0; i < c_count; ++i) {
    for (int v = 0; v < c_count; ++v) {
      if (v == i) continue;
      const double rate = load.inter[static_cast<std::size_t>(i) *
                                         static_cast<std::size_t>(c_count) +
                                     static_cast<std::size_t>(v)];
      if (rate == 0.0) continue;
      path.clear();
      graph.route_into(static_cast<topo::EndpointId>(i),
                       static_cast<topo::EndpointId>(v), path);
      for (const topo::ChannelId c : path)
        load.coeff[static_cast<std::size_t>(c)] += rate;
    }
  }
  return load;
}

}  // namespace mcs::model
