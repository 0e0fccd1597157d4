#include "sim/layout.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::sim {

SimLayout build_layout(const topo::MultiClusterTopology& topology,
                       const model::NetworkParams& params,
                       RelayMode relay_mode, FlowControl flow_control) {
  SimLayout layout;
  const auto& cfg = topology.config();
  GlobalChannelId base = 0;
  int longest = 0;
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    layout.nets.push_back(Net{NetKind::kIcn1, i, &topology.icn1(i), base});
    layout.icn1_base.push_back(base);
    base += static_cast<GlobalChannelId>(topology.icn1(i).channel_count());
    layout.nets.push_back(Net{NetKind::kEcn1, i, &topology.ecn1(i), base});
    layout.ecn1_base.push_back(base);
    base += static_cast<GlobalChannelId>(topology.ecn1(i).channel_count());
    longest = std::max(longest, 2 * topology.icn1(i).height());
  }
  layout.nets.push_back(Net{NetKind::kIcn2, -1, &topology.icn2(), base});
  layout.icn2_base = base;
  base += static_cast<GlobalChannelId>(topology.icn2().channel_count());
  const int icn2_longest = topology.icn2().max_route_length();
  if (relay_mode == RelayMode::kCutThrough) {
    // One merged worm spans both ECN1 legs plus the ICN2 crossing (the
    // ICN2 route's injection/ejection channels are the concentrator
    // relays, still part of the worm).
    int max_cluster = 0;
    for (int i = 0; i < cfg.cluster_count(); ++i)
      max_cluster = std::max(max_cluster, topology.icn1(i).height());
    longest = std::max(longest, 4 * max_cluster + icn2_longest);
  } else {
    longest = std::max(longest, icn2_longest);
  }

  layout.max_path_len = longest;
  if (flow_control == FlowControl::kWormhole && longest > params.message_flits)
    throw ConfigError(
        "Simulator: message_flits (M=" + std::to_string(params.message_flits) +
        ") is shorter than the longest path (" + std::to_string(longest) +
        " channels); the wormhole engine requires a worm to span its "
        "path (see DESIGN.md)");

  layout.service.resize(static_cast<std::size_t>(base));
  layout.channel_net.assign(static_cast<std::size_t>(base), 0);
  for (std::size_t n = 0; n < layout.nets.size(); ++n) {
    const Net& net = layout.nets[n];
    // The owning network's technology decides the channel timing: cluster
    // networks use the cluster's params, the ICN2 its own. On homogeneous
    // configs every resolution returns params' exact bits, keeping the
    // golden fingerprints unchanged.
    const model::NetworkParams np =
        net.kind == NetKind::kIcn2 ? cfg.icn2_params(params)
                                   : cfg.cluster_params(net.cluster, params);
    const double tcn = np.t_cn();
    const double tcs = np.t_cs();
    for (std::size_t c = 0; c < net.net->channel_count(); ++c) {
      const auto g = static_cast<std::size_t>(net.base) + c;
      layout.channel_net[g] = static_cast<std::int32_t>(n);
      layout.service[g] =
          topo::is_node_link(
              net.net->channel(static_cast<topo::ChannelId>(c)).kind)
              ? tcn
              : tcs;
    }
  }
  return layout;
}

void RouteTables::init(const topo::MultiClusterTopology& topology,
                       const SimLayout& layout) {
  topology_ = &topology;
  layout_ = &layout;
  const int clusters = topology.config().cluster_count();
  icn1_routes_.resize(static_cast<std::size_t>(clusters));
  ecn1_to_conc_.resize(static_cast<std::size_t>(clusters));
  ecn1_from_conc_.resize(static_cast<std::size_t>(clusters));
  for (int i = 0; i < clusters; ++i) {
    const auto size = static_cast<std::size_t>(topology.config().cluster_size(i));
    icn1_routes_[static_cast<std::size_t>(i)].resize(size * size);
    ecn1_to_conc_[static_cast<std::size_t>(i)].resize(size);
    ecn1_from_conc_[static_cast<std::size_t>(i)].resize(size);
  }
  icn2_routes_.resize(static_cast<std::size_t>(clusters) *
                      static_cast<std::size_t>(clusters));
}

std::span<const GlobalChannelId> RouteTables::route_via(
    RouteSlot& slot, const topo::Network& net, GlobalChannelId base,
    topo::EndpointId src, topo::EndpointId dst) {
  if (slot.off < 0) {
    route_scratch_.clear();
    net.route_into(src, dst, route_scratch_);
    slot.off = static_cast<std::int32_t>(pool_.size());
    slot.len = static_cast<std::int16_t>(route_scratch_.size());
    for (const topo::ChannelId c : route_scratch_)
      pool_.push_back(base + c);
  }
  return {pool_.data() + slot.off, static_cast<std::size_t>(slot.len)};
}

std::span<const GlobalChannelId> RouteTables::icn1(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  const auto size =
      static_cast<std::size_t>(topology_->config().cluster_size(m.src_cluster));
  return route_via(
      icn1_routes_[sc][static_cast<std::size_t>(m.src_local) * size +
                       static_cast<std::size_t>(m.dst_local)],
      topology_->icn1(m.src_cluster), layout_->icn1_base[sc], m.src_local,
      m.dst_local);
}

std::span<const GlobalChannelId> RouteTables::ecn1_out(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  return route_via(ecn1_to_conc_[sc][static_cast<std::size_t>(m.src_local)],
                   topology_->ecn1(m.src_cluster), layout_->ecn1_base[sc],
                   m.src_local,
                   topology_->concentrator_endpoint(m.src_cluster));
}

std::span<const GlobalChannelId> RouteTables::icn2(const MsgRec& m) {
  const auto sc = static_cast<std::size_t>(m.src_cluster);
  const auto dc = static_cast<std::size_t>(m.dst_cluster);
  const auto clusters =
      static_cast<std::size_t>(topology_->config().cluster_count());
  return route_via(icn2_routes_[sc * clusters + dc], topology_->icn2(),
                   layout_->icn2_base,
                   topology_->icn2_endpoint(m.src_cluster),
                   topology_->icn2_endpoint(m.dst_cluster));
}

std::span<const GlobalChannelId> RouteTables::ecn1_in(const MsgRec& m) {
  const auto dc = static_cast<std::size_t>(m.dst_cluster);
  return route_via(
      ecn1_from_conc_[dc][static_cast<std::size_t>(m.dst_local)],
      topology_->ecn1(m.dst_cluster), layout_->ecn1_base[dc],
      topology_->concentrator_endpoint(m.dst_cluster), m.dst_local);
}

std::span<const GlobalChannelId> RouteTables::cut_through(const MsgRec& m) {
  // Concatenate the three legs into one worm. The relays act as one-flit
  // buffers along the path instead of full queues. Each cached span is
  // copied before the next lookup (a cache miss may reallocate pool_ and
  // invalidate earlier spans).
  path_scratch_.clear();
  const auto append = [&](std::span<const GlobalChannelId> leg) {
    path_scratch_.insert(path_scratch_.end(), leg.begin(), leg.end());
  };
  append(ecn1_out(m));
  append(icn2(m));
  append(ecn1_in(m));
  return path_scratch_;
}

StopCauseText stop_cause_text(int cause_index) {
  switch (cause_index) {
    case 1: return {"events", "event budget exhausted"};
    case 2: return {"time", "simulated-time budget exhausted"};
    case 3:
      return {"worms",
              "blocked-worm cap exceeded (queues growing without bound)"};
    case 4:
      return {"generated",
              "generation cap exceeded before measured messages drained"};
    case 5:
      return {"drift",
              "measured latency drifting upward (queues growing without "
              "bound)"};
    default: return {"", ""};
  }
}

void collect_channel_classes(const SimLayout& layout,
                             std::span<const double> busy,
                             std::span<const std::uint64_t> traversals,
                             double duration, SimResult& result) {
  if (!(duration > 0.0)) return;

  // Flat (key, accumulator) pairs instead of a std::map: the class count
  // is tiny (network kind x channel kind x level), so a linear probe plus
  // one final sort reproduces the map's (net, kind, level) output order
  // without any node allocation.
  struct Accum {
    std::int64_t key = 0;
    std::size_t channels = 0;
    double util_sum = 0.0;
    double util_max = 0.0;
    double rate_sum = 0.0;
  };
  std::vector<Accum> classes;

  for (std::size_t c = 0; c < layout.channel_count(); ++c) {
    const Net& net = layout.nets[static_cast<std::size_t>(layout.channel_net[c])];
    const auto local = static_cast<topo::ChannelId>(
        static_cast<GlobalChannelId>(c) - net.base);
    const topo::Channel& ch = net.net->channel(local);
    const double util = busy[c] / duration;
    const double rate = static_cast<double>(traversals[c]) / duration;
    // Lexicographic (net, kind, level) packed into one sortable key.
    const std::int64_t key = (static_cast<std::int64_t>(net.kind) << 40) |
                             (static_cast<std::int64_t>(ch.kind) << 32) |
                             static_cast<std::uint32_t>(ch.level);
    auto it = std::find_if(classes.begin(), classes.end(),
                           [&](const Accum& a) { return a.key == key; });
    if (it == classes.end()) {
      classes.push_back(Accum{key, 0, 0.0, 0.0, 0.0});
      it = classes.end() - 1;
    }
    ++it->channels;
    it->util_sum += util;
    it->util_max = std::max(it->util_max, util);
    it->rate_sum += rate;
  }

  std::sort(classes.begin(), classes.end(),
            [](const Accum& a, const Accum& b) { return a.key < b.key; });
  for (const Accum& a : classes) {
    ChannelClassStat stat;
    stat.net = static_cast<NetKind>(a.key >> 40);
    stat.kind = static_cast<topo::ChannelKind>((a.key >> 32) & 0xFF);
    stat.level = static_cast<int>(a.key & 0xFFFFFFFF);
    stat.channels = a.channels;
    stat.mean_utilization = a.util_sum / static_cast<double>(a.channels);
    stat.max_utilization = a.util_max;
    stat.mean_message_rate = a.rate_sum / static_cast<double>(a.channels);
    result.channel_classes.push_back(stat);
  }
}

}  // namespace mcs::sim
