#include "topology/graph.hpp"

#include <algorithm>
#include <deque>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::topo {

ChannelGraph::ChannelGraph(int switches, std::string name)
    : name_(std::move(name)), switches_(switches) {
  if (switches < 1)
    throw ConfigError("ChannelGraph '" + name_ +
                      "': need at least one switch");
  out_channels_.resize(static_cast<std::size_t>(switches));
}

void ChannelGraph::add_link(SwitchId a, SwitchId b) {
  MCS_EXPECTS(a >= 0 && a < switches_ && b >= 0 && b < switches_);
  if (a == b)
    throw ConfigError("ChannelGraph '" + name_ + "': self-loop at switch " +
                      std::to_string(a));
  for (const ChannelId c : out_channels_[static_cast<std::size_t>(a)])
    if (channels_[static_cast<std::size_t>(c)].dst_switch == b)
      throw ConfigError("ChannelGraph '" + name_ + "': duplicate link " +
                        std::to_string(a) + " <-> " + std::to_string(b));

  auto add_directed = [&](SwitchId src, SwitchId dst) {
    Channel ch;
    ch.kind = ChannelKind::kUp;  // oriented in build_routes()
    ch.level = 0;
    ch.port = static_cast<std::int16_t>(
        out_channels_[static_cast<std::size_t>(src)].size());
    ch.src_switch = src;
    ch.dst_switch = dst;
    const auto id = static_cast<ChannelId>(channels_.size());
    channels_.push_back(ch);
    out_channels_[static_cast<std::size_t>(src)].push_back(id);
  };
  add_directed(a, b);
  add_directed(b, a);
  ++links_;
  built_ = false;
}

EndpointId ChannelGraph::attach_endpoint(SwitchId s) {
  MCS_EXPECTS(s >= 0 && s < switches_);
  const auto e = static_cast<EndpointId>(endpoint_switch_.size());

  Channel inj;
  inj.kind = ChannelKind::kInjection;
  inj.level = 0;
  inj.port = static_cast<std::int16_t>(e);
  inj.dst_switch = s;
  inj.endpoint = e;
  inj_channel_.push_back(static_cast<ChannelId>(channels_.size()));
  channels_.push_back(inj);

  Channel ej;
  ej.kind = ChannelKind::kEjection;
  ej.level = 0;
  ej.port = static_cast<std::int16_t>(e);
  ej.src_switch = s;
  ej.endpoint = e;
  ej_channel_.push_back(static_cast<ChannelId>(channels_.size()));
  channels_.push_back(ej);

  endpoint_switch_.push_back(s);
  built_ = false;
  return e;
}

int ChannelGraph::degree(SwitchId s) const {
  MCS_EXPECTS(s >= 0 && s < switches_);
  return static_cast<int>(out_channels_[static_cast<std::size_t>(s)].size());
}

bool ChannelGraph::is_up(ChannelId c) const {
  MCS_EXPECTS(built_);
  const Channel& ch = channels_[static_cast<std::size_t>(c)];
  MCS_EXPECTS(!is_node_link(ch.kind));
  const auto ds = depth_[static_cast<std::size_t>(ch.src_switch)];
  const auto dd = depth_[static_cast<std::size_t>(ch.dst_switch)];
  return dd < ds || (dd == ds && ch.dst_switch < ch.src_switch);
}

void ChannelGraph::build_routes() {
  if (endpoint_switch_.empty())
    throw ConfigError("ChannelGraph '" + name_ + "': no endpoints attached");

  // BFS spanning-tree depths from switch 0, scanning channels in creation
  // order (the deterministic tie-break every later step inherits).
  depth_.assign(static_cast<std::size_t>(switches_), -1);
  std::deque<SwitchId> frontier;
  depth_[0] = 0;
  frontier.push_back(0);
  while (!frontier.empty()) {
    const SwitchId u = frontier.front();
    frontier.pop_front();
    for (const ChannelId c : out_channels_[static_cast<std::size_t>(u)]) {
      const SwitchId v = channels_[static_cast<std::size_t>(c)].dst_switch;
      if (depth_[static_cast<std::size_t>(v)] < 0) {
        depth_[static_cast<std::size_t>(v)] =
            depth_[static_cast<std::size_t>(u)] + 1;
        frontier.push_back(v);
      }
    }
  }
  for (int s = 0; s < switches_; ++s)
    if (depth_[static_cast<std::size_t>(s)] < 0)
      throw ConfigError("ChannelGraph '" + name_ +
                        "': switch graph is not connected (switch " +
                        std::to_string(s) + " unreachable)");

  built_ = true;  // is_up is valid from here on

  // Orient the switch channels and tag their boundary level.
  for (Channel& ch : channels_) {
    if (is_node_link(ch.kind)) continue;
    const ChannelId id = static_cast<ChannelId>(&ch - channels_.data());
    ch.kind = is_up(id) ? ChannelKind::kUp : ChannelKind::kDown;
    ch.level = static_cast<std::int16_t>(
        std::min(depth_[static_cast<std::size_t>(ch.src_switch)],
                 depth_[static_cast<std::size_t>(ch.dst_switch)]));
  }

  // All-pairs shortest legal (up* then down*) paths: one BFS per source
  // over (switch, phase) states, phase 0 = still ascending, phase 1 =
  // descending only. FIFO order plus creation-order adjacency makes the
  // chosen path unique and reproducible.
  const auto n_states = static_cast<std::size_t>(switches_) * 2;
  routes_.assign(static_cast<std::size_t>(switches_) *
                     static_cast<std::size_t>(switches_),
                 {});
  std::vector<std::int32_t> dist(n_states);
  std::vector<ChannelId> parent_channel(n_states);
  std::vector<std::int32_t> parent_state(n_states);
  std::deque<std::int32_t> queue;

  for (SwitchId s = 0; s < switches_; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    queue.clear();
    const std::int32_t start = s * 2;
    dist[static_cast<std::size_t>(start)] = 0;
    queue.push_back(start);
    while (!queue.empty()) {
      const std::int32_t state = queue.front();
      queue.pop_front();
      const SwitchId u = state / 2;
      const int phase = state % 2;
      for (const ChannelId c : out_channels_[static_cast<std::size_t>(u)]) {
        const bool up = is_up(c);
        if (phase == 1 && up) continue;  // Up*/Down*: no up after down
        const SwitchId v = channels_[static_cast<std::size_t>(c)].dst_switch;
        const std::int32_t next = v * 2 + (up ? 0 : 1);
        if (dist[static_cast<std::size_t>(next)] >= 0) continue;
        dist[static_cast<std::size_t>(next)] =
            dist[static_cast<std::size_t>(state)] + 1;
        parent_channel[static_cast<std::size_t>(next)] = c;
        parent_state[static_cast<std::size_t>(next)] = state;
        queue.push_back(next);
      }
    }

    for (SwitchId t = 0; t < switches_; ++t) {
      if (t == s) continue;
      const std::int32_t d0 = dist[static_cast<std::size_t>(t) * 2];
      const std::int32_t d1 = dist[static_cast<std::size_t>(t) * 2 + 1];
      // An up-to-root, down-to-t walk is always legal, so t is reachable.
      MCS_ASSERT(d0 >= 0 || d1 >= 0);
      std::int32_t state = static_cast<std::int32_t>(t) * 2;
      if (d0 < 0 || (d1 >= 0 && d1 < d0)) state += 1;
      std::vector<ChannelId>& path =
          routes_[static_cast<std::size_t>(s) *
                      static_cast<std::size_t>(switches_) +
                  static_cast<std::size_t>(t)];
      while (state != start) {
        path.push_back(parent_channel[static_cast<std::size_t>(state)]);
        state = parent_state[static_cast<std::size_t>(state)];
      }
      std::reverse(path.begin(), path.end());
    }
  }

  max_route_length_ = 2;  // injection + ejection, endpoints co-located
  for (const SwitchId a : endpoint_switch_)
    for (const SwitchId b : endpoint_switch_)
      max_route_length_ =
          std::max(max_route_length_,
                   2 + static_cast<int>(table_route(a, b).size()));
}

const std::vector<ChannelId>& ChannelGraph::table_route(SwitchId s,
                                                        SwitchId t) const {
  return routes_[static_cast<std::size_t>(s) *
                     static_cast<std::size_t>(switches_) +
                 static_cast<std::size_t>(t)];
}

int ChannelGraph::route_into(EndpointId src, EndpointId dst,
                             std::vector<ChannelId>& out) const {
  MCS_EXPECTS(built_);
  MCS_EXPECTS(src >= 0 && src < total_endpoints());
  MCS_EXPECTS(dst >= 0 && dst < total_endpoints());
  const std::size_t start = out.size();
  out.push_back(inj_channel_[static_cast<std::size_t>(src)]);
  const std::vector<ChannelId>& mid = table_route(
      endpoint_switch_[static_cast<std::size_t>(src)],
      endpoint_switch_[static_cast<std::size_t>(dst)]);
  out.insert(out.end(), mid.begin(), mid.end());
  out.push_back(ej_channel_[static_cast<std::size_t>(dst)]);
  return static_cast<int>(out.size() - start);
}

int ChannelGraph::max_route_length() const {
  MCS_EXPECTS(built_);
  return max_route_length_;
}

int ChannelGraph::switch_level(SwitchId s) const {
  MCS_EXPECTS(built_);
  MCS_EXPECTS(s >= 0 && s < switches_);
  return depth_[static_cast<std::size_t>(s)];
}

int ChannelGraph::switch_hops(EndpointId src, EndpointId dst) const {
  MCS_EXPECTS(built_);
  return static_cast<int>(
      table_route(endpoint_switch_[static_cast<std::size_t>(src)],
                  endpoint_switch_[static_cast<std::size_t>(dst)])
          .size());
}

}  // namespace mcs::topo
