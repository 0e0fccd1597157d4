// Generic directed channel graph with deterministic, deadlock-free minimal
// routing — the pluggable ICN2 substrate behind the torus, dragonfly and
// random-regular generators.
//
// A ChannelGraph is a set of switches joined by bidirectional links (each
// link is a pair of opposed unidirectional channels) plus endpoints
// attached to switches through injection/ejection channels. Routing is
// Up*/Down* over a BFS spanning tree rooted at switch 0 (Autonet-style,
// the standard deadlock-free scheme for irregular networks): every
// switch-to-switch channel is oriented "up" when it moves toward the root
// — strictly decreasing (depth, id) — and a legal path traverses zero or
// more up channels followed by zero or more down channels. Because up
// hops strictly decrease (depth, id) and down hops strictly increase it,
// the channel-dependency graph of any route set is acyclic, so wormhole
// worms cannot deadlock (verified by a census in the tests).
//
// build_routes() precomputes, for every ordered switch pair, the
// lexicographically-first *shortest legal* path: a BFS over (switch,
// phase) states with adjacency scanned in channel-creation order, so
// routes are minimal within the Up*/Down* path space and bit-reproducible
// across rebuilds. On a tree-structured graph this coincides with globally
// minimal routing; on cyclic graphs (torus rings, dragonfly global links)
// a route may exceed the unconstrained shortest distance — the price of
// deadlock freedom without virtual channels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/network.hpp"

namespace mcs::topo {

class ChannelGraph final : public Network {
 public:
  /// A graph over `switches` switches and no links/endpoints yet.
  explicit ChannelGraph(int switches, std::string name = "graph");

  /// Add a bidirectional link a <-> b (two opposed channels). Self-loops
  /// and repeated pairs are rejected. Invalidates built routes.
  void add_link(SwitchId a, SwitchId b);

  /// Attach an endpoint to `s` (injection + ejection channel); returns its
  /// id. Invalidates built routes.
  EndpointId attach_endpoint(SwitchId s);

  /// Compute the Up*/Down* orientation and all-pairs routing tables.
  /// Throws mcs::ConfigError when the switch graph is not connected or no
  /// endpoint was attached. Must be called before routing.
  void build_routes();

  // --- Network interface --------------------------------------------------
  [[nodiscard]] EndpointId total_endpoints() const override {
    return static_cast<EndpointId>(endpoint_switch_.size());
  }
  [[nodiscard]] std::size_t channel_count() const override {
    return channels_.size();
  }
  [[nodiscard]] const Channel& channel(ChannelId id) const override {
    return channels_[static_cast<std::size_t>(id)];
  }
  int route_into(EndpointId src, EndpointId dst,
                 std::vector<ChannelId>& out) const override;
  [[nodiscard]] int max_route_length() const override;
  /// BFS depth of the Up*/Down* orientation (root switch 0 is depth 0).
  [[nodiscard]] int switch_level(SwitchId s) const override;

  // --- structure ----------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int switch_count() const { return switches_; }
  /// Bidirectional switch-to-switch links (channel pairs).
  [[nodiscard]] int link_count() const { return links_; }
  /// Link degree of a switch (endpoints not counted).
  [[nodiscard]] int degree(SwitchId s) const;
  [[nodiscard]] SwitchId endpoint_switch(EndpointId e) const {
    return endpoint_switch_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] ChannelId injection_channel(EndpointId e) const {
    return inj_channel_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] ChannelId ejection_channel(EndpointId e) const {
    return ej_channel_[static_cast<std::size_t>(e)];
  }
  /// True when the channel moves toward the Up*/Down* root: strictly
  /// decreasing (depth, switch id). Requires build_routes().
  [[nodiscard]] bool is_up(ChannelId c) const;
  /// Switch-to-switch hops of the route src -> dst (route length minus
  /// injection and ejection). Requires build_routes().
  [[nodiscard]] int switch_hops(EndpointId src, EndpointId dst) const;

 private:
  [[nodiscard]] const std::vector<ChannelId>& table_route(SwitchId s,
                                                          SwitchId t) const;

  std::string name_;
  int switches_ = 0;
  int links_ = 0;
  bool built_ = false;

  std::vector<Channel> channels_;
  /// Per switch, outgoing switch-to-switch channels in creation order —
  /// the deterministic BFS scan order.
  std::vector<std::vector<ChannelId>> out_channels_;
  std::vector<SwitchId> endpoint_switch_;
  std::vector<ChannelId> inj_channel_;
  std::vector<ChannelId> ej_channel_;

  std::vector<std::int32_t> depth_;  ///< BFS depth from switch 0
  /// Switch-level routing table: routes_[s * switches_ + t] is the channel
  /// sequence from switch s to switch t (empty when s == t).
  std::vector<std::vector<ChannelId>> routes_;
  int max_route_length_ = 0;
};

}  // namespace mcs::topo
