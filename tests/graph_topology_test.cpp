// The pluggable-ICN2 graph subsystem: generator structure, route
// validity, minimality within the Up*/Down* path space (against an
// independent reference BFS), deadlock-freedom of the induced
// channel-dependency graph, and bit-reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "topology/dragonfly.hpp"
#include "topology/graph.hpp"
#include "topology/multi_cluster.hpp"
#include "topology/random_regular.hpp"
#include "topology/torus.hpp"
#include "util/error.hpp"

namespace mcs::topo {
namespace {

std::vector<ChannelGraph> generator_zoo() {
  std::vector<ChannelGraph> zoo;
  zoo.push_back(make_torus(4, 4, /*wrap=*/true, 16));
  zoo.push_back(make_torus(3, 5, /*wrap=*/true, 8));
  zoo.push_back(make_torus(4, 4, /*wrap=*/false, 16));  // mesh
  zoo.push_back(make_torus(1, 7, /*wrap=*/true, 7));    // ring
  zoo.push_back(make_dragonfly(2, 16));
  zoo.push_back(make_dragonfly(3, 32));
  zoo.push_back(make_random_regular(16, 4, /*seed=*/7, 16));
  zoo.push_back(make_random_regular(9, 4, /*seed=*/1, 18));
  return zoo;
}

/// Independent reference: shortest legal (up* then down*) distance in
/// switch hops via BFS over (switch, phase) states, using only the public
/// channel table and is_up.
int reference_legal_distance(const ChannelGraph& g, SwitchId from,
                             SwitchId to) {
  const int s_count = g.switch_count();
  std::vector<int> dist(static_cast<std::size_t>(s_count) * 2, -1);
  std::queue<int> frontier;
  dist[static_cast<std::size_t>(from) * 2] = 0;
  frontier.push(from * 2);
  while (!frontier.empty()) {
    const int state = frontier.front();
    frontier.pop();
    const SwitchId u = state / 2;
    const int phase = state % 2;
    for (std::size_t c = 0; c < g.channel_count(); ++c) {
      const Channel& ch = g.channel(static_cast<ChannelId>(c));
      if (is_node_link(ch.kind) || ch.src_switch != u) continue;
      const bool up = g.is_up(static_cast<ChannelId>(c));
      if (phase == 1 && up) continue;
      const int next = ch.dst_switch * 2 + (up ? 0 : 1);
      if (dist[static_cast<std::size_t>(next)] >= 0) continue;
      dist[static_cast<std::size_t>(next)] =
          dist[static_cast<std::size_t>(state)] + 1;
      frontier.push(next);
    }
  }
  const int d0 = dist[static_cast<std::size_t>(to) * 2];
  const int d1 = dist[static_cast<std::size_t>(to) * 2 + 1];
  if (d0 < 0) return d1;
  if (d1 < 0) return d0;
  return std::min(d0, d1);
}

TEST(GeneratorStructure, TorusCountsAndDegrees) {
  const ChannelGraph g = make_torus(4, 4, true, 16);
  EXPECT_EQ(g.switch_count(), 16);
  EXPECT_EQ(g.link_count(), 32);  // 2 * R * C links on a full 2D torus
  for (SwitchId s = 0; s < g.switch_count(); ++s) EXPECT_EQ(g.degree(s), 4);
  EXPECT_EQ(g.total_endpoints(), 16);
  // 16 endpoints round-robin over 16 switches: one each.
  std::set<SwitchId> hosts;
  for (EndpointId e = 0; e < 16; ++e) hosts.insert(g.endpoint_switch(e));
  EXPECT_EQ(hosts.size(), 16u);
}

TEST(GeneratorStructure, MeshDropsWrapLinks) {
  const ChannelGraph mesh = make_torus(4, 4, false, 16);
  EXPECT_EQ(mesh.link_count(), 24);  // 2 * R * (C-1) on the grid
  // Corner switches have degree 2.
  EXPECT_EQ(mesh.degree(0), 2);
}

TEST(GeneratorStructure, TwoWideTorusHasNoDuplicateWrap) {
  // A 2-wide dimension's wrap link would duplicate the grid link.
  const ChannelGraph g = make_torus(2, 4, true, 8);
  EXPECT_EQ(g.link_count(), 2 * 4 + 4);  // 4 horizontal wraps, no vertical
}

TEST(GeneratorStructure, DragonflyCanonicalCounts) {
  const int a = 2;
  const ChannelGraph g = make_dragonfly(a, 16);
  const int groups = a * a + 1;
  EXPECT_EQ(g.switch_count(), a * groups);
  // Intra-group all-to-all plus one global link per group pair.
  EXPECT_EQ(g.link_count(),
            groups * a * (a - 1) / 2 + groups * (groups - 1) / 2);
  // Canonical radix: (a-1) local + a global ports per switch.
  for (SwitchId s = 0; s < g.switch_count(); ++s)
    EXPECT_EQ(g.degree(s), (a - 1) + a);
}

TEST(GeneratorStructure, DragonflyArityDerivation) {
  EXPECT_EQ(dragonfly_arity_for(16), 2);   // capacity 20
  EXPECT_EQ(dragonfly_arity_for(21), 3);   // capacity 90
  EXPECT_EQ(dragonfly_arity_for(1), 2);
}

TEST(GeneratorStructure, RandomRegularDegreesAndDeterminism) {
  const ChannelGraph g1 = make_random_regular(16, 4, 42, 16);
  for (SwitchId s = 0; s < g1.switch_count(); ++s)
    EXPECT_EQ(g1.degree(s), 4);

  // Same seed: identical wiring. Different seed: (almost surely) not.
  const ChannelGraph g2 = make_random_regular(16, 4, 42, 16);
  ASSERT_EQ(g1.channel_count(), g2.channel_count());
  bool identical = true;
  for (std::size_t c = 0; c < g1.channel_count(); ++c) {
    const Channel& a = g1.channel(static_cast<ChannelId>(c));
    const Channel& b = g2.channel(static_cast<ChannelId>(c));
    identical = identical && a.src_switch == b.src_switch &&
                a.dst_switch == b.dst_switch && a.kind == b.kind;
  }
  EXPECT_TRUE(identical);

  const ChannelGraph g3 = make_random_regular(16, 4, 43, 16);
  bool differs = false;
  for (std::size_t c = 0; c < g1.channel_count(); ++c)
    differs = differs ||
              g1.channel(static_cast<ChannelId>(c)).dst_switch !=
                  g3.channel(static_cast<ChannelId>(c)).dst_switch;
  EXPECT_TRUE(differs);
}

TEST(GeneratorStructure, RandomRegularHandlesDenseDegrees) {
  // Whole-pairing rejection sampling dies around r = 6; the sequential
  // (Steger-Wormald) matcher must stay reliable there and even on the
  // forced near-complete case.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const ChannelGraph g = make_random_regular(12, 6, seed, 12);
    for (SwitchId s = 0; s < g.switch_count(); ++s)
      EXPECT_EQ(g.degree(s), 6);
  }
  const ChannelGraph k8 = make_random_regular(8, 7, 3, 8);  // K_8
  for (SwitchId s = 0; s < k8.switch_count(); ++s)
    EXPECT_EQ(k8.degree(s), 7);
}

TEST(Icn2ConfigLabel, MeshIsDistinguishedFromTorus) {
  Icn2Config icn2;
  icn2.kind = Icn2Kind::kTorus;
  EXPECT_STREQ(icn2.label(), "torus");
  icn2.torus_wrap = false;
  EXPECT_STREQ(icn2.label(), "mesh");
}

TEST(GeneratorStructure, InfeasibleParametersThrow) {
  EXPECT_THROW(make_random_regular(16, 1, 1, 16), ConfigError);   // degree
  EXPECT_THROW(make_random_regular(5, 3, 1, 5), ConfigError);     // odd stubs
  EXPECT_THROW(make_random_regular(4, 4, 1, 4), ConfigError);     // r >= n
  EXPECT_THROW(make_dragonfly(1, 4), ConfigError);
  EXPECT_THROW(make_dragonfly(2, 21), ConfigError);  // over capacity
  EXPECT_THROW(make_torus(0, 4, true, 4), ConfigError);
}

TEST(GraphRouting, RoutesAreValidChannelSequences) {
  for (const ChannelGraph& g : generator_zoo()) {
    for (EndpointId s = 0; s < g.total_endpoints(); ++s) {
      for (EndpointId d = 0; d < g.total_endpoints(); ++d) {
        if (s == d) continue;
        const std::vector<ChannelId> path = g.route(s, d);
        ASSERT_GE(path.size(), 2u);
        const Channel& first = g.channel(path.front());
        const Channel& last = g.channel(path.back());
        EXPECT_EQ(first.kind, ChannelKind::kInjection);
        EXPECT_EQ(first.endpoint, s);
        EXPECT_EQ(last.kind, ChannelKind::kEjection);
        EXPECT_EQ(last.endpoint, d);
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
          const Channel& cur = g.channel(path[h]);
          const Channel& nxt = g.channel(path[h + 1]);
          EXPECT_EQ(cur.dst_switch, nxt.src_switch)
              << g.name() << " hop " << h;
        }
        EXPECT_LE(static_cast<int>(path.size()), g.max_route_length());
      }
    }
  }
}

TEST(GraphRouting, UpDownOrderingHolds) {
  // Up*/Down*: once a route takes a down channel it never goes up again.
  for (const ChannelGraph& g : generator_zoo()) {
    for (EndpointId s = 0; s < g.total_endpoints(); ++s) {
      for (EndpointId d = 0; d < g.total_endpoints(); ++d) {
        if (s == d) continue;
        const std::vector<ChannelId> path = g.route(s, d);
        bool descended = false;
        for (std::size_t h = 1; h + 1 < path.size(); ++h) {
          const bool up = g.is_up(path[h]);
          EXPECT_FALSE(descended && up)
              << g.name() << ": up channel after a down channel";
          descended = descended || !up;
        }
      }
    }
  }
}

TEST(GraphRouting, RoutesAreMinimalWithinTheLegalPathSpace) {
  for (const ChannelGraph& g : generator_zoo()) {
    for (EndpointId s = 0; s < g.total_endpoints(); ++s) {
      for (EndpointId d = 0; d < g.total_endpoints(); ++d) {
        if (s == d) continue;
        EXPECT_EQ(g.switch_hops(s, d),
                  reference_legal_distance(g, g.endpoint_switch(s),
                                           g.endpoint_switch(d)))
            << g.name() << " " << s << "->" << d;
      }
    }
  }
}

TEST(GraphRouting, RoutingIsReproducibleAcrossRebuilds) {
  const ChannelGraph a = make_dragonfly(2, 16);
  const ChannelGraph b = make_dragonfly(2, 16);
  for (EndpointId s = 0; s < a.total_endpoints(); ++s)
    for (EndpointId d = 0; d < a.total_endpoints(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(a.route(s, d), b.route(s, d));
    }
}

TEST(GraphRouting, ChannelDependencyGraphIsAcyclic) {
  // Dally-Seitz condition over the full route census: c1 -> c2 when some
  // route uses c2 immediately after c1 (node links included; they cannot
  // close a cycle but belong to the dependency relation). Kahn's
  // algorithm must consume every vertex.
  for (const ChannelGraph& g : generator_zoo()) {
    std::set<std::pair<ChannelId, ChannelId>> deps;
    for (EndpointId s = 0; s < g.total_endpoints(); ++s)
      for (EndpointId d = 0; d < g.total_endpoints(); ++d) {
        if (s == d) continue;
        const std::vector<ChannelId> path = g.route(s, d);
        for (std::size_t h = 0; h + 1 < path.size(); ++h)
          deps.insert({path[h], path[h + 1]});
      }

    std::map<ChannelId, int> in_degree;
    std::map<ChannelId, std::vector<ChannelId>> adj;
    for (const auto& [from, to] : deps) {
      adj[from].push_back(to);
      in_degree[to] += 1;
      in_degree.try_emplace(from, 0);
      // Ensure isolated targets exist in the in-degree map too.
    }
    std::queue<ChannelId> ready;
    for (const auto& [c, deg] : in_degree)
      if (deg == 0) ready.push(c);
    std::size_t consumed = 0;
    while (!ready.empty()) {
      const ChannelId c = ready.front();
      ready.pop();
      ++consumed;
      for (const ChannelId n : adj[c])
        if (--in_degree[n] == 0) ready.push(n);
    }
    EXPECT_EQ(consumed, in_degree.size())
        << g.name() << ": cyclic channel dependencies (wormhole deadlock)";
  }
}

TEST(GraphRouting, WrapLinksShortenRingDistances) {
  // On an 8-ring the mesh route between the ends walks the whole line;
  // the reference legal distance with wrap must be shorter.
  const ChannelGraph ring = make_torus(1, 8, true, 8);
  const ChannelGraph line = make_torus(1, 8, false, 8);
  int ring_max = 0, line_max = 0;
  for (EndpointId s = 0; s < 8; ++s)
    for (EndpointId d = 0; d < 8; ++d) {
      if (s == d) continue;
      ring_max = std::max(ring_max, ring.switch_hops(s, d));
      line_max = std::max(line_max, line.switch_hops(s, d));
    }
  EXPECT_EQ(line_max, 7);
  EXPECT_LT(ring_max, line_max);
}

TEST(Icn2Factory, BuildsEveryKindAndValidates) {
  SystemConfig base;
  base.m = 4;
  base.cluster_heights = {2, 2, 2, 2, 2, 2, 2, 2};

  for (const Icn2Kind kind : {Icn2Kind::kTorus, Icn2Kind::kDragonfly,
                              Icn2Kind::kRandomRegular}) {
    SystemConfig cfg = base;
    cfg.icn2.kind = kind;
    cfg.validate();
    const ChannelGraph g = make_icn2_graph(cfg);
    EXPECT_GE(g.total_endpoints(), cfg.cluster_count()) << to_string(kind);
    const MultiClusterTopology topology(cfg);
    EXPECT_GE(topology.icn2().total_endpoints(), cfg.cluster_count());
  }

  SystemConfig tree = base;
  EXPECT_THROW(make_icn2_graph(tree), ConfigError);  // fat tree: no graph

  SystemConfig bad = base;
  bad.icn2.kind = Icn2Kind::kTorus;
  bad.icn2.torus_rows = 3;  // rows without cols
  EXPECT_THROW(bad.validate(), ConfigError);
}

}  // namespace
}  // namespace mcs::topo
