// The route suffix trees behind RefinedModel's graph ICN2 leg
// (model/suffix_forest): every route's leaf-to-root chain gives back the
// route, each distinct suffix is one node, and each tree is stored in
// level order (every node one level below its parent, levels in
// increasing depth) — on hand-written routes (including a channel reached
// with two different suffixes, which no bundled ICN2 produces) and on
// every graph ICN2's routing tables.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "model/suffix_forest.hpp"
#include "topology/multi_cluster.hpp"

namespace mcs::model {
namespace {

using Route = std::vector<topo::ChannelId>;

/// The channels from `node` to its tree's root.
Route chain(const SuffixForest& forest, std::size_t tree, std::int32_t node) {
  const auto parents = forest.parents(tree);
  const auto channels = forest.channels(tree);
  Route out;
  for (; node >= 0; node = parents[static_cast<std::size_t>(node)])
    out.push_back(channels[static_cast<std::size_t>(node)]);
  return out;
}

/// Merge `trees` (one route list per tree) and check every route's chain,
/// the level order and one node per distinct suffix.
void expect_suffix_forest(const std::vector<std::vector<Route>>& trees,
                          std::size_t channel_count) {
  SuffixForest forest(channel_count);
  std::vector<std::vector<std::int32_t>> leaves;
  for (const std::vector<Route>& routes : trees) {
    leaves.push_back(forest.add_tree(routes));
    ASSERT_EQ(leaves.back().size(), routes.size());
  }
  ASSERT_EQ(forest.tree_count(), trees.size());

  std::size_t total = 0;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    std::set<Route> suffixes;
    for (std::size_t r = 0; r < trees[t].size(); ++r) {
      const Route& route = trees[t][r];
      // The tree merged the reversed route; read back from the leaf it is
      // the route in travel order.
      EXPECT_EQ(chain(forest, t, leaves[t][r]), route)
          << "tree " << t << " route " << r;
      for (auto it = route.begin(); it != route.end(); ++it)
        suffixes.insert(Route(it, route.end()));
    }
    const auto parents = forest.parents(t);
    EXPECT_EQ(parents.size(), suffixes.size()) << "tree " << t;
    std::vector<int> depth(parents.size());
    for (std::size_t k = 0; k < parents.size(); ++k) {
      ASSERT_LT(parents[k], static_cast<std::int32_t>(k));
      depth[k] =
          parents[k] < 0 ? 0 : depth[static_cast<std::size_t>(parents[k])] + 1;
      if (k > 0) {
        EXPECT_LE(depth[k - 1], depth[k]) << "tree " << t;
      }
    }
    total += parents.size();
  }
  EXPECT_EQ(forest.node_count(), total);
}

TEST(SuffixForest, MergesSharedSuffixesOnly) {
  expect_suffix_forest(
      {{
           {10, 1, 2, 3, 99},
           {11, 4, 2, 3, 99},  // shares suffix 2 3 99
           {12, 2, 5, 99},     // channel 2 again, behind a different suffix
           {13, 99},
           {14, 1, 2, 3, 99},  // shares suffix 1 2 3 99
           {15, 6, 2, 5, 99},  // shares the second suffix of channel 2
       },
       {
           // Second tree: the same channels start fresh nodes.
           {10, 1, 2, 3, 98},
           {11, 1, 2, 3, 98},
           {13, 98},
       }},
      100);
}

TEST(SuffixForest, RepeatedRouteMapsToOneNode) {
  SuffixForest forest(8);
  const Route route = {0, 3, 5, 7};
  const std::vector<Route> routes = {route, route};
  const std::vector<std::int32_t> leaves = forest.add_tree(routes);
  EXPECT_EQ(leaves[0], leaves[1]);
  EXPECT_EQ(forest.node_count(), route.size());
}

TEST(SuffixForest, LevelOrderPutsSiblingBranchesBeforeTheirTails) {
  // Inserted one route after another, the first route's nodes would come
  // before the second's; in level order each level's nodes are adjacent.
  SuffixForest forest(8);
  const std::vector<Route> routes = {{0, 1, 2, 7}, {3, 4, 5, 7}};
  const std::vector<std::int32_t> leaves = forest.add_tree(routes);
  const auto channels = forest.channels(0);
  EXPECT_EQ(Route(channels.begin(), channels.end()),
            (Route{7, 2, 5, 1, 4, 0, 3}));
  EXPECT_EQ(leaves, (std::vector<std::int32_t>{5, 6}));
}

TEST(SuffixForest, EveryGraphIcn2RoutingTable) {
  for (const topo::Icn2Kind kind :
       {topo::Icn2Kind::kTorus, topo::Icn2Kind::kDragonfly,
        topo::Icn2Kind::kRandomRegular}) {
    for (const bool wrap : {true, false}) {
      if (!wrap && kind != topo::Icn2Kind::kTorus) continue;
      topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 1, 32);
      cfg.icn2.kind = kind;
      cfg.icn2.torus_wrap = wrap;
      const topo::ChannelGraph graph = topo::make_icn2_graph(cfg);
      std::vector<std::vector<Route>> trees;
      for (int v = 0; v < cfg.cluster_count(); ++v) {
        std::vector<Route>& routes = trees.emplace_back();
        for (int i = 0; i < cfg.cluster_count(); ++i) {
          if (i == v) continue;
          graph.route_into(i, v, routes.emplace_back());
        }
      }
      SCOPED_TRACE(cfg.icn2.label());
      expect_suffix_forest(trees, graph.channel_count());
    }
  }
}

}  // namespace
}  // namespace mcs::model
