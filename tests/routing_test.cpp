// Properties of the deterministic balanced Up*/Down* (d-mod-k) router.
#include "topology/routing.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace mcs::topo {
namespace {

class RoutingProperty : public ::testing::TestWithParam<TreeShape> {
 protected:
  FatTree tree_{GetParam()};
};

TEST_P(RoutingProperty, AllPairsProduceValidUpDownPaths) {
  for (EndpointId s = 0; s < tree_.endpoint_count(); ++s) {
    for (EndpointId d = 0; d < tree_.endpoint_count(); ++d) {
      if (s == d) continue;
      const auto path = tree_.route(s, d);
      ASSERT_TRUE(is_valid_path(tree_, s, d, path))
          << "invalid path " << s << " -> " << d;
    }
  }
}

TEST_P(RoutingProperty, RoutingIsDeterministic) {
  for (EndpointId s = 0; s < tree_.endpoint_count(); ++s) {
    const EndpointId d = (s + 3) % tree_.endpoint_count();
    if (s == d) continue;
    EXPECT_EQ(tree_.route(s, d), tree_.route(s, d));
  }
}

TEST_P(RoutingProperty, PathLengthEqualsTwiceNcaLevel) {
  for (EndpointId s = 0; s < tree_.endpoint_count(); ++s) {
    for (EndpointId d = 0; d < tree_.endpoint_count(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(tree_.route(s, d).size(),
                2 * static_cast<std::size_t>(tree_.nca_level(s, d)));
    }
  }
}

TEST_P(RoutingProperty, AllToAllLoadIsBalancedWithinChannelClasses) {
  const auto census = channel_load_census(tree_);
  // Ejection channels: every endpoint is the destination of exactly N-1
  // messages, each crossing its single ejection channel.
  const auto ej = summarize_loads(tree_, census, ChannelKind::kEjection);
  EXPECT_EQ(ej.min, ej.max);
  EXPECT_EQ(ej.min, static_cast<std::uint64_t>(tree_.endpoint_count() - 1));
  const auto inj = summarize_loads(tree_, census, ChannelKind::kInjection);
  EXPECT_EQ(inj.min, inj.max);
  // Up channels: d-mod-k spreads ascending traffic by destination digits;
  // under all-to-all the imbalance within the class stays small.
  const auto up = summarize_loads(tree_, census, ChannelKind::kUp);
  if (up.channels > 0) {
    EXPECT_LE(static_cast<double>(up.max), 2.0 * up.mean + 1.0);
    EXPECT_GE(static_cast<double>(up.min), 0.25 * up.mean - 1.0);
  }
}

TEST_P(RoutingProperty, DownPathsConvergePerDestination) {
  // d-mod-k makes all routes to one destination share a single NCA switch
  // per level, i.e. the union of down channels used to reach `d` forms a
  // path tree with at most one channel per level boundary.
  const TreeShape shape = GetParam();
  for (EndpointId d = 0; d < tree_.endpoint_count();
       d += std::max(1, tree_.endpoint_count() / 5)) {
    std::map<int, std::set<ChannelId>> down_per_level;
    for (EndpointId s = 0; s < tree_.endpoint_count(); ++s) {
      if (s == d) continue;
      for (const ChannelId c : tree_.route(s, d)) {
        const Channel& ch = tree_.channel(c);
        if (ch.kind == ChannelKind::kDown)
          down_per_level[ch.level].insert(c);
      }
    }
    for (const auto& [level, channels] : down_per_level)
      EXPECT_EQ(channels.size(), 1u)
          << "destination " << d << " uses " << channels.size()
          << " distinct down channels at boundary " << level;
    (void)shape;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoutingProperty,
    ::testing::Values(TreeShape{2, 2}, TreeShape{4, 1}, TreeShape{4, 2},
                      TreeShape{4, 3}, TreeShape{6, 2}, TreeShape{8, 2},
                      TreeShape{8, 3}),
    [](const ::testing::TestParamInfo<TreeShape>& param_info) {
      // Appended piecewise: `"m" + std::to_string(...)` trips GCC 12's
      // -Wrestrict false positive (GCC bug 105651) at -O3.
      std::string name = "m";
      name += std::to_string(param_info.param.m);
      name += 'n';
      name += std::to_string(param_info.param.n);
      return name;
    });

TEST(Routing, RouteIntoAppendsAndReturnsLength) {
  const FatTree tree(TreeShape{4, 3});  // 16 endpoints
  std::vector<ChannelId> out = {999};   // pre-existing content preserved
  const int added = tree.route_into(0, 13, out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(added) + 1);
  EXPECT_EQ(out[0], 999);
}

TEST(Routing, SameLeafPairUsesOnlyNodeChannels) {
  const FatTree tree(TreeShape{8, 2});  // k=4: endpoints 0..3 share a leaf
  const auto path = tree.route(0, 1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(tree.channel(path[0]).kind, ChannelKind::kInjection);
  EXPECT_EQ(tree.channel(path[1]).kind, ChannelKind::kEjection);
}

TEST(Routing, CrossHalfPairTransitsRoot) {
  const TreeShape shape{4, 2};
  const FatTree tree(shape);
  // Endpoints 0 (digits 0,0) and 7 (digits 3,1) lie in different halves:
  // the NCA is the root level.
  const auto path = tree.route(0, 7);
  EXPECT_EQ(path.size(), 2u * static_cast<std::size_t>(shape.n));
  bool saw_root = false;
  for (const ChannelId c : path) {
    const Channel& ch = tree.channel(c);
    if (ch.dst_switch >= 0 && tree.switch_level(ch.dst_switch) == shape.n)
      saw_root = true;
  }
  EXPECT_TRUE(saw_root);
}

TEST(RoutingDeathTest, SelfRouteIsAContractViolation) {
  const FatTree tree(TreeShape{4, 2});
  EXPECT_DEATH((void)tree.route(3, 3), "precondition");
}

}  // namespace
}  // namespace mcs::topo
