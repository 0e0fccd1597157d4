// Structural invariants of the explicit m-port n-tree construction.
#include "topology/fat_tree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "topology/routing.hpp"

namespace mcs::topo {
namespace {

class FatTreeProperty : public ::testing::TestWithParam<TreeShape> {
 protected:
  FatTree tree_{GetParam()};
};

TEST_P(FatTreeProperty, CountsMatchEquations1And2) {
  const TreeShape shape = GetParam();
  EXPECT_EQ(tree_.endpoint_count(), shape.node_count());
  EXPECT_EQ(tree_.switch_count(), shape.switch_count());
  // Channels: 2 per endpoint (inj+ej) and 2 per inter-switch link; there
  // are (n-1) * N links between switch levels plus N endpoint attachments.
  const std::int64_t n = shape.node_count();
  const std::int64_t expected = 2 * n + 2 * (shape.n - 1) * n;
  EXPECT_EQ(static_cast<std::int64_t>(tree_.channel_count()), expected);
}

TEST_P(FatTreeProperty, PortBudgetsRespected) {
  const TreeShape shape = GetParam();
  const int kk = shape.k();
  // Count channel endpoints per switch and direction.
  std::vector<int> out_ports(static_cast<std::size_t>(tree_.switch_count()));
  std::vector<int> in_ports(static_cast<std::size_t>(tree_.switch_count()));
  for (std::size_t c = 0; c < tree_.channel_count(); ++c) {
    const Channel& ch = tree_.channel(static_cast<ChannelId>(c));
    if (ch.src_switch >= 0)
      ++out_ports[static_cast<std::size_t>(ch.src_switch)];
    if (ch.dst_switch >= 0)
      ++in_ports[static_cast<std::size_t>(ch.dst_switch)];
  }
  for (SwitchId s = 0; s < tree_.switch_count(); ++s) {
    const int level = tree_.switch_level(s);
    // Every switch uses m ports; each port is one in + one out channel.
    int expected = 2 * kk;
    if (level == shape.n) expected = 2 * kk;  // root: all m ports downward
    EXPECT_EQ(out_ports[static_cast<std::size_t>(s)], expected)
        << "switch " << s << " level " << level;
    EXPECT_EQ(in_ports[static_cast<std::size_t>(s)], expected);
  }
}

TEST_P(FatTreeProperty, UpDownChannelsAreConsistentInverses) {
  const TreeShape shape = GetParam();
  const int kk = shape.k();
  for (SwitchId s = 0; s < tree_.switch_count(); ++s) {
    const int level = tree_.switch_level(s);
    if (level == shape.n) continue;
    for (int u = 0; u < kk; ++u) {
      const ChannelId up = tree_.up_channel(s, u);
      const Channel& up_ch = tree_.channel(up);
      ASSERT_EQ(up_ch.src_switch, s);
      const SwitchId parent = up_ch.dst_switch;
      EXPECT_EQ(tree_.switch_level(parent), level + 1);
      // The parent must own a down channel back to s.
      bool found = false;
      for (int c = 0; c < tree_.down_port_count(parent); ++c) {
        const Channel& down_ch = tree_.channel(tree_.down_channel(parent, c));
        if (down_ch.dst_switch == s) found = true;
      }
      EXPECT_TRUE(found) << "no down path back from parent of switch " << s;
    }
  }
}

TEST_P(FatTreeProperty, EveryEndpointHasWorkingAttachment) {
  for (EndpointId e = 0; e < tree_.endpoint_count(); ++e) {
    const Channel& inj = tree_.channel(tree_.injection_channel(e));
    const Channel& ej = tree_.channel(tree_.ejection_channel(e));
    EXPECT_EQ(inj.kind, ChannelKind::kInjection);
    EXPECT_EQ(ej.kind, ChannelKind::kEjection);
    EXPECT_EQ(inj.endpoint, e);
    EXPECT_EQ(ej.endpoint, e);
    EXPECT_EQ(inj.dst_switch, tree_.leaf_switch_of(e));
    EXPECT_EQ(ej.src_switch, tree_.leaf_switch_of(e));
    EXPECT_EQ(tree_.switch_level(tree_.leaf_switch_of(e)), 1);
  }
}

TEST_P(FatTreeProperty, DigitsReconstructEndpointIds) {
  const TreeShape shape = GetParam();
  for (EndpointId e = 0; e < tree_.endpoint_count(); ++e) {
    std::int64_t id = tree_.digit(e, 1);  // mixed radix: p1 * k^(n-1) + ...
    for (int pos = 2; pos <= shape.n; ++pos)
      id = id * shape.k() + tree_.digit(e, pos);
    EXPECT_EQ(id, e);
  }
}

TEST_P(FatTreeProperty, HopCensusMatchesEq4) {
  const TreeShape shape = GetParam();
  const auto census = hop_census(tree_);
  const auto analytic = shape.hop_distribution();
  ASSERT_EQ(census.size(), analytic.size());
  for (std::size_t j = 0; j < census.size(); ++j)
    EXPECT_NEAR(census[j], analytic[j], 1e-12)
        << "hop level " << (j + 1) << " disagrees with Eq. (4)";
}

TEST_P(FatTreeProperty, ExtraEndpointAttachesToLeafZero) {
  FatTree tree(GetParam());
  const EndpointId conc = tree.attach_extra_endpoint();
  EXPECT_EQ(conc, tree.endpoint_count());
  EXPECT_EQ(tree.extra_endpoint_count(), 1);
  EXPECT_EQ(tree.total_endpoints(), tree.endpoint_count() + 1);
  EXPECT_EQ(tree.leaf_switch_of(conc), tree.leaf_switch_of(0));
  const Channel& inj = tree.channel(tree.injection_channel(conc));
  EXPECT_EQ(inj.endpoint, conc);
  // Routing to/from the concentrator works from every node.
  for (EndpointId e = 0; e < tree.endpoint_count(); ++e) {
    const auto to = tree.route(e, conc);
    const auto from = tree.route(conc, e);
    EXPECT_TRUE(is_valid_path(tree, e, conc, to));
    EXPECT_TRUE(is_valid_path(tree, conc, e, from));
    EXPECT_EQ(to.size(), from.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FatTreeProperty,
    ::testing::Values(TreeShape{2, 1}, TreeShape{2, 3}, TreeShape{4, 1},
                      TreeShape{4, 2}, TreeShape{4, 3}, TreeShape{4, 4},
                      TreeShape{6, 2}, TreeShape{8, 1}, TreeShape{8, 2},
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

TEST(FatTree, KnownSmallTopologyLayout) {
  // m=4 (k=2), n=2: 8 nodes, 2+4 leaf/root... (2n-1)k^(n-1) = 6 switches:
  // 4 leaves (level 1) + 2 roots (level 2).
  const FatTree tree(TreeShape{4, 2});
  EXPECT_EQ(tree.endpoint_count(), 8);
  EXPECT_EQ(tree.switch_count(), 6);
  int leaves = 0, roots = 0;
  for (SwitchId s = 0; s < tree.switch_count(); ++s)
    (tree.switch_level(s) == 1 ? leaves : roots)++;
  EXPECT_EQ(leaves, 4);
  EXPECT_EQ(roots, 2);
  // Node 5 has digits (2, 1): leaf group 2, port 1.
  EXPECT_EQ(tree.digit(5, 1), 2);
  EXPECT_EQ(tree.digit(5, 2), 1);
}

TEST(FatTree, NcaLevelsOnKnownPairs) {
  const FatTree tree(TreeShape{4, 2});  // 8 nodes, digits (p1 in 0..3, p2 in 0..1)
  EXPECT_EQ(tree.nca_level(0, 1), 1);   // same leaf
  EXPECT_EQ(tree.nca_level(0, 2), 2);   // different leaf group
  EXPECT_EQ(tree.nca_level(6, 7), 1);
  EXPECT_EQ(tree.nca_level(0, 7), 2);
}

}  // namespace
}  // namespace mcs::topo
