// Route suffix trees (DESIGN.md §3.2). The backward recursion of
// service_recursion.hpp evaluates a journey from its last channel to its
// first, so stage k's result depends only on the route suffix k..K-1.
// Routes into one destination share suffixes: merged from the destination
// backward they form a tree with one node per distinct suffix, and one
// recursion step per node evaluates every route into that destination.
//
// A node is a suffix: its first channel, and as parent the suffix one
// channel shorter (-1 at a root, the routes' last channel). Routes need
// not be suffix-consistent: a channel reached with two different suffixes
// gets two nodes. Each tree is stored in level order — by depth, roots
// first — so a node's parent lies in the level before it and the nodes of
// one level depend on none of each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/network.hpp"

namespace mcs::model {

/// One suffix tree per destination, built tree by tree.
class SuffixForest {
 public:
  /// An empty forest over channel ids [0, channel_count).
  explicit SuffixForest(std::size_t channel_count = 0);

  /// Merge `routes` (each its channels in travel order) into a new tree
  /// and return, per route, the tree-local node of the whole route.
  std::vector<std::int32_t> add_tree(
      std::span<const std::vector<topo::ChannelId>> routes);

  [[nodiscard]] std::size_t tree_count() const { return tree_begin_.size(); }
  [[nodiscard]] std::size_t node_count() const { return parent_.size(); }
  /// Tree t's nodes by tree-local index, in level order: each node's
  /// tree-local parent (-1 at a root) and channel.
  [[nodiscard]] std::span<const std::int32_t> parents(std::size_t t) const;
  [[nodiscard]] std::span<const topo::ChannelId> channels(
      std::size_t t) const;

 private:
  [[nodiscard]] std::size_t tree_size(std::size_t t) const;

  std::vector<std::int32_t> parent_;
  std::vector<topo::ChannelId> channel_;
  std::vector<std::size_t> tree_begin_;  ///< first node of each tree
  /// Build state, cleared per tree: head_[channel] is the newest
  /// insertion-order node on that channel, -1 when none.
  std::vector<std::int32_t> head_;
};

}  // namespace mcs::model
