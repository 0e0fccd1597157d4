#include "model/suffix_forest.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace mcs::model {

SuffixForest::SuffixForest(std::size_t channel_count)
    : head_(channel_count, -1) {}

std::vector<std::int32_t> SuffixForest::add_tree(
    std::span<const std::vector<topo::ChannelId>> routes) {
  // Merge in insertion order, each route from its last channel back: a
  // missing suffix appends a node behind its (existing) parent. next[k]
  // is the node inserted before k on k's channel, -1 ending the list.
  std::fill(head_.begin(), head_.end(), -1);
  std::size_t channels = 0;  // bounds the node count
  for (const std::vector<topo::ChannelId>& route : routes)
    channels += route.size();
  std::vector<std::int32_t> parent, next, depth, leaves;
  std::vector<topo::ChannelId> channel;
  for (std::vector<std::int32_t>* v : {&parent, &next, &depth, &channel})
    v->reserve(channels);
  leaves.reserve(routes.size());
  for (const std::vector<topo::ChannelId>& route : routes) {
    MCS_EXPECTS(!route.empty());
    std::int32_t node = -1;
    for (std::size_t d = 0; d < route.size(); ++d) {
      const topo::ChannelId c = route[route.size() - 1 - d];
      MCS_EXPECTS(c >= 0 && static_cast<std::size_t>(c) < head_.size());
      std::int32_t& head = head_[static_cast<std::size_t>(c)];
      std::int32_t child = head;
      while (child >= 0 && parent[static_cast<std::size_t>(child)] != node)
        child = next[static_cast<std::size_t>(child)];
      if (child < 0) {
        child = static_cast<std::int32_t>(parent.size());
        parent.push_back(node);
        channel.push_back(c);
        next.push_back(head);
        depth.push_back(static_cast<std::int32_t>(d));
        head = child;
      }
      node = child;
    }
    leaves.push_back(node);
  }

  // Store the tree in level order, insertion order within a level: a
  // counting sort by depth gives each node its rank, and parents and
  // leaves are renumbered to match. A depth is below the node count.
  std::vector<std::int32_t> level_begin(depth.size() + 1);  // [d]: above d
  for (const std::int32_t d : depth)
    ++level_begin[static_cast<std::size_t>(d) + 1];
  std::partial_sum(level_begin.begin(), level_begin.end(),
                   level_begin.begin());
  std::vector<std::int32_t>& rank = depth;  // becomes insertion -> level
  for (std::int32_t& d : depth)
    d = level_begin[static_cast<std::size_t>(d)]++;
  const std::size_t begin = parent_.size();
  tree_begin_.push_back(begin);
  parent_.resize(begin + parent.size());
  channel_.resize(begin + parent.size());
  for (std::size_t k = 0; k < parent.size(); ++k) {
    const std::size_t at = begin + static_cast<std::size_t>(rank[k]);
    parent_[at] =
        parent[k] < 0 ? -1 : rank[static_cast<std::size_t>(parent[k])];
    channel_[at] = channel[k];
  }
  for (std::int32_t& leaf : leaves)
    leaf = rank[static_cast<std::size_t>(leaf)];
  return leaves;
}

std::size_t SuffixForest::tree_size(std::size_t t) const {
  MCS_EXPECTS(t < tree_begin_.size());
  const std::size_t end =
      t + 1 < tree_begin_.size() ? tree_begin_[t + 1] : parent_.size();
  return end - tree_begin_[t];
}

std::span<const std::int32_t> SuffixForest::parents(std::size_t t) const {
  return std::span(parent_).subspan(tree_begin_[t], tree_size(t));
}

std::span<const topo::ChannelId> SuffixForest::channels(std::size_t t) const {
  return std::span(channel_).subspan(tree_begin_[t], tree_size(t));
}

}  // namespace mcs::model
