#include "model/suffix_forest.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace mcs::model {

SuffixForest::SuffixForest(std::size_t channel_count)
    : head_(channel_count, -1) {}

void SuffixForest::begin_tree() {
  tree_begin_.push_back(parent_.size());
  std::fill(head_.begin(), head_.end(), -1);
  next_.clear();
}

std::int32_t SuffixForest::add(std::span<const topo::ChannelId> route) {
  MCS_EXPECTS(!tree_begin_.empty() && !route.empty());
  const std::size_t begin = tree_begin_.back();
  std::int32_t node = -1;
  for (auto it = route.rbegin(); it != route.rend(); ++it) {
    MCS_EXPECTS(*it >= 0 && static_cast<std::size_t>(*it) < head_.size());
    std::int32_t& head = head_[static_cast<std::size_t>(*it)];
    std::int32_t child = head;
    while (child >= 0 &&
           parent_[begin + static_cast<std::size_t>(child)] != node)
      child = next_[static_cast<std::size_t>(child)];
    if (child < 0) {
      child = static_cast<std::int32_t>(parent_.size() - begin);
      parent_.push_back(node);
      channel_.push_back(*it);
      next_.push_back(head);
      head = child;
    }
    node = child;
  }
  return node;
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
