// Pair classes (DESIGN.md §3.2): both models average an external-leg term
// over every ordered cluster pair (i, v), i != v, but pairs whose legs
// read bit-equal inputs produce bit-equal terms. The constructors group the
// pairs into classes once; predict() evaluates one representative per
// class and the per-pair loops read the result table, so every output bit
// is unchanged and the per-call cost drops from O(C^2 * K) recursion steps
// to O(classes * K + C^2) lookups.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mcs::model {

/// Bit equality: a class may only merge inputs that are identical to the
/// last bit, otherwise the shared result would differ from the per-pair one.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Dense labels of items 0..n-1: equal for equivalent items, numbered in
/// first-appearance order.
struct Labels {
  std::vector<std::size_t> of;
  std::size_t count = 0;
};

/// Label items 0..n-1 so that items with `same(a, b)` share a label.
/// O(n * labels).
template <class Same>
[[nodiscard]] Labels classify(int n, Same&& same) {
  Labels labels;
  labels.of.reserve(static_cast<std::size_t>(n));
  std::vector<int> reps;
  for (int i = 0; i < n; ++i) {
    std::size_t k = 0;
    while (k < reps.size() && !same(reps[k], i)) ++k;
    if (k == reps.size()) reps.push_back(i);
    labels.of.push_back(k);
  }
  labels.count = reps.size();
  return labels;
}

/// Class of every ordered pair (i, v), i != v, of `clusters` clusters.
struct PairClasses {
  int clusters = 0;
  std::vector<int> of;                   ///< class of (i, v) at i*C + v
  std::vector<std::pair<int, int>> rep;  ///< first (i, v) of each class

  /// `key(i, v)` maps a pair to [0, key_space); pairs with equal keys share
  /// a class. Classes are numbered in (i, v) order of first appearance.
  template <class Key>
  [[nodiscard]] static PairClasses build(int clusters, std::size_t key_space,
                                         Key&& key) {
    PairClasses pc;
    pc.clusters = clusters;
    pc.of.assign(static_cast<std::size_t>(clusters) *
                     static_cast<std::size_t>(clusters),
                 -1);
    std::vector<int> id(key_space, -1);
    for (int i = 0; i < clusters; ++i) {
      for (int v = 0; v < clusters; ++v) {
        if (v == i) continue;
        int& slot = id[key(i, v)];
        if (slot < 0) {
          slot = static_cast<int>(pc.rep.size());
          pc.rep.emplace_back(i, v);
        }
        pc.of[pc.index(i, v)] = slot;
      }
    }
    return pc;
  }

  [[nodiscard]] std::size_t index(int i, int v) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(clusters) +
           static_cast<std::size_t>(v);
  }
  [[nodiscard]] std::size_t operator()(int i, int v) const {
    return static_cast<std::size_t>(of[index(i, v)]);
  }
};

}  // namespace mcs::model
