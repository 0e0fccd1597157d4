// Combinatorics of the m-port n-tree topology (Lin [15], as used by
// Javadi et al. Sec. 2): node/switch counts (Eqs. 1-2), the hop-distance
// distribution (Eq. 4) and the mean traversed-link count (Eqs. 8-9).
#pragma once

#include <cstdint>
#include <vector>

namespace mcs::topo {

/// Shape of one m-port n-tree: `m` switch ports (even), height `n` levels
/// of switches. Nodes hang off level-1 (leaf) switches; level-n (root)
/// switches use all m ports downward, so the tree holds 2*(m/2)^n nodes.
struct TreeShape {
  int m = 4;  ///< switch arity; must be even and >= 2
  int n = 1;  ///< tree height; must be >= 1

  [[nodiscard]] int k() const { return m / 2; }

  /// Throws mcs::ConfigError unless the shape is realizable and the node
  /// count fits comfortably in 32 bits.
  void validate() const;

  /// Eq. (1): N = 2 * (m/2)^n processing nodes.
  [[nodiscard]] std::int64_t node_count() const;

  /// Eq. (2): N_sw = (2n - 1) * (m/2)^(n-1) switches.
  [[nodiscard]] std::int64_t switch_count() const;

  /// Number of switches at level `level` (1 = leaf ... n = root):
  /// 2*(m/2)^(n-1) below the root, (m/2)^(n-1) at the root.
  [[nodiscard]] std::int64_t switches_at_level(int level) const;

  /// Eq. (4), OCR-resolved (see DESIGN.md §2): probability that a message
  /// from a given source to a uniformly random other node has its Nearest
  /// Common Ancestor at level j, i.e. crosses 2j links:
  ///
  ///   P_{j,n} = k^(j-1) * (k-1) / (N-1)        for 1 <= j < n
  ///   P_{n,n} = (2k^n - k^(n-1)) / (N-1)       for j == n
  ///
  /// Destinations at NCA level j number k^j - k^(j-1) for j < n (the
  /// level-j subtree minus the level-(j-1) subtree) and the root joins the
  /// two tree halves, adding the k^n nodes of the far half.
  [[nodiscard]] double hop_probability(int j) const;

  /// The full distribution; element [j-1] is P_{j,n}. Sums to 1.
  [[nodiscard]] std::vector<double> hop_distribution() const;

  /// Eqs. (8)-(9): mean number of links traversed, d_avg = 2*sum_j j*P_j
  /// (j up-links plus j down-links).
  [[nodiscard]] double avg_distance() const;

  /// Independent closed form of Eq. (9) obtained by telescoping the sum in
  /// Eq. (8); used to cross-check avg_distance() in tests:
  ///   d_avg = 2 * [2n*k^n - k^(n-1) - (k^(n-1)-1)/(k-1)] / (N-1)
  /// (the last term read as the geometric sum 1+k+...+k^(n-2) so k=1 is
  /// well-defined).
  [[nodiscard]] double avg_distance_closed_form() const;

  friend bool operator==(const TreeShape&, const TreeShape&) = default;
};

/// k^e with overflow checking (throws mcs::ConfigError on overflow).
[[nodiscard]] std::int64_t checked_pow(std::int64_t k, int e);

/// 1 + k + k^2 + ... + k^(terms-1); 0 for terms <= 0. Well-defined at k=1.
[[nodiscard]] std::int64_t geometric_sum(std::int64_t k, int terms);

/// Smallest height n such that an m-port n-tree holds at least `endpoints`
/// endpoints. Used to size the ICN2 for a given cluster count.
[[nodiscard]] int min_height_for(int m, std::int64_t endpoints);

/// NCA-level distribution between a uniformly random node and the
/// concentrator endpoint (attached to leaf switch 0 with the all-zero
/// address): element [j-1] is the probability of a 2j-link journey.
/// Differs from Eq. (4) only in the leaf term (the concentrator is an
/// extra endpoint, so all k leaf-0 nodes are at level 1) and in the
/// denominator (N instead of N-1).
[[nodiscard]] std::vector<double> concentrator_hop_distribution(
    const TreeShape& shape);

/// Tail sums of an NCA-level distribution such as hop_distribution():
/// tail[l] = sum_{j > l} p[j-1] = Pr(level > l), for l = 0..n (so
/// tail[0] is the total mass and tail[n] = 0). A boundary-l channel
/// carries the traffic whose NCA lies above l.
[[nodiscard]] std::vector<double> tail_of(const std::vector<double>& p);

}  // namespace mcs::topo
