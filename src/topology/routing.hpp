// Route validation and census utilities. The router itself lives in
// FatTree::route (it needs the address arithmetic); these helpers verify
// its guarantees and measure its load balance; the test suite
// (fat_tree_test, routing_test) is their only caller.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/fat_tree.hpp"

namespace mcs::topo {

/// Structural check of a route: consecutive channels are connected, the
/// sequence is injection, up*, down*, ejection (never up after down —
/// the Up*/Down* deadlock-freedom property), it starts at `src` and ends
/// at `dst`, and its length is twice the NCA level.
[[nodiscard]] bool is_valid_path(const FatTree& tree, EndpointId src,
                                 EndpointId dst,
                                 const std::vector<ChannelId>& path);

/// Traversal count per channel when routing every ordered pair of regular
/// endpoints once (uniform all-to-all). Quantifies the balance of the
/// deterministic router.
[[nodiscard]] std::vector<std::uint64_t> channel_load_census(
    const FatTree& tree);

/// Observed NCA-level distribution over all ordered endpoint pairs;
/// element [j-1] is the fraction of pairs with NCA level j. Must match
/// TreeShape::hop_distribution (Eq. 4).
[[nodiscard]] std::vector<double> hop_census(const FatTree& tree);

/// Summary of channel loads within one channel class.
struct LoadSummary {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::size_t channels = 0;
};

/// Load statistics per channel kind (injection/ejection/up/down) from a
/// census vector.
[[nodiscard]] LoadSummary summarize_loads(const FatTree& tree,
                                          const std::vector<std::uint64_t>& census,
                                          ChannelKind kind);

}  // namespace mcs::topo
