// The heterogeneous multi-cluster system of Fig. 1: C clusters, each with
// an intra-communication network (ICN1) and an inter-communication network
// (ECN1) over its N_i nodes, one concentrator/dispatcher per cluster, and
// a global second-level network (ICN2) joining the concentrators.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/params.hpp"
#include "topology/fat_tree.hpp"
#include "topology/graph.hpp"
#include "topology/tree_math.hpp"

namespace mcs::topo {

/// Shape of the global inter-cluster network. The paper fixes the ICN2 to
/// an m-ary fat tree; the graph kinds replace it with an arbitrary
/// ChannelGraph routed Up*/Down* (see graph.hpp) while the per-cluster
/// ICN1/ECN1 trees stay as published.
enum class Icn2Kind : std::uint8_t {
  kFatTree,        ///< the paper's m-port n-tree (default)
  kTorus,          ///< 2D torus (wrap) or mesh (no wrap)
  kDragonfly,      ///< canonical a = p = h dragonfly
  kRandomRegular,  ///< seeded Jellyfish-style r-regular graph
};

[[nodiscard]] const char* to_string(Icn2Kind kind);

/// Parse the user-facing kind vocabulary of the scenario INI key `icn2`:
/// fat_tree | fat-tree | torus | mesh | dragonfly | random |
/// random_regular. "mesh" selects the torus generator and clears `wrap`;
/// "torus" sets it. Returns false on an unknown name (kind/wrap
/// untouched).
[[nodiscard]] bool parse_icn2_kind(const std::string& name, Icn2Kind& kind,
                                   bool& wrap);

/// Parameters of the selected ICN2. Zero-valued sizing fields are derived
/// from the cluster count: `switches` defaults to one switch per
/// concentrator (torus/random), torus rows x cols to the near-square
/// factorization, and the dragonfly arity to the smallest canonical size
/// that fits.
struct Icn2Config {
  Icn2Kind kind = Icn2Kind::kFatTree;
  int switches = 0;        ///< torus/random switch count; 0 = cluster count
  int torus_rows = 0;      ///< explicit torus shape (both or neither)
  int torus_cols = 0;
  bool torus_wrap = true;  ///< false degrades the torus to a mesh
  int degree = 0;          ///< random-regular r (0 = min(4, switches - 1))
                           ///< or dragonfly arity a (0 = smallest fitting)
  std::uint64_t seed = 1;  ///< random-regular wiring seed

  /// Display name: to_string(kind), except the unwrapped torus reads
  /// "mesh" (the wrap flag is the only thing distinguishing the two).
  [[nodiscard]] const char* label() const;

  friend bool operator==(const Icn2Config&, const Icn2Config&) = default;
};

/// Declarative system organization: one switch arity `m` for all networks
/// (as in the paper) and one tree height per cluster. Cluster sizes follow
/// from Eq. (1): N_i = 2*(m/2)^{n_i}.
struct SystemConfig {
  int m = 4;
  std::vector<int> cluster_heights;  ///< n_i, one entry per cluster
  Icn2Config icn2;                   ///< global network shape (default tree)

  // --- heterogeneous technology and load (defaults = homogeneous) --------
  /// Per-cluster channel-timing overrides for the cluster's ICN1 and ECN1
  /// (one entry per cluster, or empty for the shared technology). A
  /// cluster's two trees are cabled with one technology — the paper's
  /// reading of "each cluster brings its own network".
  std::vector<model::NetworkParamsOverride> cluster_net;
  /// Channel-timing override for the global ICN2 (a distinct wide-area /
  /// backbone technology).
  model::NetworkParamsOverride icn2_net;
  /// Per-cluster offered-load multipliers: nodes of cluster i generate at
  /// load_scale[i] * lambda_g (one entry per cluster, or empty for the
  /// paper's uniform load). Destination choice is unaffected — scaling
  /// changes how often a node talks, not to whom.
  std::vector<double> load_scale;

  /// Table 1, row 1: N=1120, C=32, m=8 — 12 clusters of height 1,
  /// 16 of height 2, 4 of height 3.
  [[nodiscard]] static SystemConfig table1_org_a();
  /// Table 1, row 2: N=544, C=16, m=4 — 8 clusters of height 3,
  /// 3 of height 4, 5 of height 5.
  [[nodiscard]] static SystemConfig table1_org_b();
  /// A homogeneous system: `clusters` clusters of equal height.
  [[nodiscard]] static SystemConfig homogeneous(int m, int height,
                                                int clusters);

  void validate() const;

  [[nodiscard]] int cluster_count() const {
    return static_cast<int>(cluster_heights.size());
  }
  /// N_i (Eq. 1).
  [[nodiscard]] std::int64_t cluster_size(int cluster) const;
  /// Switch count of one cluster-level tree (Eq. 2).
  [[nodiscard]] std::int64_t cluster_switches(int cluster) const;
  /// N = sum_i N_i.
  [[nodiscard]] std::int64_t total_nodes() const;
  /// ICN2 height n_c of the fat-tree kind: the paper requires
  /// C = 2*(m/2)^{n_c}; when C is not an exact tree population we take the
  /// smallest height that fits and leave the spare ICN2 endpoints idle.
  /// Meaningless (but well-defined) for the graph kinds.
  [[nodiscard]] int icn2_height() const;
  /// Eq. (13): probability a message born in cluster i leaves the cluster,
  /// P_o = (N - N_i) / (N - 1), from uniform destination choice.
  [[nodiscard]] double p_outgoing(int cluster) const;

  // --- heterogeneity accessors -------------------------------------------
  /// True when any per-cluster or ICN2 technology override is set.
  [[nodiscard]] bool heterogeneous_params() const;
  /// True when load_scale makes some cluster's offered load differ.
  [[nodiscard]] bool heterogeneous_load() const;
  /// Cluster i's effective channel timing: `shared` with the cluster's
  /// override applied (bit-identical pass-through when none is set).
  [[nodiscard]] model::NetworkParams cluster_params(
      int cluster, const model::NetworkParams& shared) const;
  /// The ICN2's effective channel timing.
  [[nodiscard]] model::NetworkParams icn2_params(
      const model::NetworkParams& shared) const;
  /// load_scale[cluster], or 1.0 when load_scale is empty.
  [[nodiscard]] double cluster_load_scale(int cluster) const;

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// Build the configured graph-kind ICN2 (routes ready) with one endpoint
/// per cluster. Throws mcs::ConfigError when `config.icn2.kind` is
/// kFatTree or the graph parameters are infeasible.
[[nodiscard]] ChannelGraph make_icn2_graph(const SystemConfig& config);

/// Build the configured ICN2, fat tree or graph kind; endpoint i is
/// cluster i's concentrator (a fat tree may have spare endpoints).
[[nodiscard]] std::unique_ptr<Network> make_icn2(const SystemConfig& config);

/// Fully constructed topology: per-cluster ICN1 and ECN1 fat trees (the
/// ECN1 carries the concentrator as an extra endpoint) plus the global
/// ICN2 — the configured fat tree or channel graph — whose endpoint i is
/// cluster i's concentrator.
class MultiClusterTopology {
 public:
  explicit MultiClusterTopology(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] const FatTree& icn1(int cluster) const {
    return *icn1_[static_cast<std::size_t>(cluster)];
  }
  [[nodiscard]] const FatTree& ecn1(int cluster) const {
    return *ecn1_[static_cast<std::size_t>(cluster)];
  }
  [[nodiscard]] const Network& icn2() const { return *icn2_; }

  /// The concentrator's endpoint id inside ecn1(cluster).
  [[nodiscard]] EndpointId concentrator_endpoint(int cluster) const {
    return conc_endpoint_[static_cast<std::size_t>(cluster)];
  }
  /// The concentrator's endpoint id inside icn2() (== cluster index).
  [[nodiscard]] EndpointId icn2_endpoint(int cluster) const {
    return static_cast<EndpointId>(cluster);
  }

  // --- global node addressing --------------------------------------------

  [[nodiscard]] std::int64_t total_nodes() const { return total_nodes_; }
  [[nodiscard]] std::int64_t global_id(int cluster,
                                       EndpointId local) const;
  /// Inverse of global_id: (cluster, local endpoint).
  [[nodiscard]] std::pair<int, EndpointId> locate(std::int64_t global) const;

 private:
  SystemConfig config_;
  std::vector<std::unique_ptr<FatTree>> icn1_;
  std::vector<std::unique_ptr<FatTree>> ecn1_;
  std::unique_ptr<Network> icn2_;
  std::vector<EndpointId> conc_endpoint_;
  std::vector<std::int64_t> first_global_;  ///< per cluster, plus sentinel
  std::int64_t total_nodes_ = 0;
};

}  // namespace mcs::topo
