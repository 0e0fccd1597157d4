#include "topology/multi_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "topology/dragonfly.hpp"
#include "topology/random_regular.hpp"
#include "topology/torus.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::topo {

const char* to_string(Icn2Kind kind) {
  switch (kind) {
    case Icn2Kind::kFatTree: return "fat_tree";
    case Icn2Kind::kTorus: return "torus";
    case Icn2Kind::kDragonfly: return "dragonfly";
    case Icn2Kind::kRandomRegular: return "random";
  }
  return "?";
}

bool parse_icn2_kind(const std::string& name, Icn2Kind& kind, bool& wrap) {
  if (name == "fat_tree" || name == "fat-tree") {
    kind = Icn2Kind::kFatTree;
  } else if (name == "torus") {
    kind = Icn2Kind::kTorus;
    wrap = true;
  } else if (name == "mesh") {
    kind = Icn2Kind::kTorus;
    wrap = false;
  } else if (name == "dragonfly") {
    kind = Icn2Kind::kDragonfly;
  } else if (name == "random" || name == "random_regular") {
    kind = Icn2Kind::kRandomRegular;
  } else {
    return false;
  }
  return true;
}

const char* Icn2Config::label() const {
  if (kind == Icn2Kind::kTorus && !torus_wrap) return "mesh";
  return to_string(kind);
}

namespace {

/// Derived graph-ICN2 sizing — one defaulting rule shared by validation
/// and construction, so a config that validates is the config that
/// builds. Throws the parameter-level ConfigErrors; remaining generator
/// invariants (e.g. random-regular connectivity) surface at build time.
struct Icn2Plan {
  int switches = 0;     ///< torus (when rows unset) / random-regular
  int torus_rows = 0;   ///< 0: derive the near-square shape from switches
  int torus_cols = 0;
  int dragonfly_a = 0;
  int rr_degree = 0;
};

Icn2Plan plan_icn2(const SystemConfig& config) {
  const Icn2Config& icn2 = config.icn2;
  const int c = config.cluster_count();
  Icn2Plan plan;
  plan.switches = icn2.switches > 0 ? icn2.switches : c;
  switch (icn2.kind) {
    case Icn2Kind::kFatTree:
      break;
    case Icn2Kind::kTorus: {
      if ((icn2.torus_rows > 0) != (icn2.torus_cols > 0))
        throw ConfigError(
            "SystemConfig: torus ICN2 wants both rows and cols (or neither)");
      plan.torus_rows = icn2.torus_rows;
      plan.torus_cols = icn2.torus_cols;
      const int s = plan.torus_rows > 0 ? plan.torus_rows * plan.torus_cols
                                        : plan.switches;
      if (s < 2)
        throw ConfigError("SystemConfig: torus ICN2 needs >= 2 switches");
      break;
    }
    case Icn2Kind::kDragonfly: {
      plan.dragonfly_a =
          icn2.degree > 0 ? icn2.degree : dragonfly_arity_for(c);
      const long long a = plan.dragonfly_a;
      if (a < 2)
        throw ConfigError("SystemConfig: dragonfly ICN2 arity must be >= 2");
      if (a * a * (a * a + 1) < c)
        throw ConfigError("SystemConfig: dragonfly ICN2 arity " +
                          std::to_string(a) + " cannot host " +
                          std::to_string(c) + " concentrators");
      break;
    }
    case Icn2Kind::kRandomRegular: {
      plan.rr_degree =
          icn2.degree > 0 ? icn2.degree : std::min(4, plan.switches - 1);
      if (plan.switches < 3)
        throw ConfigError(
            "SystemConfig: random-regular ICN2 needs >= 3 switches");
      if (plan.rr_degree < 2 || plan.rr_degree >= plan.switches)
        throw ConfigError(
            "SystemConfig: random-regular ICN2 degree must be in [2, " +
            std::to_string(plan.switches - 1) + "], got " +
            std::to_string(plan.rr_degree));
      if ((static_cast<long long>(plan.switches) * plan.rr_degree) % 2 != 0)
        throw ConfigError(
            "SystemConfig: random-regular ICN2 switches * degree must be "
            "even");
      break;
    }
  }
  return plan;
}

}  // namespace

ChannelGraph make_icn2_graph(const SystemConfig& config) {
  const int c = config.cluster_count();
  const Icn2Plan plan = plan_icn2(config);
  switch (config.icn2.kind) {
    case Icn2Kind::kFatTree:
      throw ConfigError(
          "make_icn2_graph: the fat-tree ICN2 is not a channel graph");
    case Icn2Kind::kTorus:
      if (plan.torus_rows > 0)
        return make_torus(plan.torus_rows, plan.torus_cols,
                          config.icn2.torus_wrap, c);
      return make_torus(plan.switches, config.icn2.torus_wrap, c);
    case Icn2Kind::kDragonfly:
      return make_dragonfly(plan.dragonfly_a, c);
    case Icn2Kind::kRandomRegular:
      return make_random_regular(plan.switches, plan.rr_degree,
                                 config.icn2.seed, c);
  }
  throw ConfigError("make_icn2_graph: unknown ICN2 kind");
}

std::unique_ptr<Network> make_icn2(const SystemConfig& config) {
  if (config.icn2.kind == Icn2Kind::kFatTree)
    return std::make_unique<FatTree>(
        TreeShape{config.m, config.icn2_height()});
  return std::make_unique<ChannelGraph>(make_icn2_graph(config));
}

SystemConfig SystemConfig::table1_org_a() {
  SystemConfig cfg;
  cfg.m = 8;
  cfg.cluster_heights.assign(12, 1);
  cfg.cluster_heights.insert(cfg.cluster_heights.end(), 16, 2);
  cfg.cluster_heights.insert(cfg.cluster_heights.end(), 4, 3);
  return cfg;
}

SystemConfig SystemConfig::table1_org_b() {
  SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights.assign(8, 3);
  cfg.cluster_heights.insert(cfg.cluster_heights.end(), 3, 4);
  cfg.cluster_heights.insert(cfg.cluster_heights.end(), 5, 5);
  return cfg;
}

SystemConfig SystemConfig::homogeneous(int m, int height, int clusters) {
  SystemConfig cfg;
  cfg.m = m;
  cfg.cluster_heights.assign(static_cast<std::size_t>(clusters), height);
  return cfg;
}

void SystemConfig::validate() const {
  if (cluster_heights.size() < 2)
    throw ConfigError("SystemConfig: need at least 2 clusters, got " +
                      std::to_string(cluster_heights.size()));
  for (int h : cluster_heights) TreeShape{m, h}.validate();
  if (icn2.kind == Icn2Kind::kFatTree)
    TreeShape{m, icn2_height()}.validate();
  else
    // Parameter feasibility only; the build (topology or model
    // construction) enforces the remaining generator invariants.
    static_cast<void>(plan_icn2(*this));
  if (total_nodes() < 2)
    throw ConfigError("SystemConfig: need at least 2 nodes");
  if (!cluster_net.empty() && cluster_net.size() != cluster_heights.size())
    throw ConfigError(
        "SystemConfig: cluster_net wants one override per cluster (" +
        std::to_string(cluster_heights.size()) + "), got " +
        std::to_string(cluster_net.size()));
  for (const model::NetworkParamsOverride& net : cluster_net) net.validate();
  icn2_net.validate();
  if (!load_scale.empty() && load_scale.size() != cluster_heights.size())
    throw ConfigError(
        "SystemConfig: load_scale wants one multiplier per cluster (" +
        std::to_string(cluster_heights.size()) + "), got " +
        std::to_string(load_scale.size()));
  for (const double s : load_scale)
    if (!(s > 0.0) || !std::isfinite(s))
      throw ConfigError(
          "SystemConfig: load_scale entries must be finite and > 0");
}

bool SystemConfig::heterogeneous_params() const {
  if (icn2_net.any()) return true;
  for (const model::NetworkParamsOverride& net : cluster_net)
    if (net.any()) return true;
  return false;
}

bool SystemConfig::heterogeneous_load() const {
  for (const double s : load_scale)
    if (s != 1.0) return true;
  return false;
}

model::NetworkParams SystemConfig::cluster_params(
    int cluster, const model::NetworkParams& shared) const {
  MCS_EXPECTS(cluster >= 0 && cluster < cluster_count());
  if (cluster_net.empty()) return shared;
  return cluster_net[static_cast<std::size_t>(cluster)].apply(shared);
}

model::NetworkParams SystemConfig::icn2_params(
    const model::NetworkParams& shared) const {
  return icn2_net.apply(shared);
}

double SystemConfig::cluster_load_scale(int cluster) const {
  MCS_EXPECTS(cluster >= 0 && cluster < cluster_count());
  if (load_scale.empty()) return 1.0;
  return load_scale[static_cast<std::size_t>(cluster)];
}

std::int64_t SystemConfig::cluster_size(int cluster) const {
  MCS_EXPECTS(cluster >= 0 && cluster < cluster_count());
  return TreeShape{m, cluster_heights[static_cast<std::size_t>(cluster)]}
      .node_count();
}

std::int64_t SystemConfig::cluster_switches(int cluster) const {
  MCS_EXPECTS(cluster >= 0 && cluster < cluster_count());
  return TreeShape{m, cluster_heights[static_cast<std::size_t>(cluster)]}
      .switch_count();
}

std::int64_t SystemConfig::total_nodes() const {
  std::int64_t total = 0;
  for (int i = 0; i < cluster_count(); ++i) total += cluster_size(i);
  return total;
}

int SystemConfig::icn2_height() const {
  return min_height_for(m, cluster_count());
}

double SystemConfig::p_outgoing(int cluster) const {
  const auto n = static_cast<double>(total_nodes());
  const auto ni = static_cast<double>(cluster_size(cluster));
  return (n - ni) / (n - 1.0);
}

MultiClusterTopology::MultiClusterTopology(SystemConfig config)
    : config_(std::move(config)) {
  config_.validate();
  const int c = config_.cluster_count();
  icn1_.reserve(static_cast<std::size_t>(c));
  ecn1_.reserve(static_cast<std::size_t>(c));
  conc_endpoint_.reserve(static_cast<std::size_t>(c));
  first_global_.reserve(static_cast<std::size_t>(c) + 1);

  std::int64_t next_global = 0;
  for (int i = 0; i < c; ++i) {
    const TreeShape shape{config_.m,
                          config_.cluster_heights[static_cast<std::size_t>(i)]};
    icn1_.push_back(std::make_unique<FatTree>(shape));
    auto ecn = std::make_unique<FatTree>(shape);
    conc_endpoint_.push_back(ecn->attach_extra_endpoint());
    ecn1_.push_back(std::move(ecn));
    first_global_.push_back(next_global);
    next_global += shape.node_count();
  }
  first_global_.push_back(next_global);
  total_nodes_ = next_global;

  icn2_ = make_icn2(config_);
  MCS_ENSURES(icn2_->total_endpoints() >= c);
}

std::int64_t MultiClusterTopology::global_id(int cluster,
                                             EndpointId local) const {
  MCS_EXPECTS(cluster >= 0 && cluster < config_.cluster_count());
  MCS_EXPECTS(local >= 0 &&
              local < icn1_[static_cast<std::size_t>(cluster)]
                          ->endpoint_count());
  return first_global_[static_cast<std::size_t>(cluster)] + local;
}

std::pair<int, EndpointId> MultiClusterTopology::locate(
    std::int64_t global) const {
  MCS_EXPECTS(global >= 0 && global < total_nodes_);
  const auto it =
      std::upper_bound(first_global_.begin(), first_global_.end(), global);
  const int cluster = static_cast<int>(it - first_global_.begin()) - 1;
  const auto local = static_cast<EndpointId>(
      global - first_global_[static_cast<std::size_t>(cluster)]);
  return {cluster, local};
}

}  // namespace mcs::topo
