// E-T1: regenerate Table 1 ("System organizations for validation"),
// extended with the derived quantities the model consumes: per-cluster
// switch counts (Eq. 2), outgoing probabilities (Eq. 13), mean distances
// (Eqs. 8-9) and the ICN2 shape. No scenario emits these; the Table 1
// operating grid itself is `mcs_sweep table1`.
#include <cstdio>
#include <map>

#include <mcs/mcs.hpp>

namespace {

void print_org(const char* name, const mcs::topo::SystemConfig& cfg) {
  std::printf("=== Table 1 — organization %s ===\n", name);
  std::printf("N=%lld  C=%d  m=%d  ICN2: m-port %d-tree (%lld endpoints)\n",
              static_cast<long long>(cfg.total_nodes()), cfg.cluster_count(),
              cfg.m, cfg.icn2_height(),
              static_cast<long long>(
                  mcs::topo::TreeShape{cfg.m, cfg.icn2_height()}
                      .node_count()));

  // Group clusters by height, as the paper's "Node Organizations" column.
  std::map<int, int> by_height;
  for (int h : cfg.cluster_heights) ++by_height[h];

  mcs::util::TextTable table({"clusters", "n_i", "N_i (Eq.1)",
                              "N_sw,i (Eq.2)", "P_o (Eq.13)",
                              "d_avg (Eq.9)"});
  for (const auto& [height, count] : by_height) {
    const mcs::topo::TreeShape shape{cfg.m, height};
    // Find one representative cluster index with this height.
    int rep = 0;
    for (int i = 0; i < cfg.cluster_count(); ++i)
      if (cfg.cluster_heights[static_cast<std::size_t>(i)] == height) rep = i;
    table.add_row({std::to_string(count), std::to_string(height),
                   std::to_string(shape.node_count()),
                   std::to_string(shape.switch_count()),
                   mcs::util::TextTable::num(cfg.p_outgoing(rep), 4),
                   mcs::util::TextTable::num(shape.avg_distance(), 3)});
  }
  table.print();

  std::int64_t total = 0;
  std::int64_t switches = 0;
  for (int i = 0; i < cfg.cluster_count(); ++i) {
    total += cfg.cluster_size(i);
    switches += 2 * cfg.cluster_switches(i);  // ICN1 + ECN1 per cluster
  }
  switches += mcs::topo::TreeShape{cfg.m, cfg.icn2_height()}.switch_count();
  std::printf("check: sum N_i = %lld; switches (2x per cluster + ICN2) = "
              "%lld\n\n",
              static_cast<long long>(total),
              static_cast<long long>(switches));
}

}  // namespace

int main() {
  print_org("A (N=1120, C=32, m=8)",
            mcs::topo::SystemConfig::table1_org_a());
  print_org("B (N=544, C=16, m=4)",
            mcs::topo::SystemConfig::table1_org_b());
  return 0;
}
