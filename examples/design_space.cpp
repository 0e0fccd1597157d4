// Design-space exploration — the use case the paper's conclusion names:
// "a practical evaluation tool that can help system designers explore the
// design space and examine various design parameters."
//
// Given a target machine size, enumerate the realizable homogeneous
// multi-cluster organizations (switch arity x cluster height x cluster
// count), evaluate them all in one parallel SweepRunner pass (zero-load
// latency + saturation knee per organization), and rank them by
// sustainable load, low-load latency and switch hardware cost.
//
//   ./design_space [--nodes=512] [--threads=N]
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <mcs/mcs.hpp>

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const std::int64_t target = args.get_int<std::int64_t>("nodes", 512);

  // Enumerate realizable homogeneous organizations as systems of one
  // scenario; the SweepRunner evaluates every candidate concurrently.
  mcs::exp::ScenarioSpec spec;
  spec.name = "design_space";
  spec.loads = {1e-9};  // zero-load probe point
  spec.run_sim = false;
  spec.run_paper_model = false;
  spec.run_refined_model = true;
  spec.find_knee = true;

  struct Candidate {
    int height;
    std::int64_t switches;
  };
  std::vector<Candidate> candidates;

  for (const int m : {4, 8, 16}) {
    for (int h = 1; h <= 6; ++h) {
      const mcs::topo::TreeShape shape{m, h};
      if (shape.node_count() > target) break;
      if (target % shape.node_count() != 0) continue;
      const auto c = static_cast<int>(target / shape.node_count());
      if (c < 2 || c > 512) continue;
      const auto config = mcs::topo::SystemConfig::homogeneous(m, h, c);
      // Hardware cost: ICN1 + ECN1 switches per cluster plus the ICN2.
      const std::int64_t switches =
          2 * c * shape.switch_count() +
          mcs::topo::TreeShape{m, config.icn2_height()}.switch_count();
      // Appended piecewise: `"m" + std::to_string(m)` trips GCC 12's
      // -Wrestrict false positive (GCC bug 105651) at -O3.
      std::string id = "m";
      id += std::to_string(m);
      id += "_h";
      id += std::to_string(h);
      spec.systems.push_back({std::move(id), config});
      candidates.push_back({h, switches});
    }
  }

  if (candidates.empty()) {
    std::printf("no homogeneous organization divides N=%lld evenly; try a "
                "power-of-two size\n",
                static_cast<long long>(target));
    return 0;
  }

  std::printf("=== Design space for N = %lld nodes (M=%d flits, L_m=%.0f "
              "bytes) ===\n",
              static_cast<long long>(target),
              spec.base_params.message_flits, spec.base_params.flit_bytes);

  const mcs::exp::SweepRunner runner(spec);
  mcs::exp::SweepRunOptions run_options;
  run_options.threads = args.get_int("threads", 0);
  const mcs::exp::SweepResult result = runner.run(run_options);

  mcs::util::TextTable table({"m", "cluster", "clusters", "switches",
                              "zero-load latency", "knee lambda*",
                              "knee x zero-load"});
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const mcs::exp::SweepRow& row = result.rows[i];
    const Candidate& cand = candidates[i];
    const mcs::topo::SystemConfig& config =
        spec.systems[static_cast<std::size_t>(row.system_idx)].config;
    table.add_row(
        {std::to_string(config.m),
         std::to_string(
             mcs::topo::TreeShape{config.m, cand.height}.node_count()) +
             " nodes",
         std::to_string(config.cluster_count()),
         std::to_string(cand.switches),
         mcs::util::TextTable::num(row.refined_latency, 1),
         mcs::util::TextTable::sci(row.knee_lambda, 2),
         // A crude figure of merit: throughput headroom per unit latency.
         mcs::util::TextTable::sci(row.knee_lambda / row.refined_latency,
                                   2)});
  }
  table.print();
  std::printf(
      "\nReading: larger clusters keep more traffic internal (higher knee\n"
      "per concentrator) but cost more switches per cluster; wider\n"
      "switches (m) flatten the trees, cutting both latency and cost. The\n"
      "last column is a throughput-per-latency figure of merit.\n");
  return 0;
}
