// Umbrella header for the mcs library: analytical modeling and simulation
// of interconnection networks in heterogeneous multi-cluster systems
// (reproduction of Javadi, Abawajy, Akbari & Nahavandi, ICPP-W 2006).
//
// Quick start:
//
//   #include <mcs/mcs.hpp>
//
//   auto cfg = mcs::topo::SystemConfig::table1_org_a();
//   mcs::model::NetworkParams params;         // paper defaults
//   mcs::model::PaperModel model(cfg, params);
//   auto prediction = model.predict(/*lambda_g=*/2e-4);
//
//   mcs::topo::MultiClusterTopology topo(cfg);
//   mcs::sim::Simulator sim(topo, params, 2e-4, mcs::sim::SimConfig{});
//   auto measured = sim.run();
#pragma once

#include "exp/checkpoint.hpp"
#include "exp/explain.hpp"
#include "exp/result_cache.hpp"
#include "exp/saturation_search.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_cli.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_io.hpp"
#include "exp/thread_pool.hpp"
#include "model/bottleneck.hpp"
#include "model/breakdown.hpp"
#include "model/graph_load.hpp"
#include "model/icn2_funnel.hpp"
#include "model/latency.hpp"
#include "model/mg1.hpp"
#include "model/paper_model.hpp"
#include "model/params.hpp"
#include "model/refined_model.hpp"
#include "model/saturation.hpp"
#include "model/service_recursion.hpp"
#include "obs/anatomy.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/replication.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "topology/dragonfly.hpp"
#include "topology/fat_tree.hpp"
#include "topology/graph.hpp"
#include "topology/multi_cluster.hpp"
#include "topology/network.hpp"
#include "topology/random_regular.hpp"
#include "topology/routing.hpp"
#include "topology/torus.hpp"
#include "topology/tree_math.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
