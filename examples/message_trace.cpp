// Message trace: the life of one external message, hop by hop, at zero
// load — the three worm segments through ECN1 (source), ICN2 and ECN1
// (destination), with header and tail timing from the same single-flit
// buffer recurrence the simulator uses.
//
//   ./message_trace [--org=a|b] [--src=0] [--dst=600]
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <mcs/mcs.hpp>

namespace {

const char* kind_name(mcs::topo::ChannelKind kind) {
  switch (kind) {
    case mcs::topo::ChannelKind::kInjection: return "inject";
    case mcs::topo::ChannelKind::kEjection: return "eject";
    case mcs::topo::ChannelKind::kUp: return "up";
    case mcs::topo::ChannelKind::kDown: return "down";
  }
  return "?";
}

/// Zero-load header/tail times along one worm path (the engine's drain
/// recurrence without contention).
struct SegmentTiming {
  std::vector<double> header_done;  ///< per hop
  std::vector<double> tail_done;    ///< per hop
};

SegmentTiming time_segment(const std::vector<double>& service, int flits,
                           double start) {
  const std::size_t hops = service.size();
  SegmentTiming t;
  t.header_done.resize(hops);
  double now = start;
  std::vector<double> acquire(hops);
  for (std::size_t j = 0; j < hops; ++j) {
    acquire[j] = now;
    now += service[j];
    t.header_done[j] = now;
  }
  // Drain recurrence (see sim/engine.hpp).
  std::vector<double> prev(acquire), cur(hops);
  for (int f = 1; f < flits; ++f) {
    cur[0] = prev[0] + service[0];
    if (hops > 1) cur[0] = std::max(cur[0], prev[1]);
    for (std::size_t j = 1; j + 1 < hops; ++j)
      cur[j] = std::max(cur[j - 1] + service[j - 1], prev[j + 1]);
    if (hops > 1)
      cur[hops - 1] = std::max(cur[hops - 2] + service[hops - 2],
                               prev[hops - 1] + service[hops - 1]);
    std::swap(prev, cur);
  }
  t.tail_done.resize(hops);
  for (std::size_t j = 0; j < hops; ++j)
    t.tail_done[j] = prev[j] + service[j];
  return t;
}

void print_segment(const char* title, const mcs::topo::Network& tree,
                   mcs::topo::EndpointId src, mcs::topo::EndpointId dst,
                   const mcs::model::NetworkParams& params, double& clock) {
  const auto path = tree.route(src, dst);
  std::vector<double> service;
  for (const auto c : path)
    service.push_back(mcs::topo::is_node_link(tree.channel(c).kind)
                          ? params.t_cn()
                          : params.t_cs());
  const SegmentTiming timing =
      time_segment(service, params.message_flits, clock);

  std::printf("\n%s (endpoint %d -> %d, %zu channels)\n", title, src, dst,
              path.size());
  mcs::util::TextTable table(
      {"hop", "kind", "level", "via switch", "header done", "tail done"});
  for (std::size_t j = 0; j < path.size(); ++j) {
    const auto& ch = tree.channel(path[j]);
    const mcs::topo::SwitchId sw =
        ch.dst_switch >= 0 ? ch.dst_switch : ch.src_switch;
    // Appended piecewise: `"L" + std::to_string(...)` trips GCC 12's
    // -Wrestrict false positive (GCC bug 105651) at -O3.
    std::string via = "L";
    via += std::to_string(tree.switch_level(sw));
    via += '#';
    via += std::to_string(sw);
    table.add_row({std::to_string(j), kind_name(ch.kind),
                   std::to_string(ch.level), std::move(via),
                   mcs::util::TextTable::num(timing.header_done[j], 3),
                   mcs::util::TextTable::num(timing.tail_done[j], 3)});
  }
  table.print();
  clock = timing.tail_done.back();
}

}  // namespace

int main(int argc, char** argv) {
  const mcs::util::Args args(argc, argv);
  const auto config = args.get("org", "a") == "b"
                          ? mcs::topo::SystemConfig::table1_org_b()
                          : mcs::topo::SystemConfig::table1_org_a();
  const mcs::topo::MultiClusterTopology topo(config);
  const mcs::model::NetworkParams params;

  const std::int64_t src = args.get_int<std::int64_t>("src", 0);
  const std::int64_t dst =
      args.get_int("dst", topo.total_nodes() - 1);
  const auto [sc, sl] = topo.locate(src);
  const auto [dc, dl] = topo.locate(dst);

  std::printf("Tracing message: node %lld (cluster %d) -> node %lld "
              "(cluster %d), M=%d flits\n",
              static_cast<long long>(src), sc,
              static_cast<long long>(dst), dc, params.message_flits);

  double clock = 0.0;
  if (sc == dc) {
    print_segment("ICN1 (intra-cluster)", topo.icn1(sc), sl, dl, params,
                  clock);
  } else {
    print_segment("Leg 1: source ECN1 to concentrator", topo.ecn1(sc), sl,
                  topo.concentrator_endpoint(sc), params, clock);
    print_segment("Leg 2: ICN2 between concentrators", topo.icn2(),
                  topo.icn2_endpoint(sc), topo.icn2_endpoint(dc), params,
                  clock);
    print_segment("Leg 3: destination ECN1 to node", topo.ecn1(dc),
                  topo.concentrator_endpoint(dc), dl, params, clock);
  }
  std::printf("\nzero-load end-to-end latency: %.3f time units\n", clock);
  return 0;
}
