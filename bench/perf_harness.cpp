#include "perf_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace mcs::bench {

namespace {

topo::SystemConfig hetero_tree_system() {
  topo::SystemConfig cfg;
  cfg.m = 4;
  cfg.cluster_heights = {2, 2, 3, 3};  // N = 8 + 8 + 16 + 16 = 48
  return cfg;
}

topo::SystemConfig torus_system() {
  topo::SystemConfig cfg = topo::SystemConfig::homogeneous(4, 2, 8);
  cfg.icn2.kind = topo::Icn2Kind::kTorus;  // 4x2 wrap by default sizing
  return cfg;
}

topo::SystemConfig large_system() {
  // 16 clusters x 16 nodes = 256 endpoints: the largest perf system, so
  // per-event costs that grow with the channel or node count show here.
  return topo::SystemConfig::homogeneous(4, 2, 16);
}

topo::SystemConfig hetero_tech_system() {
  // hetero_tree_system with per-cluster technologies and a skewed load:
  // exercises the per-net service table and per-cluster arrival-rate
  // paths (DESIGN.md §10) so they stay perf-gated like the rest.
  topo::SystemConfig cfg = hetero_tree_system();
  cfg.cluster_net.assign(4, {});
  cfg.cluster_net[0].beta_net = 0.001;  // fast small cluster
  cfg.cluster_net[1].beta_net = 0.001;
  cfg.cluster_net[2].beta_net = 0.004;  // slow big cluster
  cfg.cluster_net[2].alpha_sw = 0.02;
  cfg.cluster_net[3].beta_net = 0.004;
  cfg.cluster_net[3].alpha_sw = 0.02;
  cfg.icn2_net.alpha_net = 0.04;  // long-haul backbone
  cfg.icn2_net.beta_net = 0.001;
  cfg.load_scale = {2.0, 2.0, 0.75, 0.75};  // hot small clusters
  return cfg;
}

sim::SimConfig phases(bool smoke) {
  sim::SimConfig cfg;
  cfg.seed = 20060814;
  cfg.warmup_messages = smoke ? 1'000 : 10'000;
  cfg.measured_messages = smoke ? 6'000 : 100'000;
  cfg.batch_size = 1'000;
  return cfg;
}

}  // namespace

std::vector<PerfScenario> perf_scenarios(bool smoke) {
  std::vector<PerfScenario> scenarios;
  const sim::SimConfig base = phases(smoke);

  {
    PerfScenario s;
    s.id = "wormhole_fat_tree";
    s.description = "hetero m=4 {2,2,3,3}, wormhole, store-forward relays";
    s.system = hetero_tree_system();
    s.sim = base;
    s.lambda = 3e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "wormhole_torus";
    s.description = "homogeneous m=4 h=2 C=8, torus ICN2, wormhole";
    s.system = torus_system();
    s.sim = base;
    s.lambda = 3e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "saf_fat_tree";
    s.description = "hetero m=4 {2,2,3,3}, store-and-forward flow control";
    s.system = hetero_tree_system();
    s.sim = base;
    s.sim.flow_control = sim::FlowControl::kStoreAndForward;
    s.lambda = 1e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "saf_torus";
    s.description = "homogeneous m=4 h=2 C=8, torus ICN2, store-and-forward";
    s.system = torus_system();
    s.sim = base;
    s.sim.flow_control = sim::FlowControl::kStoreAndForward;
    s.lambda = 1e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "wormhole_cut_through";
    s.description = "hetero m=4 {2,2,3,3}, wormhole, cut-through relays";
    s.system = hetero_tree_system();
    s.sim = base;
    s.sim.relay_mode = sim::RelayMode::kCutThrough;
    s.lambda = 3e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "wormhole_hetero_tech";
    s.description =
        "hetero m=4 {2,2,3,3}, per-cluster technologies + skewed load";
    s.system = hetero_tech_system();
    s.sim = base;
    s.lambda = 3e-4;
    scenarios.push_back(std::move(s));
  }
  {
    PerfScenario s;
    s.id = "large_system_seq";
    s.description = "homogeneous m=4 h=2 C=16 (N=256), single-threaded";
    s.system = large_system();
    s.sim = base;
    s.lambda = 2e-4;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

PerfMeasurement measure(const PerfScenario& scenario, int repeats) {
  MCS_EXPECTS(repeats >= 1);
  const topo::MultiClusterTopology topology(scenario.system);
  const model::NetworkParams params;

  PerfMeasurement m;
  m.id = scenario.id;
  m.description = scenario.description;
  m.repeats = repeats;
  m.best_seconds = std::numeric_limits<double>::infinity();

  for (int r = 0; r < repeats; ++r) {
    // Construction (route tables, channel layout) stays outside the timed
    // region; only run() is measured.
    sim::Simulator simulator(topology, params, scenario.lambda, scenario.sim);
    // mcs-lint: allow(raw-entropy) wall time IS the measurement here; the
    // harness cross-checks event counts, not times, for bit-identity.
    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult result = simulator.run();
    const std::chrono::duration<double> elapsed =
        // mcs-lint: allow(raw-entropy) same timing measurement as above.
        std::chrono::steady_clock::now() - start;

    if (r == 0) {
      m.events = result.events_processed;
      m.events_by_kind = result.events_by_kind;
      m.worms = result.worms_spawned;
      m.latency_mean = result.latency.mean;
      m.saturated = result.saturated;
    } else {
      // Same seed + same code must replay the same simulation exactly;
      // a divergence means the build is unsound for benchmarking.
      MCS_ASSERT(m.events == result.events_processed);
      MCS_ASSERT(m.events_by_kind == result.events_by_kind);
      MCS_ASSERT(m.worms == result.worms_spawned);
      MCS_ASSERT(m.latency_mean == result.latency.mean);
    }
    m.best_seconds = std::min(m.best_seconds, elapsed.count());
  }

  m.events_per_sec = static_cast<double>(m.events) / m.best_seconds;
  m.worms_per_sec = static_cast<double>(m.worms) / m.best_seconds;
  return m;
}

void write_report_json(const PerfReport& report, std::ostream& out) {
  out << "{\n";
  out << "  \"bench\": \"mcs_perf\",\n";
  out << "  \"label\": \"" << report.label << "\",\n";
  out << "  \"threads_available\": " << report.threads_available << ",\n";
  out << "  \"manifest\": ";
  report.manifest.write_json(out, 4);
  out << ",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < report.measurements.size(); ++i) {
    const PerfMeasurement& m = report.measurements[i];
    out << "    {\n";
    out << "      \"id\": \"" << m.id << "\",\n";
    out << "      \"description\": \"" << m.description << "\",\n";
    out << "      \"repeats\": " << m.repeats << ",\n";
    out << "      \"best_seconds\": " << m.best_seconds << ",\n";
    out << "      \"events\": " << m.events << ",\n";
    out << "      \"events_by_kind\": [" << m.events_by_kind[0] << ", "
        << m.events_by_kind[1] << ", " << m.events_by_kind[2] << ", "
        << m.events_by_kind[3] << "],\n";
    out << "      \"worms\": " << m.worms << ",\n";
    out << "      \"events_per_sec\": " << m.events_per_sec << ",\n";
    out << "      \"worms_per_sec\": " << m.worms_per_sec << ",\n";
    out << "      \"latency_mean\": " << m.latency_mean << ",\n";
    out << "      \"saturated\": " << (m.saturated ? "true" : "false")
        << "\n";
    out << "    }" << (i + 1 < report.measurements.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void write_report_json_file(const PerfReport& report,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot write perf report '" + path + "'");
  write_report_json(report, out);
}

std::vector<std::pair<std::string, double>> read_baseline_worms_per_sec(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open perf baseline '" + path + "'");

  // Line-oriented extraction matching write_report_json's fixed layout —
  // not a general JSON parser, and intentionally strict about it.
  std::vector<std::pair<std::string, double>> out;
  std::string line;
  std::string pending_id;
  while (std::getline(in, line)) {
    const auto grab = [&](const std::string& key) -> std::string {
      const std::size_t at = line.find("\"" + key + "\":");
      if (at == std::string::npos) return "";
      std::string value = line.substr(at + key.size() + 3);
      while (!value.empty() &&
             (value.front() == ' ' || value.front() == '\"'))
        value.erase(value.begin());
      while (!value.empty() &&
             (value.back() == ',' || value.back() == '\"' ||
              value.back() == ' '))
        value.pop_back();
      return value;
    };
    if (const std::string id = grab("id"); !id.empty()) pending_id = id;
    if (const std::string wps = grab("worms_per_sec"); !wps.empty()) {
      if (pending_id.empty())
        throw ConfigError("malformed perf baseline '" + path +
                          "': worms_per_sec before any id");
      out.emplace_back(pending_id, std::strtod(wps.c_str(), nullptr));
      pending_id.clear();
    }
  }
  if (out.empty())
    throw ConfigError("perf baseline '" + path + "' contains no scenarios");
  return out;
}

std::vector<std::string> compare_to_baseline(const PerfReport& report,
                                             const std::string& baseline_path,
                                             double tolerance) {
  const auto baseline = read_baseline_worms_per_sec(baseline_path);
  std::vector<std::string> violations;

  for (const PerfMeasurement& m : report.measurements) {
    const auto it = std::find_if(
        baseline.begin(), baseline.end(),
        [&](const auto& entry) { return entry.first == m.id; });
    if (it == baseline.end()) {
      violations.push_back("scenario '" + m.id +
                           "' has no baseline entry (new workload? "
                           "regenerate the committed report)");
      continue;
    }
    const double floor = (1.0 - tolerance) * it->second;
    if (m.worms_per_sec < floor) {
      std::ostringstream msg;
      msg << "scenario '" << m.id << "' regressed: " << m.worms_per_sec
          << " worms/s vs baseline " << it->second << " (floor " << floor
          << ")";
      violations.push_back(msg.str());
    }
  }
  for (const auto& [id, wps] : baseline) {
    (void)wps;
    const bool present = std::any_of(
        report.measurements.begin(), report.measurements.end(),
        [&](const PerfMeasurement& m) { return m.id == id; });
    if (!present)
      violations.push_back("baseline scenario '" + id +
                           "' was not measured in this run");
  }
  return violations;
}

}  // namespace mcs::bench
