#include "exp/scenario.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace mcs::exp {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_list(const std::string& s, char sep = ',') {
  std::vector<std::string> parts;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep)) {
    item = trim(item);
    if (!item.empty()) parts.push_back(item);
  }
  return parts;
}

[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& what) {
  throw ConfigError(source + ":" + std::to_string(line) + ": " + what);
}

/// "did you mean ...?" suffix for an unrecognized name, ranked by edit
/// distance over the vocabulary that is legal in this position. Empty when
/// nothing is plausibly close (then the bare error stands).
std::string suggest(const std::string& name,
                    const std::vector<std::string>& known) {
  const std::vector<std::string> close = util::closest_matches(name, known);
  if (close.empty()) return "";
  std::string hint = "; did you mean";
  for (std::size_t i = 0; i < close.size(); ++i)
    hint += (i == 0 ? " '" : ", '") + close[i] + "'";
  hint += "?";
  return hint;
}

[[noreturn]] void fail_unknown(const std::string& source, int line,
                               const std::string& what,
                               const std::string& name,
                               const std::vector<std::string>& known) {
  fail(source, line, what + " '" + name + "'" + suggest(name, known));
}

const std::vector<std::string>& sweep_keys() {
  static const std::vector<std::string> keys = {
      "name",      "seed",       "replications", "warmup",
      "measured",  "message_flits", "flit_bytes", "loads",
      "load_grid", "knee_loads", "models",       "sim",          "knee",
      "find_saturation",         "relay",        "flow",
      "alpha_net", "alpha_sw",   "beta_net"};
  return keys;
}

const std::vector<std::string>& search_keys() {
  static const std::vector<std::string> keys = {
      "rel_precision", "r_min", "r_max", "warmup", "rel_tol", "blowup"};
  return keys;
}

const std::vector<std::string>& observe_keys() {
  static const std::vector<std::string> keys = {
      "probe_interval", "probe_max_samples", "trace_sample",
      "trace_max_events"};
  return keys;
}

sim::WarmupDeletion parse_warmup_deletion(const std::string& source, int line,
                                          const std::string& value) {
  if (value == "off") return sim::WarmupDeletion::kOff;
  if (value == "mser5") return sim::WarmupDeletion::kMser5;
  fail(source, line,
       "unknown warmup deletion mode '" + value + "'; expected off, mser5");
}

const std::vector<std::string>& system_keys() {
  static const std::vector<std::string> keys = {
      "preset",     "m",         "height",        "clusters",
      "heights",    "icn2",      "icn2_switches", "icn2_rows",
      "icn2_cols",  "icn2_wrap", "icn2_degree",   "icn2_seed"};
  return keys;
}

const std::vector<std::string>& pattern_keys() {
  static const std::vector<std::string> keys = {
      "kind", "hotspot_fraction", "hotspot_node", "local_fraction",
      "cluster_shift"};
  return keys;
}

const std::vector<std::string>& cluster_keys() {
  static const std::vector<std::string> keys = {
      "alpha_net", "alpha_sw", "beta_net", "flit_bytes", "load_scale"};
  return keys;
}

const std::vector<std::string>& icn2_params_keys() {
  static const std::vector<std::string> keys = {"alpha_net", "alpha_sw",
                                                "beta_net", "flit_bytes"};
  return keys;
}

/// util::parse_int / parse_double located at `source:line`.
template <typename T>
T parse_int(const std::string& source, int line, const std::string& value) {
  return util::parse_int<T>(value, source + ":" + std::to_string(line));
}

double parse_double(const std::string& source, int line,
                    const std::string& value) {
  return util::parse_double(value, source + ":" + std::to_string(line));
}

bool parse_bool(const std::string& source, int line,
                const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on")
    return true;
  if (value == "false" || value == "0" || value == "no" || value == "off")
    return false;
  fail(source, line, "expected a boolean, got '" + value + "'");
}

sim::RelayMode parse_relay(const std::string& source, int line,
                           const std::string& value) {
  if (value == "store_forward" || value == "store-forward")
    return sim::RelayMode::kStoreForward;
  if (value == "cut_through" || value == "cut-through")
    return sim::RelayMode::kCutThrough;
  fail(source, line, "unknown relay mode '" + value + "'");
}

sim::FlowControl parse_flow(const std::string& source, int line,
                            const std::string& value) {
  if (value == "wormhole") return sim::FlowControl::kWormhole;
  if (value == "store_and_forward" || value == "store-and-forward")
    return sim::FlowControl::kStoreAndForward;
  fail(source, line, "unknown flow control '" + value + "'");
}

// State of one in-progress [cluster.<i>] sub-section.
struct ClusterSection {
  int index = 0;
  int line = 0;
  model::NetworkParamsOverride net;
  double load_scale = -1.0;  ///< < 0 = unset
};

// State of one in-progress [system <id>] section (including its
// [cluster.<i>] / [icn2_params] sub-sections).
struct SystemDraft {
  std::string id;
  int line = 0;  ///< section header line (for error reporting)
  std::string preset;
  int m = 0;
  int height = 0;
  int clusters = 0;
  std::vector<int> heights;
  topo::Icn2Config icn2;
  /// An explicit icn2_wrap wins over the wrap implied by
  /// `icn2 = torus|mesh`, regardless of key order.
  bool wrap_set = false;
  bool wrap_value = true;
  bool seed_set = false;
  std::vector<ClusterSection> cluster_sections;
  model::NetworkParamsOverride icn2_net;
  bool icn2_params_seen = false;
  int icn2_params_line = 0;
};

/// A knob the selected ICN2 kind never reads is a silent no-op — the
/// author believes they shaped the topology. Fail loudly instead.
void check_icn2_params(const std::string& source, const SystemDraft& d) {
  const topo::Icn2Config& icn2 = d.icn2;
  auto reject = [&](const char* key) {
    fail(source, d.line,
         "[system " + d.id + "]: " + key + " has no effect with icn2 = " +
             std::string(icn2.label()));
  };
  const bool torus_shape = icn2.torus_rows > 0 || icn2.torus_cols > 0;
  switch (icn2.kind) {
    case topo::Icn2Kind::kFatTree:
      if (icn2.switches > 0) reject("icn2_switches");
      if (torus_shape) reject("icn2_rows/icn2_cols");
      if (d.wrap_set) reject("icn2_wrap");
      if (icn2.degree > 0) reject("icn2_degree");
      if (d.seed_set) reject("icn2_seed");
      break;
    case topo::Icn2Kind::kTorus:
      if (icn2.degree > 0) reject("icn2_degree");
      if (d.seed_set) reject("icn2_seed");
      break;
    case topo::Icn2Kind::kDragonfly:
      if (icn2.switches > 0) reject("icn2_switches");
      if (torus_shape) reject("icn2_rows/icn2_cols");
      if (d.wrap_set) reject("icn2_wrap");
      if (d.seed_set) reject("icn2_seed");
      break;
    case topo::Icn2Kind::kRandomRegular:
      if (torus_shape) reject("icn2_rows/icn2_cols");
      if (d.wrap_set) reject("icn2_wrap");
      break;
  }
}

topo::SystemConfig finish_system(const std::string& source,
                                 const SystemDraft& d) {
  topo::SystemConfig config;
  if (d.preset == "table1_org_a") {
    config = topo::SystemConfig::table1_org_a();
  } else if (d.preset == "table1_org_b") {
    config = topo::SystemConfig::table1_org_b();
  } else if (d.preset == "homogeneous") {
    if (d.m <= 0 || d.height <= 0 || d.clusters <= 0)
      fail(source, d.line,
           "[system " + d.id +
               "]: preset homogeneous needs m, height and clusters");
    config = topo::SystemConfig::homogeneous(d.m, d.height, d.clusters);
  } else if (!d.preset.empty()) {
    fail(source, d.line,
         "[system " + d.id + "]: unknown preset '" + d.preset + "'" +
             suggest(d.preset,
                     {"table1_org_a", "table1_org_b", "homogeneous"}));
  } else {
    if (d.m <= 0 || d.heights.empty())
      fail(source, d.line,
           "[system " + d.id + "]: need either a preset or m plus heights");
    config.m = d.m;
    config.cluster_heights = d.heights;
  }
  check_icn2_params(source, d);
  config.icn2 = d.icn2;
  if (d.wrap_set) config.icn2.torus_wrap = d.wrap_value;

  // Resolve the [cluster.<i>] / [icn2_params] sub-sections now that the
  // cluster count is known. Only the dimensions actually used are
  // populated, so a file without sub-sections yields the exact
  // homogeneous default config.
  const int c_count = static_cast<int>(config.cluster_heights.size());
  bool any_net = false;
  bool any_scale = false;
  for (const ClusterSection& cs : d.cluster_sections) {
    if (cs.index < 0 || cs.index >= c_count)
      fail(source, cs.line,
           "[cluster." + std::to_string(cs.index) + "]: system '" + d.id +
               "' has clusters 0.." + std::to_string(c_count - 1));
    if (!cs.net.any() && cs.load_scale < 0.0)
      fail(source, cs.line,
           "[cluster." + std::to_string(cs.index) +
               "]: empty override (set alpha_net, alpha_sw, beta_net, "
               "flit_bytes or load_scale)");
    any_net = any_net || cs.net.any();
    any_scale = any_scale || cs.load_scale >= 0.0;
  }
  if (any_net)
    config.cluster_net.assign(static_cast<std::size_t>(c_count), {});
  if (any_scale)
    config.load_scale.assign(static_cast<std::size_t>(c_count), 1.0);
  for (const ClusterSection& cs : d.cluster_sections) {
    if (cs.net.any())
      config.cluster_net[static_cast<std::size_t>(cs.index)] = cs.net;
    if (cs.load_scale >= 0.0)
      config.load_scale[static_cast<std::size_t>(cs.index)] = cs.load_scale;
  }
  if (d.icn2_params_seen && !d.icn2_net.any())
    fail(source, d.icn2_params_line,
         "[icn2_params]: empty override (set alpha_net, alpha_sw, beta_net "
         "or flit_bytes)");
  config.icn2_net = d.icn2_net;
  return config;
}

struct PatternDraft {
  std::string id;
  int line = 0;
  bool kind_set = false;
  sim::TrafficPattern pattern;
};

}  // namespace

void ScenarioSpec::validate() const {
  if (systems.empty()) throw ConfigError("ScenarioSpec: no [system] section");
  for (const SystemEntry& s : systems) s.config.validate();
  if (message_flits.empty())
    throw ConfigError("ScenarioSpec: message_flits list is empty");
  for (const int m : message_flits)
    if (m < 1) throw ConfigError("ScenarioSpec: message_flits must be >= 1");
  if (flit_bytes.empty())
    throw ConfigError("ScenarioSpec: flit_bytes list is empty");
  for (const double b : flit_bytes)
    if (b <= 0) throw ConfigError("ScenarioSpec: flit_bytes must be > 0");
  if (relay_modes.empty())
    throw ConfigError("ScenarioSpec: relay list is empty");
  if (flow_controls.empty())
    throw ConfigError("ScenarioSpec: flow list is empty");
  if (loads.empty()) throw ConfigError("ScenarioSpec: no loads given");
  for (const double l : loads)
    if (l <= 0.0) throw ConfigError("ScenarioSpec: loads must be > 0");
  if (replications < 1)
    throw ConfigError("ScenarioSpec: replications must be >= 1");
  if (warmup < 0) throw ConfigError("ScenarioSpec: warmup must be >= 0");
  if (measured < 1) throw ConfigError("ScenarioSpec: measured must be >= 1");
  if (!run_sim && !run_paper_model && !run_refined_model &&
      !find_sim_saturation)
    throw ConfigError("ScenarioSpec: nothing to evaluate "
                      "(sim, both models and find_saturation disabled)");
  search.validate();  // the [search] block, in SaturationSearch's terms
  probe.validate();   // the [observe] block, in the obs layer's terms
  trace.validate();
  base_params.validate();
  // Patterns are validated against each concrete topology by the runner
  // (validity depends on cluster sizes); here we only check ranges that
  // are topology-independent via a representative check in the runner.
}

std::int64_t ScenarioSpec::grid_size() const {
  const std::int64_t patterns_n =
      patterns.empty() ? 1 : static_cast<std::int64_t>(patterns.size());
  return static_cast<std::int64_t>(systems.size()) *
         static_cast<std::int64_t>(message_flits.size()) *
         static_cast<std::int64_t>(flit_bytes.size()) * patterns_n *
         static_cast<std::int64_t>(relay_modes.size()) *
         static_cast<std::int64_t>(flow_controls.size()) *
         static_cast<std::int64_t>(loads.size());
}

ScenarioSpec parse_scenario(std::istream& in, const std::string& source) {
  ScenarioSpec spec;
  spec.message_flits.clear();
  spec.flit_bytes.clear();
  spec.relay_modes.clear();
  spec.flow_controls.clear();

  // kCluster / kIcn2Params are sub-sections of the still-open [system]
  // draft: they extend it rather than closing it.
  enum class Section { kNone, kSweep, kSystem, kCluster, kIcn2Params,
                       kPattern, kSearch, kObserve };
  bool search_seen = false;
  bool observe_seen = false;
  Section section = Section::kNone;
  SystemDraft system;
  PatternDraft pattern;
  const auto in_system = [&] {
    return section == Section::kSystem || section == Section::kCluster ||
           section == Section::kIcn2Params;
  };

  // List-valued [sweep] keys replace the whole list, so a repeat is a
  // copy-paste error (it would silently multiply the grid). loads and
  // load_grid are accumulative by design and may repeat.
  std::vector<std::string> seen_list_keys;
  // The first load key seen (loads / load_grid / knee_loads), for the
  // error that rejects mixing absolute and knee-relative loads.
  std::string load_key;

  auto flush_section = [&] {
    if (in_system())
      spec.systems.push_back({system.id, finish_system(source, system)});
    if (section == Section::kPattern) {
      if (!pattern.kind_set)
        fail(source, pattern.line,
             "[pattern " + pattern.id + "]: missing kind");
      spec.patterns.push_back({pattern.id, pattern.pattern});
    }
  };

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments (# and ;) and whitespace.
    std::size_t cut = raw.find_first_of("#;");
    std::string line = trim(cut == std::string::npos ? raw : raw.substr(0, cut));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']')
        fail(source, line_no, "unterminated section header");
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "sweep") {
        flush_section();
        section = Section::kSweep;
      } else if (header == "search") {
        flush_section();
        if (search_seen)
          fail(source, line_no, "duplicate [search] section");
        search_seen = true;
        section = Section::kSearch;
      } else if (header == "observe") {
        flush_section();
        if (observe_seen)
          fail(source, line_no, "duplicate [observe] section");
        observe_seen = true;
        section = Section::kObserve;
      } else if (header.rfind("cluster.", 0) == 0) {
        // Sub-section of the open [system]: do NOT flush it.
        if (!in_system())
          fail(source, line_no,
               "[" + header + "] must follow a [system <id>] section");
        ClusterSection cs;
        cs.index = parse_int<int>(source, line_no, trim(header.substr(8)));
        cs.line = line_no;
        for (const ClusterSection& seen : system.cluster_sections)
          if (seen.index == cs.index)
            fail(source, line_no,
                 "duplicate [cluster." + std::to_string(cs.index) +
                     "] in system '" + system.id + "'");
        system.cluster_sections.push_back(cs);
        section = Section::kCluster;
      } else if (header == "icn2_params") {
        if (!in_system())
          fail(source, line_no,
               "[icn2_params] must follow a [system <id>] section");
        if (system.icn2_params_seen)
          fail(source, line_no,
               "duplicate [icn2_params] in system '" + system.id + "'");
        system.icn2_params_seen = true;
        system.icn2_params_line = line_no;
        section = Section::kIcn2Params;
      } else if (header.rfind("system", 0) == 0) {
        flush_section();
        section = Section::kSystem;
        system = SystemDraft{};
        system.id = trim(header.substr(6));
        system.line = line_no;
        if (system.id.empty())
          fail(source, line_no, "[system] needs an id: [system <id>]");
        for (const SystemEntry& s : spec.systems)
          if (s.id == system.id)
            fail(source, line_no, "duplicate system id '" + system.id + "'");
      } else if (header.rfind("pattern", 0) == 0) {
        flush_section();
        section = Section::kPattern;
        pattern = PatternDraft{};
        pattern.id = trim(header.substr(7));
        pattern.line = line_no;
        if (pattern.id.empty())
          fail(source, line_no, "[pattern] needs an id: [pattern <id>]");
        for (const PatternEntry& p : spec.patterns)
          if (p.id == pattern.id)
            fail(source, line_no, "duplicate pattern id '" + pattern.id + "'");
      } else {
        fail(source, line_no,
             "unknown section [" + header + "]" +
                 suggest(header, {"sweep", "system", "pattern", "cluster.0",
                                  "icn2_params", "search", "observe"}));
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      fail(source, line_no, "expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty())
      fail(source, line_no, "empty key or value");

    switch (section) {
      case Section::kNone:
        fail(source, line_no, "key outside any section: '" + key + "'");

      case Section::kSweep: {
        if (key == "message_flits" || key == "flit_bytes" ||
            key == "models" || key == "relay" || key == "flow" ||
            key == "knee_loads") {
          for (const std::string& seen : seen_list_keys)
            if (seen == key)
              fail(source, line_no, "duplicate [sweep] key '" + key + "'");
          seen_list_keys.push_back(key);
        }
        if (key == "loads" || key == "load_grid" || key == "knee_loads") {
          // Absolute and knee-relative loads cannot share one grid: the
          // runner scales every load point by the knee or none.
          const bool relative = key == "knee_loads";
          const std::string& other = relative ? load_key : key;
          if (!load_key.empty() && (load_key == "knee_loads") != relative)
            fail(source, line_no, "knee_loads cannot be combined with " + other);
          if (load_key.empty()) load_key = key;
        }
        if (key == "name") {
          spec.name = value;
        } else if (key == "seed") {
          spec.seed = static_cast<std::uint64_t>(
              parse_int<std::int64_t>(source, line_no, value));
        } else if (key == "replications") {
          spec.replications = parse_int<int>(source, line_no, value);
        } else if (key == "warmup") {
          spec.warmup = parse_int<std::int64_t>(source, line_no, value);
        } else if (key == "measured") {
          spec.measured = parse_int<std::int64_t>(source, line_no, value);
        } else if (key == "message_flits") {
          for (const std::string& v : split_list(value))
            spec.message_flits.push_back(parse_int<int>(source, line_no, v));
        } else if (key == "flit_bytes") {
          for (const std::string& v : split_list(value))
            spec.flit_bytes.push_back(parse_double(source, line_no, v));
        } else if (key == "loads") {
          for (const std::string& v : split_list(value))
            spec.loads.push_back(parse_double(source, line_no, v));
        } else if (key == "load_grid") {
          // step : count, expanding to {s/4, s/2, s, 2s, ..., count*s}:
          // two sub-step points sample the steady low-load region, then
          // the paper's axis grid.
          const std::vector<std::string> parts = split_list(value, ':');
          if (parts.size() != 2)
            fail(source, line_no, "load_grid wants '<step> : <count>'");
          const double step = parse_double(source, line_no, parts[0]);
          const auto count = parse_int<long long>(source, line_no, parts[1]);
          if (step <= 0.0 || count < 1)
            fail(source, line_no, "load_grid wants step > 0 and count >= 1");
          spec.loads.push_back(0.25 * step);
          spec.loads.push_back(0.5 * step);
          for (long long i = 1; i <= count; ++i)
            spec.loads.push_back(step * static_cast<double>(i));
        } else if (key == "knee_loads") {
          spec.knee_relative_loads = true;
          for (const std::string& v : split_list(value)) {
            const double f = parse_double(source, line_no, v);
            if (f <= 0.0)
              fail(source, line_no, "knee_loads fractions must be > 0, got '" +
                                        v + "'");
            spec.loads.push_back(f);
          }
          if (spec.loads.empty())
            fail(source, line_no, "knee_loads lists no fractions");
        } else if (key == "models") {
          spec.run_paper_model = false;
          spec.run_refined_model = false;
          for (const std::string& v : split_list(value)) {
            if (v == "paper")
              spec.run_paper_model = true;
            else if (v == "refined")
              spec.run_refined_model = true;
            else if (v == "none")
              ;  // keep both disabled
            else
              fail(source, line_no, "unknown model '" + v + "'");
          }
        } else if (key == "sim") {
          spec.run_sim = parse_bool(source, line_no, value);
        } else if (key == "knee") {
          spec.find_knee = parse_bool(source, line_no, value);
        } else if (key == "find_saturation") {
          spec.find_sim_saturation = parse_bool(source, line_no, value);
        } else if (key == "relay") {
          for (const std::string& v : split_list(value))
            spec.relay_modes.push_back(parse_relay(source, line_no, v));
        } else if (key == "flow") {
          for (const std::string& v : split_list(value))
            spec.flow_controls.push_back(parse_flow(source, line_no, v));
        } else if (key == "alpha_net") {
          spec.base_params.alpha_net = parse_double(source, line_no, value);
        } else if (key == "alpha_sw") {
          spec.base_params.alpha_sw = parse_double(source, line_no, value);
        } else if (key == "beta_net") {
          spec.base_params.beta_net = parse_double(source, line_no, value);
        } else {
          fail_unknown(source, line_no, "unknown [sweep] key", key,
                       sweep_keys());
        }
        break;
      }

      case Section::kSystem: {
        if (key == "preset") {
          system.preset = value;
        } else if (key == "m") {
          system.m = parse_int<int>(source, line_no, value);
        } else if (key == "height") {
          system.height = parse_int<int>(source, line_no, value);
        } else if (key == "clusters") {
          system.clusters = parse_int<int>(source, line_no, value);
        } else if (key == "heights") {
          for (const std::string& v : split_list(value))
            system.heights.push_back(parse_int<int>(source, line_no, v));
        } else if (key == "icn2") {
          if (!topo::parse_icn2_kind(value, system.icn2.kind,
                                     system.icn2.torus_wrap))
            fail_unknown(source, line_no, "unknown icn2 kind", value,
                         {"fat_tree", "torus", "mesh", "dragonfly",
                          "random_regular"});
        } else if (key == "icn2_switches") {
          system.icn2.switches = parse_int<int>(source, line_no, value);
        } else if (key == "icn2_rows") {
          system.icn2.torus_rows = parse_int<int>(source, line_no, value);
        } else if (key == "icn2_cols") {
          system.icn2.torus_cols = parse_int<int>(source, line_no, value);
        } else if (key == "icn2_wrap") {
          system.wrap_set = true;
          system.wrap_value = parse_bool(source, line_no, value);
        } else if (key == "icn2_degree") {
          system.icn2.degree = parse_int<int>(source, line_no, value);
        } else if (key == "icn2_seed") {
          system.seed_set = true;
          system.icn2.seed = static_cast<std::uint64_t>(
              parse_int<std::int64_t>(source, line_no, value));
        } else {
          fail_unknown(source, line_no, "unknown [system] key", key,
                       system_keys());
        }
        break;
      }

      case Section::kCluster:
      case Section::kIcn2Params: {
        // A negative value would read as "inherit" downstream — reject it
        // here so a typo cannot become a silent no-op.
        const auto checked = [&](bool strictly_positive) {
          const double v = parse_double(source, line_no, value);
          const bool ok = strictly_positive ? v > 0.0 : v >= 0.0;
          if (!ok)
            fail(source, line_no,
                 key + (strictly_positive ? " must be > 0" : " must be >= 0") +
                     ", got '" + value + "'");
          return v;
        };
        model::NetworkParamsOverride& net =
            section == Section::kCluster ? system.cluster_sections.back().net
                                         : system.icn2_net;
        if (key == "alpha_net") {
          net.alpha_net = checked(false);
        } else if (key == "alpha_sw") {
          net.alpha_sw = checked(false);
        } else if (key == "beta_net") {
          net.beta_net = checked(true);
        } else if (key == "flit_bytes") {
          net.flit_bytes = checked(true);
        } else if (key == "load_scale" && section == Section::kCluster) {
          system.cluster_sections.back().load_scale = checked(true);
        } else {
          fail_unknown(source, line_no,
                       section == Section::kCluster
                           ? "unknown [cluster.<i>] key"
                           : "unknown [icn2_params] key",
                       key,
                       section == Section::kCluster ? cluster_keys()
                                                    : icn2_params_keys());
        }
        break;
      }

      case Section::kSearch: {
        if (key == "rel_precision") {
          spec.search.seq.rel_precision =
              parse_double(source, line_no, value);
        } else if (key == "r_min") {
          spec.search.seq.r_min = parse_int<int>(source, line_no, value);
        } else if (key == "r_max") {
          spec.search.seq.r_max = parse_int<int>(source, line_no, value);
        } else if (key == "warmup") {
          spec.search_warmup = parse_warmup_deletion(source, line_no, value);
        } else if (key == "rel_tol") {
          spec.search.rel_tol = parse_double(source, line_no, value);
        } else if (key == "blowup") {
          spec.search.latency_blowup = parse_double(source, line_no, value);
        } else {
          fail_unknown(source, line_no, "unknown [search] key", key,
                       search_keys());
        }
        break;
      }

      case Section::kObserve: {
        if (key == "probe_interval") {
          spec.probe.interval = parse_double(source, line_no, value);
        } else if (key == "probe_max_samples") {
          spec.probe.max_samples =
              parse_int<std::size_t>(source, line_no, value);
        } else if (key == "trace_sample") {
          spec.trace.sample_every =
              parse_int<std::int64_t>(source, line_no, value);
        } else if (key == "trace_max_events") {
          spec.trace.max_events =
              parse_int<std::size_t>(source, line_no, value);
        } else {
          fail_unknown(source, line_no, "unknown [observe] key", key,
                       observe_keys());
        }
        break;
      }

      case Section::kPattern: {
        if (key == "kind") {
          pattern.kind_set = true;
          if (value == "uniform")
            pattern.pattern.kind = sim::PatternKind::kUniform;
          else if (value == "hotspot")
            pattern.pattern.kind = sim::PatternKind::kHotspot;
          else if (value == "local_favor")
            pattern.pattern.kind = sim::PatternKind::kLocalFavor;
          else if (value == "cluster_permutation")
            pattern.pattern.kind = sim::PatternKind::kClusterPermutation;
          else
            fail_unknown(source, line_no, "unknown pattern kind", value,
                         {"uniform", "hotspot", "local_favor",
                          "cluster_permutation"});
        } else if (key == "hotspot_fraction") {
          pattern.pattern.hotspot_fraction =
              parse_double(source, line_no, value);
        } else if (key == "hotspot_node") {
          pattern.pattern.hotspot_node =
              parse_int<std::int64_t>(source, line_no, value);
        } else if (key == "local_fraction") {
          pattern.pattern.local_fraction =
              parse_double(source, line_no, value);
        } else if (key == "cluster_shift") {
          pattern.pattern.cluster_shift =
              parse_int<int>(source, line_no, value);
        } else {
          fail_unknown(source, line_no, "unknown [pattern] key", key,
                       pattern_keys());
        }
        break;
      }
    }
  }
  flush_section();

  // Restore defaults for list keys the file left unset.
  if (spec.message_flits.empty()) spec.message_flits = {32};
  if (spec.flit_bytes.empty()) spec.flit_bytes = {256};
  if (spec.relay_modes.empty())
    spec.relay_modes = {sim::RelayMode::kStoreForward};
  if (spec.flow_controls.empty())
    spec.flow_controls = {sim::FlowControl::kWormhole};

  spec.validate();
  return spec;
}

ScenarioSpec parse_scenario_string(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in, "<string>");
}

ScenarioSpec load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open scenario file '" + path + "'");
  return parse_scenario(in, path);
}

std::string default_scenario_dir() {
#ifdef MCS_SCENARIO_DIR
  return MCS_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

}  // namespace mcs::exp
