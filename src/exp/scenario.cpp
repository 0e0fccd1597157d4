#include "exp/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"

// Every vocabulary of the INI dialect is one constant table below: the
// section headers, each section's keys and each enum's words. Dispatch,
// the "did you mean" for an unknown name and the duplicate rule all read
// the same table, so adding a key or a word is adding one entry.

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

/// The entry of `table` called `name`, or null.
template <typename Table>
auto find(const Table& table, const std::string& name)
    -> decltype(&*std::begin(table)) {
  for (const auto& entry : table)
    if (name == entry.name) return &entry;
  return nullptr;
}

/// "; did you mean ...?" for an unknown name, ranked by edit distance over
/// the names of `table`; when nothing is plausibly close, "; expected"
/// and every name.
template <typename Table>
std::string hint(const std::string& name, const Table& table) {
  std::vector<std::string> known;
  for (const auto& entry : table) known.emplace_back(entry.name);
  const std::vector<std::string> close = util::closest_matches(name, known);
  std::string out = close.empty() ? "; expected" : "; did you mean";
  for (std::size_t i = 0; i < close.size(); ++i)
    out += (i == 0 ? " '" : ", '") + close[i] + "'";
  if (!close.empty()) return out + "?";
  for (std::size_t i = 0; i < known.size(); ++i)
    out += (i == 0 ? " " : ", ") + known[i];
  return out;
}

// --- enum vocabularies -------------------------------------------------

/// One word of an enum vocabulary: each value's canonical word comes
/// first, then its aliases. Output prints the canonical word.
template <typename T>
struct Word {
  const char* name;
  T value;
};

constexpr Word<sim::RelayMode> kRelayWords[] = {
    {"store_forward", sim::RelayMode::kStoreForward},
    {"store-forward", sim::RelayMode::kStoreForward},
    {"cut_through", sim::RelayMode::kCutThrough},
    {"cut-through", sim::RelayMode::kCutThrough},
};

constexpr Word<sim::FlowControl> kFlowWords[] = {
    {"wormhole", sim::FlowControl::kWormhole},
    {"store_and_forward", sim::FlowControl::kStoreAndForward},
    {"store-and-forward", sim::FlowControl::kStoreAndForward},
};

constexpr Word<sim::PatternKind> kPatternWords[] = {
    {"uniform", sim::PatternKind::kUniform},
    {"hotspot", sim::PatternKind::kHotspot},
    {"local_favor", sim::PatternKind::kLocalFavor},
    {"cluster_permutation", sim::PatternKind::kClusterPermutation},
};

constexpr Word<sim::WarmupDeletion> kWarmupWords[] = {
    {"off", sim::WarmupDeletion::kOff},
    {"mser5", sim::WarmupDeletion::kMser5},
};

enum class Preset : std::uint8_t { kNone, kOrgA, kOrgB, kHomogeneous };

constexpr Word<Preset> kPresetWords[] = {
    {"table1_org_a", Preset::kOrgA},
    {"table1_org_b", Preset::kOrgB},
    {"homogeneous", Preset::kHomogeneous},
};

/// `models` entries, as bits of the models they enable.
constexpr unsigned kPaperBit = 1, kRefinedBit = 2;

constexpr Word<unsigned> kModelWords[] = {
    {"paper", kPaperBit}, {"refined", kRefinedBit}, {"none", 0}};

/// An ICN2 kind and the wrap it implies: a mesh is the unwrapped torus.
struct Icn2Word {
  topo::Icn2Kind kind;
  bool wrap;
};

constexpr Word<Icn2Word> kIcn2Words[] = {
    {"fat_tree", {topo::Icn2Kind::kFatTree, true}},
    {"fat-tree", {topo::Icn2Kind::kFatTree, true}},
    {"torus", {topo::Icn2Kind::kTorus, true}},
    {"mesh", {topo::Icn2Kind::kTorus, false}},
    {"dragonfly", {topo::Icn2Kind::kDragonfly, true}},
    {"random", {topo::Icn2Kind::kRandomRegular, true}},
    {"random_regular", {topo::Icn2Kind::kRandomRegular, true}},
};

constexpr Word<bool> kBoolWords[] = {
    {"true", true},   {"1", true},  {"yes", true}, {"on", true},
    {"false", false}, {"0", false}, {"no", false}, {"off", false},
};

template <typename T, std::size_t N>
const char* canonical(const Word<T> (&words)[N], T value) {
  for (const Word<T>& w : words)
    if (w.value == value) return w.name;
  return "?";
}

// --- parser state ------------------------------------------------------

// State of one in-progress [cluster.<i>] sub-section.
struct ClusterSection {
  int index = 0;
  int line = 0;
  model::NetworkParamsOverride net;
  double load_scale = -1.0;  ///< < 0 = unset
};

struct Section;
struct Key;

// State of one in-progress [system <id>] section (including its
// [cluster.<i>] / [icn2_params] sub-sections).
struct SystemDraft {
  std::string id;  ///< empty = no [system] open
  int line = 0;    ///< section header line (for error reporting)
  Preset preset = Preset::kNone;
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
  int icn2_params_line = 0;  ///< 0 = no [icn2_params]
  std::vector<const Section*> once_seen;  ///< its once-only sub-sections
};

struct PatternDraft {
  std::string id;  ///< empty = no [pattern] open
  int line = 0;
  bool kind_set = false;
  sim::TrafficPattern pattern;
};

using V = const std::string&;

struct Parser {
  explicit Parser(V name) : source(name) {}

  const std::string& source;
  int line = 0;
  std::string key;  ///< the key being set, for value errors
  ScenarioSpec spec;
  SystemDraft system;
  PatternDraft pattern;
  /// The open [cluster.<i>] or [icn2_params] timing override.
  model::NetworkParamsOverride* net = nullptr;
  /// The first load key (loads / load_grid / knee_loads), for the error
  /// that rejects mixing absolute and knee-relative loads.
  std::string load_key;
  const Section* section = nullptr;
  std::vector<const Section*> once_seen;  ///< once-only top-level sections
  std::vector<const Key*> keys_seen;      ///< keys set in the open section

  [[noreturn]] void fail(V what) const { exp::fail(source, line, what); }
  template <typename T>
  [[nodiscard]] T integer(V v) const {
    return util::parse_int<T>(v, source + ":" + std::to_string(line));
  }
  [[nodiscard]] double real(V v) const {
    return util::parse_double(v, source + ":" + std::to_string(line));
  }
  /// The value of word `v` in `words`, or a ConfigError naming `what`.
  template <typename T, std::size_t N>
  [[nodiscard]] T word(const Word<T> (&words)[N], const char* what,
                       V v) const {
    if (const Word<T>* w = find(words, v)) return w->value;
    fail(std::string("unknown ") + what + " '" + v + "'" + hint(v, words));
  }
  [[nodiscard]] bool flag(V v) const { return word(kBoolWords, "boolean", v); }
  /// A timing override: >= 0, or > 0 when `positive`. A negative value
  /// would read as "inherit" downstream, so a typo would be a no-op.
  [[nodiscard]] double timing(V v, bool positive) const {
    const double x = real(v);
    if (positive ? !(x > 0.0) : !(x >= 0.0))
      fail(key + (positive ? " must be > 0" : " must be >= 0") + ", got '" +
           v + "'");
    return x;
  }
  /// Absolute and knee-relative loads cannot share one grid: the runner
  /// scales every load point by the knee or none.
  void load_kind(bool relative) {
    if (!load_key.empty() && (load_key == "knee_loads") != relative)
      fail("knee_loads cannot be combined with " +
           (relative ? load_key : key));
    if (load_key.empty()) load_key = key;
  }
};

// --- section keys ------------------------------------------------------

using P = Parser&;

/// One key of a section: at most once per section, except the `repeats`
/// keys, whose lines accumulate.
struct Key {
  const char* name;
  void (*set)(P p, V value);
  bool repeats = false;
};

constexpr Key kSweepKeys[] = {
    {"name", [](P p, V v) { p.spec.name = v; }},
    {"seed",
     [](P p, V v) {
       p.spec.seed = static_cast<std::uint64_t>(p.integer<std::int64_t>(v));
     }},
    {"replications", [](P p, V v) { p.spec.replications = p.integer<int>(v); }},
    {"warmup", [](P p, V v) { p.spec.warmup = p.integer<std::int64_t>(v); }},
    {"measured",
     [](P p, V v) { p.spec.measured = p.integer<std::int64_t>(v); }},
    {"message_flits",
     [](P p, V v) {
       for (V s : split_list(v))
         p.spec.message_flits.push_back(p.integer<int>(s));
     }},
    {"flit_bytes",
     [](P p, V v) {
       for (V s : split_list(v)) p.spec.flit_bytes.push_back(p.real(s));
     }},
    {"loads",
     [](P p, V v) {
       p.load_kind(false);
       for (V s : split_list(v)) p.spec.loads.push_back(p.real(s));
     },
     true},
    // step : count, expanding to {s/4, s/2, s, 2s, ..., count*s}: two
    // sub-step points sample the steady low-load region, then the
    // paper's axis grid.
    {"load_grid",
     [](P p, V v) {
       p.load_kind(false);
       const std::vector<std::string> parts = split_list(v, ':');
       if (parts.size() != 2) p.fail("load_grid wants '<step> : <count>'");
       const double step = p.real(parts[0]);
       const auto count = p.integer<long long>(parts[1]);
       if (step <= 0.0 || count < 1)
         p.fail("load_grid wants step > 0 and count >= 1");
       p.spec.loads.push_back(0.25 * step);
       p.spec.loads.push_back(0.5 * step);
       for (long long i = 1; i <= count; ++i)
         p.spec.loads.push_back(step * static_cast<double>(i));
     },
     true},
    {"knee_loads",
     [](P p, V v) {
       p.load_kind(true);
       p.spec.knee_relative_loads = true;
       for (V s : split_list(v)) {
         const double f = p.real(s);
         if (f <= 0.0)
           p.fail("knee_loads fractions must be > 0, got '" + s + "'");
         p.spec.loads.push_back(f);
       }
       if (p.spec.loads.empty()) p.fail("knee_loads lists no fractions");
     }},
    {"models",
     [](P p, V v) {
       unsigned bits = 0;
       for (V s : split_list(v)) bits |= p.word(kModelWords, "model", s);
       p.spec.run_paper_model = (bits & kPaperBit) != 0;
       p.spec.run_refined_model = (bits & kRefinedBit) != 0;
     }},
    {"sim", [](P p, V v) { p.spec.run_sim = p.flag(v); }},
    {"knee", [](P p, V v) { p.spec.find_knee = p.flag(v); }},
    {"find_saturation",
     [](P p, V v) { p.spec.find_sim_saturation = p.flag(v); }},
    {"relay",
     [](P p, V v) {
       for (V s : split_list(v))
         p.spec.relay_modes.push_back(p.word(kRelayWords, "relay mode", s));
     }},
    {"flow",
     [](P p, V v) {
       for (V s : split_list(v))
         p.spec.flow_controls.push_back(
             p.word(kFlowWords, "flow control", s));
     }},
    {"alpha_net", [](P p, V v) { p.spec.base_params.alpha_net = p.real(v); }},
    {"alpha_sw", [](P p, V v) { p.spec.base_params.alpha_sw = p.real(v); }},
    {"beta_net", [](P p, V v) { p.spec.base_params.beta_net = p.real(v); }},
};

constexpr Key kSystemKeys[] = {
    {"preset",
     [](P p, V v) { p.system.preset = p.word(kPresetWords, "preset", v); }},
    {"m", [](P p, V v) { p.system.m = p.integer<int>(v); }},
    {"height", [](P p, V v) { p.system.height = p.integer<int>(v); }},
    {"clusters", [](P p, V v) { p.system.clusters = p.integer<int>(v); }},
    {"heights",
     [](P p, V v) {
       for (V s : split_list(v)) p.system.heights.push_back(p.integer<int>(s));
     }},
    {"icn2",
     [](P p, V v) {
       const Icn2Word w = p.word(kIcn2Words, "icn2 kind", v);
       p.system.icn2.kind = w.kind;
       p.system.icn2.torus_wrap = w.wrap;
     }},
    {"icn2_switches",
     [](P p, V v) { p.system.icn2.switches = p.integer<int>(v); }},
    {"icn2_rows",
     [](P p, V v) { p.system.icn2.torus_rows = p.integer<int>(v); }},
    {"icn2_cols",
     [](P p, V v) { p.system.icn2.torus_cols = p.integer<int>(v); }},
    {"icn2_wrap",
     [](P p, V v) {
       p.system.wrap_set = true;
       p.system.wrap_value = p.flag(v);
     }},
    {"icn2_degree", [](P p, V v) { p.system.icn2.degree = p.integer<int>(v); }},
    {"icn2_seed",
     [](P p, V v) {
       p.system.seed_set = true;
       p.system.icn2.seed =
           static_cast<std::uint64_t>(p.integer<std::int64_t>(v));
     }},
};

// [cluster.<i>] keys. [icn2_params] reads the first four: the same
// timing keys, without the cluster property load_scale.
constexpr Key kClusterKeys[] = {
    {"alpha_net", [](P p, V v) { p.net->alpha_net = p.timing(v, false); }},
    {"alpha_sw", [](P p, V v) { p.net->alpha_sw = p.timing(v, false); }},
    {"beta_net", [](P p, V v) { p.net->beta_net = p.timing(v, true); }},
    {"flit_bytes", [](P p, V v) { p.net->flit_bytes = p.timing(v, true); }},
    {"load_scale",
     [](P p, V v) {
       p.system.cluster_sections.back().load_scale = p.timing(v, true);
     }},
};

constexpr Key kPatternKeys[] = {
    {"kind",
     [](P p, V v) {
       p.pattern.kind_set = true;
       p.pattern.pattern.kind = p.word(kPatternWords, "pattern kind", v);
     }},
    {"hotspot_fraction",
     [](P p, V v) { p.pattern.pattern.hotspot_fraction = p.real(v); }},
    {"hotspot_node",
     [](P p, V v) {
       p.pattern.pattern.hotspot_node = p.integer<std::int64_t>(v);
     }},
    {"local_fraction",
     [](P p, V v) { p.pattern.pattern.local_fraction = p.real(v); }},
    {"cluster_shift",
     [](P p, V v) { p.pattern.pattern.cluster_shift = p.integer<int>(v); }},
};

constexpr Key kSearchKeys[] = {
    {"rel_precision",
     [](P p, V v) { p.spec.search.seq.rel_precision = p.real(v); }},
    {"r_min", [](P p, V v) { p.spec.search.seq.r_min = p.integer<int>(v); }},
    {"r_max", [](P p, V v) { p.spec.search.seq.r_max = p.integer<int>(v); }},
    {"warmup",
     [](P p, V v) {
       p.spec.search_warmup = p.word(kWarmupWords, "warmup deletion mode", v);
     }},
    {"rel_tol", [](P p, V v) { p.spec.search.rel_tol = p.real(v); }},
    {"blowup", [](P p, V v) { p.spec.search.latency_blowup = p.real(v); }},
};

constexpr Key kObserveKeys[] = {
    {"probe_interval", [](P p, V v) { p.spec.probe.interval = p.real(v); }},
    {"probe_max_samples",
     [](P p, V v) { p.spec.probe.max_samples = p.integer<std::size_t>(v); }},
    {"trace_sample",
     [](P p, V v) { p.spec.trace.sample_every = p.integer<std::int64_t>(v); }},
    {"trace_max_events",
     [](P p, V v) { p.spec.trace.max_events = p.integer<std::size_t>(v); }},
};

// --- sections ----------------------------------------------------------

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
  switch (d.preset) {
    case Preset::kOrgA:
      config = topo::SystemConfig::table1_org_a();
      break;
    case Preset::kOrgB:
      config = topo::SystemConfig::table1_org_b();
      break;
    case Preset::kHomogeneous:
      if (d.m <= 0 || d.height <= 0 || d.clusters <= 0)
        fail(source, d.line,
             "[system " + d.id +
                 "]: preset homogeneous needs m, height and clusters");
      config = topo::SystemConfig::homogeneous(d.m, d.height, d.clusters);
      break;
    case Preset::kNone:
      if (d.m <= 0 || d.heights.empty())
        fail(source, d.line,
             "[system " + d.id + "]: need either a preset or m plus heights");
      config.m = d.m;
      config.cluster_heights = d.heights;
      break;
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
  if (d.icn2_params_line != 0 && !d.icn2_net.any())
    fail(source, d.icn2_params_line,
         "[icn2_params]: empty override (set alpha_net, alpha_sw, beta_net "
         "or flit_bytes)");
  config.icn2_net = d.icn2_net;
  return config;
}

/// Closes the open [system] draft (with its sub-sections) and the open
/// [pattern] draft into the spec.
void close_drafts(P p) {
  if (!p.system.id.empty())
    p.spec.systems.push_back({p.system.id, finish_system(p.source, p.system)});
  p.system = SystemDraft{};
  if (!p.pattern.id.empty()) {
    if (!p.pattern.kind_set)
      fail(p.source, p.pattern.line,
           "[pattern " + p.pattern.id + "]: missing kind");
    p.spec.patterns.push_back({p.pattern.id, p.pattern.pattern});
  }
  p.pattern = PatternDraft{};
}

/// One section header: `[name]`, `[name <id>]` (arg ' ') or `[name.<i>]`
/// (arg '.'). A sub-section extends the open [system]; any other section
/// closes the open drafts. A once-only section may appear once per file,
/// or once per system when it is a sub-section.
struct Section {
  const char* name;
  char arg;  ///< '\0': takes no argument
  std::span<const Key> keys;
  bool once;
  bool sub;
  void (*open)(P p, V arg);
};

constexpr Section kSections[] = {
    {"sweep", '\0', kSweepKeys, true, false, [](P, V) {}},
    {"system", ' ', kSystemKeys, false, false,
     [](P p, V id) {
       for (const SystemEntry& s : p.spec.systems)
         if (s.id == id) p.fail("duplicate system id '" + id + "'");
       p.system.id = id;
       p.system.line = p.line;
     }},
    {"cluster", '.', kClusterKeys, false, true,
     [](P p, V index) {
       ClusterSection cs;
       cs.index = p.integer<int>(index);
       cs.line = p.line;
       for (const ClusterSection& seen : p.system.cluster_sections)
         if (seen.index == cs.index)
           p.fail("duplicate [cluster." + std::to_string(cs.index) +
                  "] in system '" + p.system.id + "'");
       p.system.cluster_sections.push_back(cs);
       p.net = &p.system.cluster_sections.back().net;
     }},
    {"icn2_params", '\0', std::span<const Key>(kClusterKeys, 4), true, true,
     [](P p, V) {
       p.system.icn2_params_line = p.line;
       p.net = &p.system.icn2_net;
     }},
    {"pattern", ' ', kPatternKeys, false, false,
     [](P p, V id) {
       for (const PatternEntry& entry : p.spec.patterns)
         if (entry.id == id) p.fail("duplicate pattern id '" + id + "'");
       p.pattern.id = id;
       p.pattern.line = p.line;
     }},
    {"search", '\0', kSearchKeys, true, false, [](P, V) {}},
    {"observe", '\0', kObserveKeys, true, false, [](P, V) {}},
};

void open_section(P p, V header) {
  const std::size_t cut = header.find_first_of(" \t.");
  const std::string name = header.substr(0, cut);
  const std::string arg =
      cut == std::string::npos ? "" : trim(header.substr(cut + 1));
  const char form = cut == std::string::npos ? '\0'
                    : header[cut] == '.'     ? '.'
                                             : ' ';
  const Section* s = find(kSections, name);
  if (s == nullptr)
    p.fail("unknown section [" + header + "]" + hint(name, kSections));
  if (form != s->arg || (form != '\0' && arg.empty()))
    p.fail("[" + header + "] must be written [" + s->name +
           (s->arg == '.' ? ".<i>" : s->arg == ' ' ? " <id>" : "") + "]");
  if (!s->sub)
    close_drafts(p);
  else if (p.system.id.empty())
    p.fail("[" + header + "] must follow a [system <id>] section");
  std::vector<const Section*>& seen = s->sub ? p.system.once_seen : p.once_seen;
  if (s->once && std::find(seen.begin(), seen.end(), s) != seen.end())
    p.fail("duplicate [" + header + "] section" +
           (s->sub ? " in system '" + p.system.id + "'" : ""));
  if (s->once) seen.push_back(s);
  p.section = s;
  p.keys_seen.clear();
  s->open(p, arg);
}

void set_key(P p, V key, V value) {
  if (p.section == nullptr) p.fail("key outside any section: '" + key + "'");
  const std::string where = std::string("[") + p.section->name +
                            (p.section->arg == '.' ? ".<i>" : "") + "] key '" +
                            key + "'";
  const Key* k = find(p.section->keys, key);
  if (k == nullptr) p.fail("unknown " + where + hint(key, p.section->keys));
  std::vector<const Key*>& seen = p.keys_seen;
  if (!k->repeats && std::find(seen.begin(), seen.end(), k) != seen.end())
    p.fail("duplicate " + where);
  seen.push_back(k);
  p.key = key;
  k->set(p, value);
}

}  // namespace

const char* to_string(sim::RelayMode mode) {
  return canonical(kRelayWords, mode);
}

const char* to_string(sim::FlowControl flow) {
  return canonical(kFlowWords, flow);
}

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
  Parser p(source);
  ScenarioSpec& spec = p.spec;
  spec.message_flits.clear();
  spec.flit_bytes.clear();
  spec.relay_modes.clear();
  spec.flow_controls.clear();

  std::string raw;
  while (std::getline(in, raw)) {
    ++p.line;
    // Strip comments (# and ;) and whitespace.
    std::size_t cut = raw.find_first_of("#;");
    std::string line = trim(cut == std::string::npos ? raw : raw.substr(0, cut));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') p.fail("unterminated section header");
      open_section(p, trim(line.substr(1, line.size() - 2)));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      p.fail("expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) p.fail("empty key or value");
    set_key(p, key, value);
  }
  close_drafts(p);

  // Restore defaults for list keys the file left unset.
  if (spec.message_flits.empty()) spec.message_flits = {32};
  if (spec.flit_bytes.empty()) spec.flit_bytes = {256};
  if (spec.relay_modes.empty())
    spec.relay_modes = {sim::RelayMode::kStoreForward};
  if (spec.flow_controls.empty())
    spec.flow_controls = {sim::FlowControl::kWormhole};

  spec.validate();
  return std::move(spec);
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
