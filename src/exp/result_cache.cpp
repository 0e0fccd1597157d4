#include "exp/result_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "obs/manifest.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace mcs::exp {

namespace {

/// Exact round-trippable text form of a double: hexfloat for finite
/// values (strtod restores the identical bits), "inf"/"-inf"/"nan" for
/// the specials.
std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Canonical key=value serialization feeding the SHA-256 digest. Every
/// record is newline-terminated so no concatenation of values can mimic
/// another field layout.
class Canon {
 public:
  void kv(const char* key, const std::string& v) {
    buf_ += key;
    buf_ += '=';
    buf_ += v;
    buf_ += '\n';
  }
  void kv(const char* key, const char* v) { kv(key, std::string(v)); }
  void kv(const char* key, double v) { kv(key, fmt_double(v)); }
  void kv(const char* key, std::int64_t v) { kv(key, std::to_string(v)); }
  void kv(const char* key, int v) {
    kv(key, static_cast<std::int64_t>(v));
  }
  void kv(const char* key, std::uint64_t v) { kv(key, std::to_string(v)); }
  void kv(const char* key, bool v) { kv(key, v ? "1" : "0"); }

  [[nodiscard]] const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

void canon_params(Canon& c, const char* prefix,
                  const model::NetworkParams& p) {
  const std::string pre(prefix);
  c.kv((pre + ".alpha_net").c_str(), p.alpha_net);
  c.kv((pre + ".alpha_sw").c_str(), p.alpha_sw);
  c.kv((pre + ".beta_net").c_str(), p.beta_net);
  c.kv((pre + ".message_flits").c_str(), p.message_flits);
  c.kv((pre + ".flit_bytes").c_str(), p.flit_bytes);
}

void canon_override(Canon& c, const std::string& prefix,
                    const model::NetworkParamsOverride& o) {
  c.kv((prefix + ".alpha_net").c_str(), o.alpha_net);
  c.kv((prefix + ".alpha_sw").c_str(), o.alpha_sw);
  c.kv((prefix + ".beta_net").c_str(), o.beta_net);
  c.kv((prefix + ".flit_bytes").c_str(), o.flit_bytes);
}

void canon_system(Canon& c, const topo::SystemConfig& sys) {
  c.kv("sys.m", sys.m);
  for (std::size_t i = 0; i < sys.cluster_heights.size(); ++i)
    c.kv(("sys.height." + std::to_string(i)).c_str(),
         sys.cluster_heights[i]);
  c.kv("sys.icn2.kind", static_cast<int>(sys.icn2.kind));
  c.kv("sys.icn2.switches", sys.icn2.switches);
  c.kv("sys.icn2.rows", sys.icn2.torus_rows);
  c.kv("sys.icn2.cols", sys.icn2.torus_cols);
  c.kv("sys.icn2.wrap", sys.icn2.torus_wrap);
  c.kv("sys.icn2.degree", sys.icn2.degree);
  c.kv("sys.icn2.seed", sys.icn2.seed);
  for (std::size_t i = 0; i < sys.cluster_net.size(); ++i)
    canon_override(c, "sys.cluster_net." + std::to_string(i),
                   sys.cluster_net[i]);
  canon_override(c, "sys.icn2_net", sys.icn2_net);
  for (std::size_t i = 0; i < sys.load_scale.size(); ++i)
    c.kv(("sys.load_scale." + std::to_string(i)).c_str(),
         sys.load_scale[i]);
}

void canon_pattern(Canon& c, const sim::TrafficPattern& p) {
  c.kv("pattern.kind", static_cast<int>(p.kind));
  c.kv("pattern.hotspot_fraction", p.hotspot_fraction);
  c.kv("pattern.hotspot_node", p.hotspot_node);
  c.kv("pattern.local_fraction", p.local_fraction);
  c.kv("pattern.cluster_shift", p.cluster_shift);
}

}  // namespace

std::string binary_fingerprint() {
  const obs::RunManifest m = obs::RunManifest::begin();
  return m.git + "|" + m.compiler + "|" + m.build_type + "|" + m.build_flags;
}

std::string row_digest(const ScenarioSpec& spec, const SweepRow& row,
                       const std::string& fingerprint) {
  Canon c;
  c.kv("format", "mcs-row-key v1");
  c.kv("fingerprint",
       fingerprint.empty() ? binary_fingerprint() : fingerprint);

  // Scenario-level inputs every task reads.
  c.kv("seed", spec.seed);
  c.kv("replications", spec.replications);
  c.kv("warmup", spec.warmup);
  c.kv("measured", spec.measured);
  c.kv("run_sim", spec.run_sim);
  c.kv("run_paper", spec.run_paper_model);
  c.kv("run_refined", spec.run_refined_model);
  c.kv("find_knee", spec.find_knee);
  c.kv("find_sim_saturation", spec.find_sim_saturation);
  if (spec.find_sim_saturation) {
    c.kv("search.r_min", spec.search.seq.r_min);
    c.kv("search.r_max", spec.search.seq.r_max);
    c.kv("search.rel_precision", spec.search.seq.rel_precision);
    c.kv("search.rel_tol", spec.search.rel_tol);
    c.kv("search.blowup", spec.search.latency_blowup);
    c.kv("search.max_probes", spec.search.max_probes);
    c.kv("search.warmup", static_cast<int>(spec.search_warmup));
  }
  canon_params(c, "base", spec.base_params);

  // The resolved scenario point. Grid coordinates are part of the key:
  // task seeds derive from them, so the same lambda value at a different
  // load index is a different simulation.
  c.kv("row.grid_index", row.grid_index);
  c.kv("row.system_idx", row.system_idx);
  c.kv("row.flits_idx", row.flits_idx);
  c.kv("row.bytes_idx", row.bytes_idx);
  c.kv("row.pattern_idx", row.pattern_idx);
  c.kv("row.relay_idx", row.relay_idx);
  c.kv("row.flow_idx", row.flow_idx);
  c.kv("row.load_idx", row.load_idx);
  c.kv("row.message_flits", row.message_flits);
  c.kv("row.flit_bytes", row.flit_bytes);
  c.kv("row.relay", static_cast<int>(row.relay));
  c.kv("row.flow", static_cast<int>(row.flow));
  c.kv("row.lambda", row.lambda);

  canon_system(
      c, spec.systems[static_cast<std::size_t>(row.system_idx)].config);
  if (static_cast<std::size_t>(row.pattern_idx) < spec.patterns.size())
    canon_pattern(
        c, spec.patterns[static_cast<std::size_t>(row.pattern_idx)].pattern);
  else
    canon_pattern(c, sim::TrafficPattern{});  // implicit uniform pattern

  return util::sha256_hex(c.str());
}

namespace {

constexpr const char* kPayloadMagic = "mcs-row-payload";
constexpr const char* kPayloadVersion = "v1";

void put(std::string& out, const char* key, const std::string& v) {
  out += ' ';
  out += key;
  out += '=';
  out += v;
}

}  // namespace

std::string encode_row_payload(const SweepRow& row) {
  std::string out = std::string(kPayloadMagic) + " " + kPayloadVersion;
  put(out, "paper_run", row.paper_run ? "1" : "0");
  put(out, "paper_latency", fmt_double(row.paper_latency));
  put(out, "paper_stable", row.paper_stable ? "1" : "0");
  put(out, "refined_run", row.refined_run ? "1" : "0");
  put(out, "refined_latency", fmt_double(row.refined_latency));
  put(out, "refined_stable", row.refined_stable ? "1" : "0");
  put(out, "knee_lambda", fmt_double(row.knee_lambda));
  put(out, "sim_lambda_sat", fmt_double(row.sim_lambda_sat));
  put(out, "sat_ratio", fmt_double(row.sat_ratio));
  put(out, "sim_run", row.sim_run ? "1" : "0");
  put(out, "replications", std::to_string(row.replications));
  put(out, "completed", std::to_string(row.completed));
  put(out, "saturated", std::to_string(row.saturated));
  put(out, "saturation_causes", row.saturation_causes);
  put(out, "sim_latency", fmt_double(row.sim_latency));
  put(out, "sim_ci", fmt_double(row.sim_ci));
  put(out, "sim_internal", fmt_double(row.sim_internal));
  put(out, "sim_external", fmt_double(row.sim_external));
  put(out, "external_share", fmt_double(row.external_share));
  put(out, "sim_p50", fmt_double(row.sim_p50));
  put(out, "sim_p95", fmt_double(row.sim_p95));
  put(out, "sim_p99", fmt_double(row.sim_p99));
  put(out, "sim_state", std::to_string(row.sim_state));
  return out;
}

bool decode_row_payload(const std::string& payload, SweepRow& row) {
  std::istringstream in(payload);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kPayloadMagic ||
      version != kPayloadVersion)
    return false;

  bool ok = true;
  int fields = 0;
  const auto as_double = [&](const std::string& v) {
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || end != v.c_str() + v.size()) ok = false;
    return x;
  };
  const auto as_int = [&](const std::string& v) {
    char* end = nullptr;
    const long x = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size()) ok = false;
    return static_cast<int>(x);
  };
  const auto as_bool = [&](const std::string& v) {
    if (v != "0" && v != "1") ok = false;
    return v == "1";
  };

  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    ++fields;
    if (key == "paper_run") row.paper_run = as_bool(value);
    else if (key == "paper_latency") row.paper_latency = as_double(value);
    else if (key == "paper_stable") row.paper_stable = as_bool(value);
    else if (key == "refined_run") row.refined_run = as_bool(value);
    else if (key == "refined_latency") row.refined_latency = as_double(value);
    else if (key == "refined_stable") row.refined_stable = as_bool(value);
    else if (key == "knee_lambda") row.knee_lambda = as_double(value);
    else if (key == "sim_lambda_sat") row.sim_lambda_sat = as_double(value);
    else if (key == "sat_ratio") row.sat_ratio = as_double(value);
    else if (key == "sim_run") row.sim_run = as_bool(value);
    else if (key == "replications") row.replications = as_int(value);
    else if (key == "completed") row.completed = as_int(value);
    else if (key == "saturated") row.saturated = as_int(value);
    else if (key == "saturation_causes") row.saturation_causes = value;
    else if (key == "sim_latency") row.sim_latency = as_double(value);
    else if (key == "sim_ci") row.sim_ci = as_double(value);
    else if (key == "sim_internal") row.sim_internal = as_double(value);
    else if (key == "sim_external") row.sim_external = as_double(value);
    else if (key == "external_share") row.external_share = as_double(value);
    else if (key == "sim_p50") row.sim_p50 = as_double(value);
    else if (key == "sim_p95") row.sim_p95 = as_double(value);
    else if (key == "sim_p99") row.sim_p99 = as_double(value);
    else if (key == "sim_state") row.sim_state = as_int(value);
    else --fields;  // unknown key: tolerated (forward compatibility)
  }
  return ok && fields == 23;
}

namespace {

/// Create this instance's segment `<dir>/<pid>.<n>.pack` with the smallest
/// free n. The open is exclusive ("x"), so an existing segment — another
/// process's, or one torn by an earlier process with a reused pid — is
/// never appended to.
std::FILE* create_segment(const std::string& dir) {
  const std::string prefix =
      dir + "/" + std::to_string(util::process_id()) + ".";
  for (long n = 0;; ++n) {
    const std::string path = prefix + std::to_string(n) + ".pack";
    errno = 0;
    if (std::FILE* f = std::fopen(path.c_str(), "wbx")) return f;
    if (errno != EEXIST)
      throw ConfigError("result cache: cannot create segment '" + path +
                        "': " + std::generic_category().message(errno));
  }
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw ConfigError("result cache: cannot create directory '" + dir_ +
                      "'" + (ec ? ": " + ec.message() : std::string()));

  std::vector<std::string> packs;
  for (const auto& entry : fs::directory_iterator(dir_, ec))
    if (entry.path().extension() == ".pack")
      packs.push_back(entry.path().string());
  std::sort(packs.begin(), packs.end());
  for (const std::string& pack : packs) {
    const std::optional<std::string> text = util::read_file(pack);
    if (!text) continue;
    // Only newline-terminated lines count: a crash mid-append leaves at
    // most a torn fragment after the last newline, which is dropped.
    std::size_t begin = 0;
    for (std::size_t end = text->find('\n'); end != std::string::npos;
         begin = end + 1, end = text->find('\n', begin)) {
      const std::size_t space = text->find(' ', begin);
      if (space == begin || space >= end) continue;  // no digest
      index_.insert_or_assign(text->substr(begin, space - begin),
                              text->substr(space + 1, end - space - 1));
    }
  }
}

ResultCache::~ResultCache() {
  if (segment_ != nullptr) std::fclose(segment_);
}

std::optional<std::string> ResultCache::load(
    const std::string& digest) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(digest);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void ResultCache::store(const std::string& digest,
                        const std::string& payload) const {
  MCS_EXPECTS(!digest.empty() &&
              digest.find_first_of(" \n") == std::string::npos);
  MCS_EXPECTS(payload.find('\n') == std::string::npos);
  std::string line;
  line.reserve(digest.size() + payload.size() + 2);
  line += digest;
  line += ' ';
  line += payload;
  line += '\n';

  const std::lock_guard<std::mutex> lock(mutex_);
  if (segment_ == nullptr) segment_ = create_segment(dir_);
  if (std::fwrite(line.data(), 1, line.size(), segment_) != line.size() ||
      std::fflush(segment_) != 0) {
    // The segment may now end in a torn line: close it, so the next store
    // starts a fresh segment instead of appending behind the fragment.
    std::fclose(segment_);
    segment_ = nullptr;
    throw ConfigError("result cache: append to a segment in '" + dir_ +
                      "' failed (disk full?)");
  }
  index_.insert_or_assign(digest, payload);
}

}  // namespace mcs::exp
