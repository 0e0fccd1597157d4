#include "exp/result_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
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
