// Content-hash result cache for sweep rows (DESIGN.md §14).
//
// A row's cache key is the SHA-256 digest of a canonical serialization of
// everything that determines its outputs: the fully resolved scenario
// point (system organization incl. heterogeneity overrides, network
// params, pattern, relay/flow, offered load AND its grid coordinates —
// task seeds derive from the coordinates), the scenario seed and phase
// lengths, the evaluation switches (models / knee / saturation search and
// its whole config), and the binary fingerprint (git describe + compiler
// + build type + build flags from obs::RunManifest). Over-keying is
// deliberate: any input change — including rebuilding the binary — makes
// every old entry unreachable rather than silently stale.
//
// The cached value is the row's payload (exp::encode_row_payload in
// exp/sweep_io.hpp): every SweepRow output field with doubles in hexfloat
// (%a), so a restored row is BIT-identical to the freshly computed one —
// table/CSV/JSON rendered from cache hits are byte-equal to a cold run's
// (pinned by tests/exp_service_test.cpp).
#pragma once

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace mcs::exp {

/// Identity of the running binary as entering cache keys: the static
/// RunManifest fields (git describe, compiler, build type, build flags)
/// joined into one line. Rebuilding from a different commit or with
/// different flags changes it, invalidating every cached row.
[[nodiscard]] std::string binary_fingerprint();

/// Canonical content digest of one grid row under `spec` (64 hex chars).
/// `row` needs only its coordinate/identity fields filled (as produced by
/// grid expansion); output fields do not enter the key. An empty
/// `fingerprint` substitutes binary_fingerprint().
[[nodiscard]] std::string row_digest(const ScenarioSpec& spec,
                                     const SweepRow& row,
                                     const std::string& fingerprint);

/// Directory of content-addressed row payloads, stored as append-only
/// segment files ("packs"). Each instance that stores anything creates its
/// own segment `<pid>.<n>.pack` exclusively on its first store and appends
/// one line `<digest> <payload>\n` per row to it; no writer ever appends to
/// a file it did not create, so concurrent sweep processes sharing `dir`
/// never interleave and a crash can tear only the last line of its own
/// segment. A row costs one append, not a file: creating a file costs
/// more than a model-only row's model work. Load misses are normal, not
/// errors. Safe to share between threads.
class ResultCache {
 public:
  /// Creates `dir` (and parents) when absent, then indexes the complete
  /// lines of every `*.pack` in it (sorted by name; a later line of a
  /// digest supersedes an earlier one). A torn trailing line is dropped;
  /// any other file is ignored. Throws mcs::ConfigError when the path
  /// exists but is not a directory or cannot be created.
  explicit ResultCache(std::string dir);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The payload stored under `digest`, or nullopt.
  [[nodiscard]] std::optional<std::string> load(
      const std::string& digest) const;

  /// Append `payload` under `digest` to this instance's segment and index
  /// it, so a later load() on this instance hits. `digest` must hold no
  /// space or newline and `payload` no newline. Throws mcs::ConfigError
  /// when the segment cannot be created or written.
  void store(const std::string& digest, const std::string& payload) const;

 private:
  std::string dir_;
  mutable std::mutex mutex_;  // guards index_ and segment_
  // mcs-lint: note(unordered-iter) lookup-only index: probed by digest in
  // load() and store(), never iterated, so hash order reaches no output.
  mutable std::unordered_map<std::string, std::string> index_;
  mutable std::FILE* segment_ = nullptr;  // created on the first store()
};

}  // namespace mcs::exp
