// Tiny command-line option parser shared by the bench and example binaries.
// Supports `--name=value` and boolean `--flag` forms (the `--name value`
// form is deliberately unsupported: it is ambiguous with positionals).
// Also home of the one text-to-number parser, which the scenario INI
// reader shares.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mcs::util {

/// Parses all of `text` as a base-10 integer in [lo, hi]. Throws
/// mcs::ConfigError "<where>: expected an integer, got '<text>'", or
/// "<where>: <text> is out of range [lo, hi]" when it does not fit —
/// never a silently wrapped value.
[[nodiscard]] long long parse_int(const std::string& text, long long lo,
                                  long long hi, const std::string& where);

/// parse_int over the range of the field type T that the value sets
/// (unsigned T: [0, LLONG_MAX]).
template <typename T>
[[nodiscard]] T parse_int(const std::string& text, const std::string& where) {
  using Limits = std::numeric_limits<T>;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  const long long hi = std::cmp_greater(Limits::max(), kMax)
                           ? kMax
                           : static_cast<long long>(Limits::max());
  return static_cast<T>(
      parse_int(text, static_cast<long long>(Limits::min()), hi, where));
}

/// Parses all of `text` as a number. Throws mcs::ConfigError
/// "<where>: expected a number, got '<text>'".
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& where);

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// `--name` as an integer of the fallback's type T; a value T cannot
  /// hold is a ConfigError naming the flag (parse_int).
  template <typename T>
  [[nodiscard]] T get_int(const std::string& name, T fallback) const {
    const auto it = options_.find(name);
    return it == options_.end() ? fallback
                                : parse_int<T>(it->second, "--" + name);
  }
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional (non --option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Names that were supplied but never queried — typo detection support.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;

  /// Strict option validation: throws mcs::ConfigError naming every
  /// supplied `--option` not in `known`, with closest_matches
  /// suggestions — the CLI counterpart of the scenario parser's
  /// unknown-key handling. Without this an app silently ignores typos
  /// (e.g. `--find-saturaton` runs a full sweep with no saturation
  /// search).
  void require_known(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Levenshtein distance (unit insert/delete/substitute costs) — the
/// closest-match ranking behind "unknown scenario" suggestions.
[[nodiscard]] std::size_t edit_distance(const std::string& a,
                                        const std::string& b);

/// The `limit` entries of `candidates` closest to `name` by edit
/// distance, nearest first; candidates further than max(3, |name|/2)
/// edits are dropped. Ties rank alphabetically.
[[nodiscard]] std::vector<std::string> closest_matches(
    const std::string& name, const std::vector<std::string>& candidates,
    std::size_t limit = 3);

}  // namespace mcs::util
