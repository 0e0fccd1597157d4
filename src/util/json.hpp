// JSON emission helpers shared by every JSON writer (sweep results,
// explain reports, probes, traces, run manifests): one string escape and
// one `"key":value` field writer, so a label prints the same everywhere.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace mcs::util {

/// `s` as the body of a JSON string literal: `"` and `\` backslashed,
/// newline, carriage return and tab by name, other control characters
/// as \u00XX.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Writes `"key":` to `out`, preceded by a comma unless `first` (which is
/// then cleared) — the opening of a nested object or array field.
void json_key(std::ostream& out, const char* key, bool& first);

/// `"key":value` fields. Strings are escaped; a non-finite double writes
/// null (JSON has no inf/nan, and unstable model predictions are
/// infinite). The `const char*` overload keeps a literal from binding to
/// the bool one.
void json_field(std::ostream& out, const char* key, const std::string& value,
                bool& first);
void json_field(std::ostream& out, const char* key, const char* value,
                bool& first);
void json_field(std::ostream& out, const char* key, double value,
                bool& first);
void json_field(std::ostream& out, const char* key, std::int64_t value,
                bool& first);
void json_field(std::ostream& out, const char* key, bool value, bool& first);

}  // namespace mcs::util
