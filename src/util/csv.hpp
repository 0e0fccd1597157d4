// Minimal CSV emission (sweep results and probe series, consumed by
// plotting scripts).
#pragma once

#include <string>

namespace mcs::util {

/// One RFC-4180-ish CSV cell as written: quoted, with doubled quotes,
/// when it contains a comma, quote or newline; verbatim otherwise.
[[nodiscard]] inline std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace mcs::util
