#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace mcs::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_key(std::ostream& out, const char* key, bool& first) {
  if (!first) out << ",";
  first = false;
  out << "\"" << key << "\":";
}

void json_field(std::ostream& out, const char* key, const std::string& value,
                bool& first) {
  json_key(out, key, first);
  out << "\"" << json_escape(value) << "\"";
}

void json_field(std::ostream& out, const char* key, const char* value,
                bool& first) {
  json_field(out, key, std::string(value), first);
}

void json_field(std::ostream& out, const char* key, double value,
                bool& first) {
  json_key(out, key, first);
  if (std::isfinite(value))
    out << value;
  else
    out << "null";
}

void json_field(std::ostream& out, const char* key, std::int64_t value,
                bool& first) {
  json_key(out, key, first);
  out << value;
}

void json_field(std::ostream& out, const char* key, bool value, bool& first) {
  json_key(out, key, first);
  out << (value ? "true" : "false");
}

}  // namespace mcs::util
