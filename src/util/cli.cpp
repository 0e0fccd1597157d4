#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "util/error.hpp"

namespace mcs::util {

long long parse_int(const std::string& text, long long lo, long long hi,
                    const std::string& where) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    throw ConfigError(where + ": expected an integer, got '" + text + "'");
  if (errno == ERANGE || v < lo || v > hi)
    throw ConfigError(where + ": " + text + " is out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return v;
}

double parse_double(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw ConfigError(where + ": expected a number, got '" + text + "'");
  return v;
}

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      options_[arg] = "true";
    }
  }
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = options_.find(name);
  return it != options_.end() ? it->second : fallback;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback
                              : parse_double(it->second, "--" + name);
}

bool Args::get_flag(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return false;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Args::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end())
      out.push_back(name);
  }
  return out;
}

void Args::require_known(const std::vector<std::string>& known) const {
  const std::vector<std::string> bad = unknown(known);
  if (bad.empty()) return;
  std::string message;
  for (const std::string& name : bad) {
    if (!message.empty()) message += "; ";
    message += "unknown option '--" + name + "'";
    const std::vector<std::string> close = closest_matches(name, known);
    if (!close.empty()) {
      message += ", did you mean";
      for (std::size_t i = 0; i < close.size(); ++i)
        message += (i == 0 ? " '--" : ", '--") + close[i] + "'";
      message += "?";
    }
  }
  throw ConfigError(message);
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // One-row dynamic program over the (|a|+1) x (|b|+1) edit lattice.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];  // D[i-1][j]
      row[j] = std::min({row[j - 1] + 1, up + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::vector<std::string> closest_matches(
    const std::string& name, const std::vector<std::string>& candidates,
    std::size_t limit) {
  const std::size_t cutoff = std::max<std::size_t>(3, name.size() / 2);
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d <= cutoff) ranked.push_back({d, c});
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> out;
  for (const auto& [d, c] : ranked) {
    (void)d;
    if (out.size() == limit) break;
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  return out;
}

}  // namespace mcs::util
