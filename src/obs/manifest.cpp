#include "obs/manifest.hpp"

#include <chrono>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define MCS_HAVE_RUSAGE 1
#endif

#include "util/json.hpp"

namespace mcs::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_name() {
#ifdef MCS_HAVE_RUSAGE
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0')
    return buf;
#endif
  return "unknown";
}

}  // namespace

RunManifest RunManifest::begin() {
  RunManifest m;
#ifdef MCS_GIT_DESCRIBE
  m.git = MCS_GIT_DESCRIBE;
#else
  m.git = "unknown";
#endif
  m.compiler = compiler_id();
#ifdef MCS_BUILD_TYPE
  m.build_type = MCS_BUILD_TYPE;
#else
  m.build_type = "unknown";
#endif
#ifdef MCS_BUILD_FLAGS
  m.build_flags = MCS_BUILD_FLAGS;
#endif
  m.hostname = host_name();
  m.wall_anchor_ = steady_seconds();
  return m;
}

void RunManifest::complete() {
  wall_seconds = steady_seconds() - wall_anchor_;
#ifdef MCS_HAVE_RUSAGE
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    const auto tv_seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             1e-6 * static_cast<double>(tv.tv_usec);
    };
    cpu_seconds = tv_seconds(usage.ru_utime) + tv_seconds(usage.ru_stime);
    peak_rss_kb = static_cast<std::int64_t>(usage.ru_maxrss);
  }
#endif
}

void RunManifest::write_json(std::ostream& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const char* sep = indent > 0 ? "\n" : "";
  out.precision(6);
  out << "{" << sep;
  const auto field = [&](const char* key, const std::string& value,
                         bool last = false) {
    out << pad << "\"" << key << "\": \"" << util::json_escape(value) << "\""
        << (last ? "" : ",") << sep;
  };
  field("git", git);
  field("compiler", compiler);
  field("build_type", build_type);
  field("build_flags", build_flags);
  field("hostname", hostname);
  out << pad << "\"wall_seconds\": " << wall_seconds << "," << sep;
  out << pad << "\"cpu_seconds\": " << cpu_seconds << "," << sep;
  out << pad << "\"peak_rss_kb\": " << peak_rss_kb << sep;
  if (indent > 0)
    out << std::string(static_cast<std::size_t>(indent > 2 ? indent - 2 : 0),
                       ' ');
  out << "}";
}

}  // namespace mcs::obs
