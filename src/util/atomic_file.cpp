#include "util/atomic_file.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MCS_HAVE_GETPID 1
#endif

namespace mcs::util {

namespace {

/// Unique-per-process-and-call temp sibling of `path`. The pid keeps two
/// processes sharing one --cache directory from colliding; the counter
/// keeps two threads of one process apart.
std::string temp_sibling(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream name;
  name << path << ".tmp." << process_id() << "."
       << counter.fetch_add(1, std::memory_order_relaxed);
  return name.str();
}

}  // namespace

long process_id() {
#ifdef MCS_HAVE_GETPID
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = temp_sibling(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw ConfigError("cannot create temp file '" + tmp + "'");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw ConfigError("write to temp file '" + tmp +
                        "' failed (disk full?)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw ConfigError("rename '" + tmp + "' -> '" + path +
                      "' failed: " + ec.message());
  }
}

void append_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw ConfigError("cannot open '" + path + "' for append");
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out)
    throw ConfigError("append to '" + path + "' failed (disk full?)");
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buf.str();
}

}  // namespace mcs::util
