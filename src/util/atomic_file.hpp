// Small-file IO primitives for checkpoint journals, result caches and
// reports: atomic whole-file writes (write-temp-then-rename — a reader
// never sees a half-written file, and a crash mid-write leaves the
// previous version intact), a plain in-place append for line-oriented
// append segments, and an audited in-place write for report files.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

namespace mcs::util {

/// Write `content` to `path` atomically: the bytes land in a unique
/// sibling temp file first, which is then renamed over `path` (rename is
/// atomic within a filesystem). Throws mcs::ConfigError when the temp
/// file cannot be created, written, flushed or renamed; the temp file is
/// removed on failure.
void write_file_atomic(const std::string& path, const std::string& content);

/// Append `content` to `path` in place (creating it when absent). NOT
/// atomic: a crash mid-write can leave a torn trailing fragment, so a
/// format using append segments must make its reader tolerate one (the
/// checkpoint journal drops everything after the last newline). Throws
/// mcs::ConfigError when the file cannot be opened or the write fails.
void append_file(const std::string& path, const std::string& content);

/// Write what `emit` streams into `path`, in place (the path may be a
/// device or a pipe, so no rename). Throws mcs::ConfigError when the file
/// cannot be opened or a write or the final flush fails (disk full, I/O
/// error): a truncated report must never pass as success.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& emit);

/// The id of the running process (0 where the platform has none): with a
/// per-process counter it names files no concurrent process can pick.
[[nodiscard]] long process_id();

/// The whole file as a string, or nullopt when it does not exist or is
/// unreadable. No exceptions — absence is an expected state for caches.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace mcs::util
