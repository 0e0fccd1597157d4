// Sweep checkpoint journals (DESIGN.md §14).
//
// A journal is a line-oriented text file recording every completed row of
// one sweep:
//
//   mcs-journal v1
//   scenario <name>
//   shard <index> <count>
//   row <grid_index> <digest> <payload>
//
// `digest` is the row's content-hash cache key (exp/result_cache.hpp) and
// `payload` the rest of the line — the row's encode_row_payload record
// (hexfloat doubles, so restoration is bit-exact). The `shard` line is
// kept only for format compatibility: the sweep writes `shard 0 1`, and
// older sharded journals still load (resume matches rows by digest).
//
// On disk the journal is a sorted BASE (written whole via
// write-temp-then-rename) followed by an APPEND SEGMENT: each completed
// row lands as one appended line, O(1) instead of the former O(rows)
// whole-file rewrite per row. The segment is folded back into the base
// when it reaches half the entry count (floor 64 — amortized O(1) per
// add), and finalize() folds once more at end of run, so a COMPLETED
// journal is always fully sorted with one line per row — byte-identical
// across task schedules. The reader makes the mid-run states safe: a
// torn trailing line (crash mid-append; everything after the last
// newline) is dropped, duplicate grid_index lines resolve to the last
// occurrence (re-records supersede), and entries come back sorted by
// grid_index whatever the file order.
//
// `mcs_sweep --resume` preloads a journal and skips the recorded rows.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace mcs::exp {

struct JournalEntry {
  std::int64_t grid_index = 0;
  std::string digest;   ///< content-hash cache key of the row
  std::string payload;  ///< encode_row_payload record
};

struct Journal {
  std::string scenario;
  /// The header's shard line, read for format compatibility only.
  int shard_index = 0;
  int shard_count = 1;
  std::vector<JournalEntry> entries;  ///< grid_index order
};

/// Read `path`. Returns nullopt when the file does not exist; throws
/// mcs::ConfigError on a malformed or version-mismatched journal.
[[nodiscard]] std::optional<Journal> load_journal(const std::string& path);

/// Incremental journal writer. add() is thread-safe (worker tasks call it
/// the moment their row's last task finishes); the first write lays down
/// the header atomically, later adds append one row line each and
/// periodically compact the file back to sorted form.
class CheckpointWriter {
 public:
  /// `shard_index`/`shard_count` fill the header's compatibility shard
  /// line; the sweep passes 0, 1.
  CheckpointWriter(std::string path, std::string scenario, int shard_index,
                   int shard_count);

  /// Record one completed row and persist it (one appended line, O(1)
  /// amortized). Re-adding a grid_index supersedes its entry (resume
  /// preloads then re-records; the reader's last-occurrence rule).
  void add(std::int64_t grid_index, const std::string& digest,
           const std::string& payload);

  /// Record a batch (resume preload) with a single file rewrite.
  void add_batch(const std::vector<JournalEntry>& entries);

  /// Fold the append segment into the sorted base. Call once after the
  /// last add(): the finalized bytes depend only on the recorded rows,
  /// never on the order scheduling completed them in. No-op when the
  /// file is already compact.
  void finalize();

 private:
  void rewrite_locked();  ///< caller holds mutex_

  std::mutex mutex_;
  std::string path_;
  std::string scenario_;
  int shard_index_;
  int shard_count_;
  std::map<std::int64_t, JournalEntry> entries_;
  bool base_written_ = false;   ///< header exists on disk
  std::int64_t appends_ = 0;    ///< lines in the append segment
};

}  // namespace mcs::exp
