#include "exp/checkpoint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kMagic = "mcs-journal";
constexpr const char* kVersion = "v1";

[[noreturn]] void malformed(const std::string& path,
                            const std::string& what) {
  throw ConfigError("journal '" + path + "': " + what);
}

std::string row_line(const JournalEntry& entry) {
  return "row " + std::to_string(entry.grid_index) + " " + entry.digest +
         " " + entry.payload + "\n";
}

}  // namespace

std::optional<Journal> load_journal(const std::string& path) {
  std::optional<std::string> text = util::read_file(path);
  if (!text) return std::nullopt;

  // A crash mid-append leaves a torn trailing line. The append path
  // writes each "row ...\n" with one call, so a complete line always
  // ends in '\n': everything after the last newline is the torn
  // fragment — drop it, never parse it. (The header and every earlier
  // line landed via atomic rewrite or completed appends, so anything
  // malformed BEFORE the final newline is real corruption and still
  // throws below.)
  if (!text->empty() && text->back() != '\n') {
    const std::size_t last_nl = text->find_last_of('\n');
    text->erase(last_nl == std::string::npos ? 0 : last_nl + 1);
  }

  std::istringstream in(*text);
  std::string line;

  if (!std::getline(in, line) || line != std::string(kMagic) + " " + kVersion)
    malformed(path, "bad header (expected '" + std::string(kMagic) + " " +
                        kVersion + "')");

  Journal journal;
  if (!std::getline(in, line) || line.rfind("scenario ", 0) != 0)
    malformed(path, "missing scenario line");
  journal.scenario = line.substr(9);

  if (!std::getline(in, line)) malformed(path, "missing shard line");
  {
    std::istringstream shard(line);
    std::string tag;
    if (!(shard >> tag >> journal.shard_index >> journal.shard_count) ||
        tag != "shard" || journal.shard_count < 1 ||
        journal.shard_index < 0 ||
        journal.shard_index >= journal.shard_count)
      malformed(path, "bad shard line '" + line + "'");
  }

  // The append segment may re-record a grid_index (resume preload, then
  // the live run) and arrives in completion order: the LAST occurrence
  // wins, and the entries come back sorted by grid_index regardless of
  // file order.
  std::map<std::int64_t, JournalEntry> by_index;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string tag;
    JournalEntry entry;
    if (!(row >> tag >> entry.grid_index >> entry.digest) || tag != "row")
      malformed(path, "bad row line '" + line + "'");
    std::getline(row, entry.payload);
    // Strip the single separating space; what remains is the payload
    // verbatim (it contains spaces itself).
    if (!entry.payload.empty() && entry.payload.front() == ' ')
      entry.payload.erase(0, 1);
    if (entry.payload.empty()) malformed(path, "row without payload");
    by_index[entry.grid_index] = std::move(entry);
  }
  journal.entries.reserve(by_index.size());
  for (auto& [index, entry] : by_index) {
    (void)index;
    journal.entries.push_back(std::move(entry));
  }
  return journal;
}

CheckpointWriter::CheckpointWriter(std::string path, std::string scenario,
                                   int shard_index, int shard_count)
    : path_(std::move(path)),
      scenario_(std::move(scenario)),
      shard_index_(shard_index),
      shard_count_(shard_count) {}

void CheckpointWriter::add(std::int64_t grid_index,
                           const std::string& digest,
                           const std::string& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[grid_index] = JournalEntry{grid_index, digest, payload};
  if (!base_written_) {
    // First write: the header (and this row) land atomically, so a
    // reader never sees a headerless file.
    rewrite_locked();
    return;
  }
  util::append_file(path_, row_line(entries_[grid_index]));
  ++appends_;
  // Compaction keeps the segment bounded at half the entry count (floor
  // 64): an add costs one appended line, O(1) amortized, instead of the
  // former O(rows) whole-file rewrite — which made checkpointing an
  // N-row sweep O(N^2) in journal bytes written.
  if (appends_ >= std::max<std::int64_t>(
          64, static_cast<std::int64_t>(entries_.size()) / 2))
    rewrite_locked();
}

void CheckpointWriter::add_batch(const std::vector<JournalEntry>& entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const JournalEntry& entry : entries)
    entries_[entry.grid_index] = entry;
  rewrite_locked();
}

void CheckpointWriter::finalize() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (base_written_ && appends_ == 0) return;  // already compact
  rewrite_locked();
}

void CheckpointWriter::rewrite_locked() {
  std::string text = std::string(kMagic) + " " + kVersion + "\n";
  text += "scenario " + scenario_ + "\n";
  text += "shard " + std::to_string(shard_index_) + " " +
          std::to_string(shard_count_) + "\n";
  for (const auto& [index, entry] : entries_) {
    (void)index;
    text += row_line(entry);
  }
  util::write_file_atomic(path_, text);
  base_written_ = true;
  appends_ = 0;
}

}  // namespace mcs::exp
