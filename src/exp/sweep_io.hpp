// Emission of SweepResults: CSV (via util/csv), JSON, an aligned text
// table (via util/table) for terminal reading, and the row payload the
// result cache and the checkpoint journal store. CSV, JSON and the
// payload read one ordered list of the row's fields (sweep_io.cpp).
#pragma once

#include <iosfwd>
#include <string>

#include "exp/sweep.hpp"
#include "util/table.hpp"

namespace mcs::exp {

/// One CSV row per SweepRow with the full coordinate + output schema
/// (a field that is absent for the row, such as a model that did not run
/// or the simulation columns of a model-only row, is an empty cell).
/// Throws like write_json_file.
void write_csv(const SweepResult& result, const std::string& path);

/// The same schema as a JSON document: {"name", "threads", "wall_seconds",
/// "rows": [{...}, ...]}. `stable` omits the volatile run metadata
/// (threads, sim_tasks, wall_seconds, manifest, task_stats) so two runs
/// producing the same rows emit byte-identical documents — the form the
/// cache/resume bit-identity tests compare (mcs_sweep --stable-json).
void write_json(const SweepResult& result, std::ostream& out,
                bool stable = false);
/// Throws mcs::ConfigError when the file cannot be opened or the final
/// flush fails (disk full / I/O error) — a truncated result file must
/// never pass as success.
void write_json_file(const SweepResult& result, const std::string& path,
                     bool stable = false);

/// The row's output fields as one versioned text line
/// ("mcs-row-payload v2", then ` key=value` per stored field of the
/// field list, doubles in hexfloat), so a restored row is bit-identical
/// to the computed one (DESIGN.md §14).
[[nodiscard]] std::string encode_row_payload(const SweepRow& row);

/// Restores the output fields encode_row_payload wrote into `row`
/// (coordinate fields are untouched). Returns false and leaves `row`
/// unchanged unless `payload` is a complete current-version record whose
/// every value fits its field (counts in [0, INT_MAX], sim_state in
/// [0, 2]); callers treat that as a cache miss and recompute.
[[nodiscard]] bool decode_row_payload(const std::string& payload,
                                      SweepRow& row);

/// Render the rows as a text table. Coordinate columns that take a single
/// value across the whole sweep are dropped to keep the table narrow.
[[nodiscard]] util::TextTable to_table(const SweepResult& result);

}  // namespace mcs::exp
