// Emission of SweepResults: CSV (via util/csv), JSON, and an aligned text
// table (via util/table) for terminal reading.
#pragma once

#include <iosfwd>
#include <string>

#include "exp/sweep.hpp"
#include "util/table.hpp"

namespace mcs::exp {

/// Human-readable names used in tables, CSV and JSON.
[[nodiscard]] const char* to_string(sim::RelayMode mode);
[[nodiscard]] const char* to_string(sim::FlowControl flow);

/// One CSV row per SweepRow with the full coordinate + output schema
/// (missing evaluations are empty cells).
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

/// Render the rows as a text table. Coordinate columns that take a single
/// value across the whole sweep are dropped to keep the table narrow.
[[nodiscard]] util::TextTable to_table(const SweepResult& result);

}  // namespace mcs::exp
