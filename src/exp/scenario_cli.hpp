// Scenario resolution and spec-shaping flags of the mcs_sweep CLI. Cache
// and journal digests hash the spec these flags shape, so a resumed or
// cached run must be given the same spec-shaping flags as the first.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "util/cli.hpp"

namespace mcs::exp {

/// Stems of the .ini files in `dir`, sorted (empty when `dir` cannot be
/// read).
[[nodiscard]] std::vector<std::string> scenario_names_in(
    const std::string& dir);

/// Scenario names a bare argument could have meant: the bundled
/// scenarios/ directory plus any .ini files in the working directory.
[[nodiscard]] std::vector<std::string> known_scenario_names();

/// Resolve a positional scenario argument: a bare name (no '/' and no
/// .ini suffix) is looked up in the bundled scenarios/ directory, then
/// the working directory; anything path-like passes through. Throws
/// mcs::ConfigError with closest-match suggestions on an unknown name.
/// `tool` names the binary in the error's help hint.
[[nodiscard]] std::string resolve_scenario_path(const std::string& arg,
                                                const std::string& tool);

/// Apply every spec-shaping flag on top of the loaded file — seed,
/// replications, phases (--warmup/--measured/--paper-scale) and
/// evaluation switches (--no-sim/--knee/--find-saturation). One entry
/// point, so every caller shapes a spec the same way. The systems
/// themselves are never overridden: they come from the file's [system],
/// [cluster.<i>] and [icn2_params] keys, where the parser checks them.
void apply_spec_flags(const util::Args& args, ScenarioSpec& spec);

/// The spec-shaping flag names accepted by apply_spec_flags (for
/// Args::require_known lists), read from the same flag table.
[[nodiscard]] std::vector<std::string> spec_flag_names();

}  // namespace mcs::exp
