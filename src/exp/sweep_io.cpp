#include "exp/sweep_io.hpp"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string_view>
#include <variant>

#include "exp/explain.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mcs::exp {

using util::json_escape;
using util::json_field;

namespace {

// The fields of a SweepRow that reach CSV, JSON and the result-cache
// payload, in output order. All three read this one list, so an output
// field is one entry. A field's type says how it prints: text verbatim;
// counts and flags as integers (a stored count must lie in [0, max]);
// reals through TextTable::num, or ::sci, at `digits` in CSV, at stream
// precision 12 in JSON and in hexfloat in the payload; names through
// to_string.
struct Text { std::string SweepRow::*member; };
struct Count { int SweepRow::*member; int max = INT_MAX; };
struct Flag { bool SweepRow::*member; };
struct Real { double SweepRow::*member; int digits; bool sci = false; };
template <typename Enum> struct Name { Enum SweepRow::*member; };

/// When a field is present in a row: CSV writes "" for an absent field
/// and JSON omits it. The payload keeps every field but the grid
/// coordinates, present or not.
enum class When : std::uint8_t {
  kGrid,        ///< always: a grid coordinate, so not in the payload
  kStored,      ///< never printed: a run flag only the payload keeps
  kPaper,       ///< the paper model ran
  kRefined,     ///< the refined model ran
  kSet,         ///< a real >= 0 or a non-empty text (else "not computed")
  kSim,         ///< the simulation ran
  kCompleted,   ///< ... and a replication completed
  kPercentile,  ///< ... and it measured percentiles (sim_p50 >= 0)
};

struct Field {
  const char* key;
  std::variant<Text, Count, Flag, Real, Name<sim::RelayMode>,
               Name<sim::FlowControl>> value;
  When when;
};

constexpr Field kFields[] = {
    {"system", Text{&SweepRow::system_id}, When::kGrid},
    {"icn2", Text{&SweepRow::icn2_kind}, When::kGrid},
    {"hetero", Text{&SweepRow::hetero}, When::kGrid},
    {"message_flits", Count{&SweepRow::message_flits}, When::kGrid},
    {"flit_bytes", Real{&SweepRow::flit_bytes, 0}, When::kGrid},
    {"pattern", Text{&SweepRow::pattern_id}, When::kGrid},
    {"relay", Name<sim::RelayMode>{&SweepRow::relay}, When::kGrid},
    {"flow", Name<sim::FlowControl>{&SweepRow::flow}, When::kGrid},
    {"lambda", Real{&SweepRow::lambda, 6, true}, When::kGrid},
    {"paper_run", Flag{&SweepRow::paper_run}, When::kStored},
    {"paper_latency", Real{&SweepRow::paper_latency, 6}, When::kPaper},
    {"paper_stable", Flag{&SweepRow::paper_stable}, When::kPaper},
    {"refined_run", Flag{&SweepRow::refined_run}, When::kStored},
    {"refined_latency", Real{&SweepRow::refined_latency, 6}, When::kRefined},
    {"refined_stable", Flag{&SweepRow::refined_stable}, When::kRefined},
    {"knee_lambda", Real{&SweepRow::knee_lambda, 8}, When::kSet},
    {"sim_lambda_sat", Real{&SweepRow::sim_lambda_sat, 8}, When::kSet},
    {"sat_ratio", Real{&SweepRow::sat_ratio, 4}, When::kSet},
    {"sim_run", Flag{&SweepRow::sim_run}, When::kStored},
    {"replications", Count{&SweepRow::replications}, When::kSim},
    {"completed", Count{&SweepRow::completed}, When::kSim},
    {"saturated", Count{&SweepRow::saturated}, When::kSim},
    {"saturation_causes", Text{&SweepRow::saturation_causes}, When::kSet},
    {"sim_latency", Real{&SweepRow::sim_latency, 6}, When::kCompleted},
    {"sim_ci95", Real{&SweepRow::sim_ci, 6}, When::kCompleted},
    {"sim_p50", Real{&SweepRow::sim_p50, 6}, When::kPercentile},
    {"sim_p95", Real{&SweepRow::sim_p95, 6}, When::kPercentile},
    {"sim_p99", Real{&SweepRow::sim_p99, 6}, When::kPercentile},
    {"sim_internal", Real{&SweepRow::sim_internal, 6}, When::kCompleted},
    {"sim_external", Real{&SweepRow::sim_external, 6}, When::kCompleted},
    {"external_share", Real{&SweepRow::external_share, 4}, When::kSet},
    {"sim_state", Count{&SweepRow::sim_state, 2}, When::kSim},
};

constexpr std::string_view kPayloadHead = "mcs-row-payload v2";

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

bool present(const Field& field, const SweepRow& row) {
  switch (field.when) {
    case When::kGrid: return true;
    case When::kStored: return false;
    case When::kPaper: return row.paper_run;
    case When::kRefined: return row.refined_run;
    case When::kSet:
      if (const Text* text = std::get_if<Text>(&field.value))
        return !(row.*text->member).empty();
      return row.*std::get<Real>(field.value).member >= 0.0;
    case When::kSim: return row.sim_run;
    case When::kCompleted: return row.sim_run && row.completed > 0;
    case When::kPercentile:
      return row.sim_run && row.completed > 0 && row.sim_p50 >= 0.0;
  }
  return false;
}

/// The field's CSV text; with `exact`, its payload text: the same but
/// for reals, which print in hexfloat so that strtod restores their bits.
std::string text_of(const Field& field, const SweepRow& row, bool exact) {
  return std::visit(
      Overloaded{
          [&](const Text& t) { return row.*t.member; },
          [&](const Count& c) { return std::to_string(row.*c.member); },
          [&](const Flag& f) {
            return std::string(row.*f.member ? "1" : "0");
          },
          [&](const Real& r) {
            if (!exact)
              return r.sci ? util::TextTable::sci(row.*r.member, r.digits)
                           : util::TextTable::num(row.*r.member, r.digits);
            char hex[48];
            std::snprintf(hex, sizeof hex, "%a", row.*r.member);
            return std::string(hex);
          },
          [&](const auto& name) {
            return std::string(to_string(row.*name.member));
          }},
      field.value);
}

void json_value(std::ostream& out, const Field& field, const SweepRow& row,
                bool& first) {
  const char* key = field.key;
  std::visit(
      Overloaded{
          [&](const Text& t) { json_field(out, key, row.*t.member, first); },
          [&](const Count& c) {
            json_field(out, key, std::int64_t{row.*c.member}, first);
          },
          [&](const Flag& f) { json_field(out, key, row.*f.member, first); },
          [&](const Real& r) { json_field(out, key, row.*r.member, first); },
          [&](const auto& name) {
            json_field(out, key, to_string(row.*name.member), first);
          }},
      field.value);
}

/// Sets the field's member of `row` from its payload text. Throws
/// mcs::ConfigError when the text is not a value the field can hold.
void restore(const Field& field, const std::string& text, SweepRow& row) {
  const char* key = field.key;
  std::visit(
      Overloaded{
          [&](const Text& t) { row.*t.member = text; },
          [&](const Count& c) {
            row.*c.member =
                static_cast<int>(util::parse_int(text, 0, c.max, key));
          },
          [&](const Flag& f) {
            row.*f.member = util::parse_int(text, 0, 1, key) == 1;
          },
          [&](const Real& r) { row.*r.member = util::parse_double(text, key); },
          [](const auto&) {}},  // names are grid coordinates, never stored
      field.value);
}

}  // namespace

std::string encode_row_payload(const SweepRow& row) {
  std::string out(kPayloadHead);
  for (const Field& field : kFields) {
    if (field.when == When::kGrid) continue;
    out += ' ';
    out += field.key;
    out += '=';
    out += text_of(field, row, /*exact=*/true);
  }
  return out;
}

bool decode_row_payload(const std::string& payload, SweepRow& row) {
  // Every stored field, once, in list order: anything else (another
  // version, a torn or edited line) is a miss.
  std::string_view in = payload;
  SweepRow restored = row;
  if (!in.starts_with(kPayloadHead)) return false;
  in.remove_prefix(kPayloadHead.size());
  for (const Field& field : kFields) {
    if (field.when == When::kGrid) continue;
    const std::string_view key = field.key;
    if (!in.starts_with(' ') || !in.substr(1).starts_with(key) ||
        in.substr(key.size() + 1, 1) != "=")
      return false;
    in.remove_prefix(key.size() + 2);
    const std::string text(in.substr(0, in.find(' ')));
    in.remove_prefix(text.size());
    try {
      restore(field, text, restored);
    } catch (const ConfigError&) {
      return false;
    }
  }
  if (!in.empty()) return false;
  row = std::move(restored);
  return true;
}

void write_csv(const SweepResult& result, const std::string& path) {
  util::write_file(path, [&](std::ostream& out) {
    // One line of `cell(field)` over the printed fields.
    const auto line = [&](const auto& cell) {
      const char* sep = "";
      for (const Field& field : kFields) {
        if (field.when == When::kStored) continue;
        out << sep << util::csv_escape(cell(field));
        sep = ",";
      }
      out << '\n';
    };
    line([](const Field& field) { return std::string(field.key); });
    for (const SweepRow& row : result.rows)
      line([&](const Field& field) {
        return present(field, row) ? text_of(field, row, false)
                                   : std::string();
      });
  });
}

void write_json(const SweepResult& result, std::ostream& out, bool stable) {
  out.precision(12);
  out << "{\"name\":\"" << json_escape(result.name) << "\"";
  if (!stable) {
    out << ",\"threads\":" << result.threads
        << ",\"sim_tasks\":" << result.sim_tasks
        << ",\"wall_seconds\":" << result.wall_seconds;
  }
  out << ",\"saturated_points\":" << result.saturated_points;
  if (!stable) {
    out << ",\"manifest\":";
    result.manifest.write_json(out);
    out.precision(12);  // the manifest writer drops precision to 6
    out << ",\"task_stats\":[";
    bool first_stat = true;
    for (const TaskStat& stat : result.task_stats) {
      if (!first_stat) out << ",";
      first_stat = false;
      out << "{\"kind\":\"" << stat.kind
          << "\",\"queue_wait\":" << stat.queue_wait
          << ",\"exec\":" << stat.exec << ",\"thread\":" << stat.thread
          << "}";
    }
    out << "]";
  }
  out << ",\"rows\":[";
  bool first_row = true;
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const SweepRow& row = result.rows[r];
    if (!first_row) out << ",";
    first_row = false;
    out << "{";
    bool first = true;
    for (const Field& field : kFields)
      if (present(field, row)) json_value(out, field, row, first);
    // Flight-recorder health: lossy captures must say so in the output
    // (a decimated probe series / truncated trace reads very differently
    // from a complete one).
    if (r < result.row_probes.size())
      json_field(out, "probe_decimations",
                 static_cast<std::int64_t>(result.row_probes[r].decimations()),
                 first);
    if (r < result.row_traces.size())
      json_field(out, "trace_dropped",
                 static_cast<std::int64_t>(result.row_traces[r].dropped()),
                 first);
    // Attribution (--explain): measured anatomy joined against the
    // refined model's station terms; either side may be absent.
    const obs::LatencyAnatomy* anatomy =
        r < result.row_anatomy.size() ? &result.row_anatomy[r] : nullptr;
    const model::ModelBreakdown* breakdown =
        r < result.row_breakdown.size() &&
                !result.row_breakdown[r].clusters.empty()
            ? &result.row_breakdown[r]
            : nullptr;
    if (anatomy != nullptr || breakdown != nullptr) {
      const ExplainReport report =
          build_explain(row_label(row), row.lambda, anatomy, breakdown);
      util::json_key(out, "explain", first);
      write_explain_json(report, out);
    }
    out << "}";
  }
  out << "]}\n";
}

void write_json_file(const SweepResult& result, const std::string& path,
                     bool stable) {
  util::write_file(path,
                   [&](std::ostream& out) { write_json(result, out, stable); });
}

util::TextTable to_table(const SweepResult& result) {
  // Decide which coordinate columns vary across the sweep.
  std::set<std::string> systems, patterns, icn2s, heteros;
  std::set<int> flits;
  std::set<double> bytes;
  std::set<int> relays, flows;
  bool any_knee = false, any_paper = false, any_refined = false,
       any_sim = false, any_search = false;
  for (const SweepRow& row : result.rows) {
    systems.insert(row.system_id);
    patterns.insert(row.pattern_id);
    icn2s.insert(row.icn2_kind);
    heteros.insert(row.hetero);
    flits.insert(row.message_flits);
    bytes.insert(row.flit_bytes);
    relays.insert(static_cast<int>(row.relay));
    flows.insert(static_cast<int>(row.flow));
    any_knee |= row.knee_lambda >= 0.0;
    any_search |= row.sim_lambda_sat >= 0.0;
    any_paper |= row.paper_run;
    any_refined |= row.refined_run;
    any_sim |= row.sim_run;
  }

  std::vector<std::string> headers;
  if (systems.size() > 1) headers.push_back("system");
  if (icn2s.size() > 1) headers.push_back("icn2");
  if (heteros.size() > 1) headers.push_back("hetero");
  if (flits.size() > 1) headers.push_back("M");
  if (bytes.size() > 1) headers.push_back("L_m");
  if (patterns.size() > 1) headers.push_back("pattern");
  if (relays.size() > 1) headers.push_back("relay");
  if (flows.size() > 1) headers.push_back("flow");
  headers.push_back("offered traffic");
  if (any_paper) headers.push_back("analysis (paper)");
  if (any_refined) headers.push_back("analysis (refined)");
  if (any_knee) headers.push_back("knee lambda*");
  if (any_search) {
    headers.push_back("sim lambda*");
    headers.push_back("sim/model");
  }
  if (any_sim) {
    headers.push_back("simulation");
    headers.push_back("sim 95% ci");
  }

  util::TextTable table(headers);
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> cells;
    if (systems.size() > 1) cells.push_back(row.system_id);
    if (icn2s.size() > 1) cells.push_back(row.icn2_kind);
    if (heteros.size() > 1) cells.push_back(row.hetero);
    if (flits.size() > 1) cells.push_back(std::to_string(row.message_flits));
    if (bytes.size() > 1)
      cells.push_back(util::TextTable::num(row.flit_bytes, 0));
    if (patterns.size() > 1) cells.push_back(row.pattern_id);
    if (relays.size() > 1) cells.push_back(to_string(row.relay));
    if (flows.size() > 1) cells.push_back(to_string(row.flow));
    cells.push_back(util::TextTable::sci(row.lambda, 2));

    auto model_cell = [](bool run, double latency, bool stable) {
      if (!run) return std::string("-");
      return stable ? util::TextTable::num(latency, 2)
                    : std::string("saturated");
    };
    if (any_paper)
      cells.push_back(model_cell(row.paper_run, row.paper_latency,
                                 row.paper_stable));
    if (any_refined)
      cells.push_back(model_cell(row.refined_run, row.refined_latency,
                                 row.refined_stable));
    if (any_knee)
      cells.push_back(row.knee_lambda >= 0.0
                          ? util::TextTable::sci(row.knee_lambda, 2)
                          : std::string("-"));
    if (any_search) {
      cells.push_back(row.sim_lambda_sat >= 0.0
                          ? util::TextTable::sci(row.sim_lambda_sat, 2)
                          : std::string("-"));
      cells.push_back(row.sat_ratio >= 0.0
                          ? util::TextTable::num(row.sat_ratio, 2)
                          : std::string("-"));
    }
    if (any_sim) {
      if (!row.sim_run) {
        cells.push_back("-");
        cells.push_back("-");
      } else if (row.sim_state == 1) {
        // Name the cap(s) that ended the replications: "saturated[worms]"
        // reads very differently from "saturated[events]".
        cells.push_back(row.saturation_causes.empty()
                            ? std::string("saturated")
                            : "saturated[" + row.saturation_causes + "]");
        cells.push_back("-");
      } else {
        cells.push_back(util::TextTable::num(row.sim_latency, 2) +
                        (row.sim_state == 2 ? "*" : ""));
        cells.push_back(util::TextTable::num(row.sim_ci, 2));
      }
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace mcs::exp
