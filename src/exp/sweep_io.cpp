#include "exp/sweep_io.hpp"

#include <fstream>
#include <set>

#include "exp/explain.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mcs::exp {

const char* to_string(sim::RelayMode mode) {
  switch (mode) {
    case sim::RelayMode::kStoreForward: return "store_forward";
    case sim::RelayMode::kCutThrough: return "cut_through";
  }
  return "?";
}

const char* to_string(sim::FlowControl flow) {
  switch (flow) {
    case sim::FlowControl::kWormhole: return "wormhole";
    case sim::FlowControl::kStoreAndForward: return "store_and_forward";
  }
  return "?";
}

namespace {

std::string opt_num(bool present, double v, int precision) {
  return present ? util::TextTable::num(v, precision) : std::string();
}

}  // namespace

void write_csv(const SweepResult& result, const std::string& path) {
  util::CsvWriter csv(
      path, {"system", "icn2", "hetero", "message_flits", "flit_bytes",
             "pattern", "relay", "flow", "lambda", "paper_latency",
             "paper_stable",
             "refined_latency", "refined_stable", "knee_lambda",
             "sim_lambda_sat", "sat_ratio",
             "replications", "completed", "saturated", "saturation_causes",
             "sim_latency",
             "sim_ci95", "sim_p50", "sim_p95", "sim_p99", "sim_internal",
             "sim_external", "external_share", "sim_state"});
  for (const SweepRow& row : result.rows) {
    const bool sim_ok = row.sim_run && row.completed > 0;
    csv.add_row({row.system_id, row.icn2_kind, row.hetero,
                 std::to_string(row.message_flits),
                 util::TextTable::num(row.flit_bytes, 0), row.pattern_id,
                 to_string(row.relay), to_string(row.flow),
                 util::TextTable::sci(row.lambda, 6),
                 opt_num(row.paper_run, row.paper_latency, 6),
                 row.paper_run ? (row.paper_stable ? "1" : "0") : "",
                 opt_num(row.refined_run, row.refined_latency, 6),
                 row.refined_run ? (row.refined_stable ? "1" : "0") : "",
                 opt_num(row.knee_lambda >= 0.0, row.knee_lambda, 8),
                 opt_num(row.sim_lambda_sat >= 0.0, row.sim_lambda_sat, 8),
                 opt_num(row.sat_ratio >= 0.0, row.sat_ratio, 4),
                 std::to_string(row.replications),
                 std::to_string(row.completed), std::to_string(row.saturated),
                 row.saturation_causes,
                 opt_num(sim_ok, row.sim_latency, 6),
                 opt_num(sim_ok, row.sim_ci, 6),
                 opt_num(sim_ok && row.sim_p50 >= 0.0, row.sim_p50, 6),
                 opt_num(sim_ok && row.sim_p95 >= 0.0, row.sim_p95, 6),
                 opt_num(sim_ok && row.sim_p99 >= 0.0, row.sim_p99, 6),
                 opt_num(sim_ok, row.sim_internal, 6),
                 opt_num(sim_ok, row.sim_external, 6),
                 opt_num(row.external_share >= 0.0, row.external_share, 4),
                 std::to_string(row.sim_state)});
  }
  // Explicit close so a failed final flush throws here (the destructor
  // must swallow it).
  csv.close();
}

using util::json_escape;
using util::json_field;

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
    json_field(out, "system", row.system_id, first);
    json_field(out, "icn2", row.icn2_kind, first);
    json_field(out, "hetero", row.hetero, first);
    json_field(out, "message_flits",
               static_cast<std::int64_t>(row.message_flits), first);
    json_field(out, "flit_bytes", row.flit_bytes, first);
    json_field(out, "pattern", row.pattern_id, first);
    json_field(out, "relay", to_string(row.relay), first);
    json_field(out, "flow", to_string(row.flow), first);
    json_field(out, "lambda", row.lambda, first);
    if (row.paper_run) {
      json_field(out, "paper_latency", row.paper_latency, first);
      json_field(out, "paper_stable", row.paper_stable, first);
    }
    if (row.refined_run) {
      json_field(out, "refined_latency", row.refined_latency, first);
      json_field(out, "refined_stable", row.refined_stable, first);
    }
    if (row.knee_lambda >= 0.0)
      json_field(out, "knee_lambda", row.knee_lambda, first);
    if (row.sim_lambda_sat >= 0.0)
      json_field(out, "sim_lambda_sat", row.sim_lambda_sat, first);
    if (row.sat_ratio >= 0.0)
      json_field(out, "sat_ratio", row.sat_ratio, first);
    if (row.sim_run) {
      json_field(out, "replications",
                 static_cast<std::int64_t>(row.replications), first);
      json_field(out, "completed", static_cast<std::int64_t>(row.completed),
                 first);
      json_field(out, "saturated", static_cast<std::int64_t>(row.saturated),
                 first);
      if (!row.saturation_causes.empty())
        json_field(out, "saturation_causes", row.saturation_causes, first);
      if (row.completed > 0) {
        json_field(out, "sim_latency", row.sim_latency, first);
        json_field(out, "sim_ci95", row.sim_ci, first);
        if (row.sim_p50 >= 0.0) {
          json_field(out, "sim_p50", row.sim_p50, first);
          json_field(out, "sim_p95", row.sim_p95, first);
          json_field(out, "sim_p99", row.sim_p99, first);
        }
        json_field(out, "sim_internal", row.sim_internal, first);
        json_field(out, "sim_external", row.sim_external, first);
        if (row.external_share >= 0.0)
          json_field(out, "external_share", row.external_share, first);
      }
      json_field(out, "sim_state", static_cast<std::int64_t>(row.sim_state),
                 first);
    }
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
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open '" + path + "' for writing");
  write_json(result, out, stable);
  out.flush();
  // Same audit as CsvWriter: a full disk must fail the run, not silently
  // truncate the report with exit code 0.
  if (!out)
    throw ConfigError("write to '" + path +
                      "' failed (disk full or I/O error); output is "
                      "incomplete");
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
