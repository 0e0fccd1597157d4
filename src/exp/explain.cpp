#include "exp/explain.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace mcs::exp {

ExplainReport build_explain(std::string label, double lambda,
                            const obs::LatencyAnatomy* anatomy,
                            const model::ModelBreakdown* breakdown) {
  ExplainReport report;
  report.label = std::move(label);
  report.lambda = lambda;
  report.has_measured = anatomy != nullptr && anatomy->finalized() &&
                        anatomy->messages() > 0;
  report.has_model = breakdown != nullptr && !breakdown->clusters.empty();

  for (int k = 0; k < obs::kStations; ++k) {
    ExplainStation& st = report.stations[k];
    st.station = k;
    if (report.has_measured) {
      const obs::StationMeasure m = anatomy->station(k);
      st.has_measured = m.legs > 0;
      st.legs = m.legs;
      st.measured_wait = m.mean_wait;
      st.measured_service = m.mean_service;
      st.measured_rho = m.utilization;
      st.measured_channels = m.channels;
    }
    if (report.has_model) {
      const model::StationTerm& t = breakdown->system[k];
      st.has_model = t.present;
      st.model_stable = t.stable;
      st.model_lambda = t.lambda;
      st.model_wait = t.wait;
      st.model_service = t.s_mean + t.r_mean;
      st.model_rho = t.rho;
    }
    const double model_residence = st.model_wait + st.model_service;
    if (st.has_measured && st.has_model && st.model_stable &&
        model_residence > 0.0) {
      st.joined = true;
      const double measured_residence =
          st.measured_wait + st.measured_service;
      st.residence_divergence =
          std::abs(measured_residence - model_residence) / model_residence;
      st.wait_divergence =
          std::abs(st.measured_wait - st.model_wait) / model_residence;
    }
  }

  // Worst-diverging joined station.
  double worst = -1.0;
  for (const ExplainStation& st : report.stations) {
    if (!st.joined) continue;
    if (st.residence_divergence > worst) {
      worst = st.residence_divergence;
      report.worst_station = st.station;
    }
  }

  // Bottleneck: measured rho-hat wins; the model's offered rho is the
  // fallback for model-only scenarios.
  if (report.has_measured) {
    double best = -1.0;
    for (const ExplainStation& st : report.stations) {
      if (!st.has_measured) continue;
      if (st.measured_rho > best) {
        best = st.measured_rho;
        report.bottleneck_station = st.station;
      }
    }
  } else if (report.has_model) {
    report.bottleneck_station = breakdown->bottleneck_station();
  }

  if (report.has_measured) {
    report.hot_channels = anatomy->hot_channels();
    report.messages = anatomy->messages();
    const util::LogHistogram& lat = anatomy->message_latency();
    report.latency_mean = lat.mean();
    report.latency_p50 = lat.quantile(0.50);
    report.latency_p95 = lat.quantile(0.95);
    report.latency_p99 = lat.quantile(0.99);
    report.max_residual = anatomy->max_residual();
    report.max_relative_residual = anatomy->max_relative_residual();
  }
  return report;
}

namespace {

using util::json_field;
using util::json_key;

const char* station_or_none(int station) {
  return station >= 0 ? obs::station_name(station) : "none";
}

}  // namespace

void write_explain_json(const ExplainReport& report, std::ostream& out) {
  out << "{";
  bool first = true;
  json_field(out, "lambda", report.lambda, first);
  json_field(out, "has_measured", report.has_measured, first);
  json_field(out, "has_model", report.has_model, first);
  json_field(out, "bottleneck_station",
             station_or_none(report.bottleneck_station), first);
  json_field(out, "worst_station", station_or_none(report.worst_station),
             first);
  json_key(out, "stations", first);
  out << "[";
  bool first_station = true;
  for (const ExplainStation& st : report.stations) {
    if (!st.has_measured && !st.has_model) continue;
    if (!first_station) out << ",";
    first_station = false;
    out << "{";
    bool f = true;
    json_field(out, "station", obs::station_name(st.station), f);
    if (st.has_measured) {
      json_field(out, "legs", static_cast<std::int64_t>(st.legs), f);
      json_field(out, "measured_wait", st.measured_wait, f);
      json_field(out, "measured_service", st.measured_service, f);
      json_field(out, "measured_rho", st.measured_rho, f);
      json_field(out, "measured_channels",
                 static_cast<std::int64_t>(st.measured_channels), f);
    }
    if (st.has_model) {
      json_field(out, "model_stable", st.model_stable, f);
      json_field(out, "model_lambda", st.model_lambda, f);
      json_field(out, "model_wait", st.model_wait, f);
      json_field(out, "model_service", st.model_service, f);
      json_field(out, "model_rho", st.model_rho, f);
    }
    if (st.joined) {
      json_field(out, "residence_divergence", st.residence_divergence, f);
      json_field(out, "wait_divergence", st.wait_divergence, f);
    }
    out << "}";
  }
  out << "]";
  if (report.has_measured) {
    first = false;
    json_field(out, "messages", static_cast<std::int64_t>(report.messages),
               first);
    json_key(out, "latency", first);
    out << "{";
    bool f = true;
    json_field(out, "mean", report.latency_mean, f);
    json_field(out, "p50", report.latency_p50, f);
    json_field(out, "p95", report.latency_p95, f);
    json_field(out, "p99", report.latency_p99, f);
    out << "}";
    json_key(out, "conservation", first);
    out << "{";
    f = true;
    json_field(out, "max_residual", report.max_residual, f);
    json_field(out, "max_relative_residual", report.max_relative_residual, f);
    out << "}";
    json_key(out, "hot_channels", first);
    out << "[";
    bool first_ch = true;
    for (const obs::ChannelAnatomy& ch : report.hot_channels) {
      if (!first_ch) out << ",";
      first_ch = false;
      out << "{";
      f = true;
      json_field(out, "channel", static_cast<std::int64_t>(ch.channel), f);
      json_field(out, "traversals", static_cast<std::int64_t>(ch.traversals),
                 f);
      json_field(out, "mean_wait", ch.mean_wait(), f);
      json_field(out, "residence_sum", ch.residence_sum, f);
      json_field(out, "utilization", ch.utilization, f);
      out << "}";
    }
    out << "]";
  }
  out << "}";
}

std::string render_explain(const ExplainReport& report) {
  std::string text = "latency anatomy: " + report.label + "\n";

  util::TextTable table({"station", "legs", "W-hat", "W model", "S-hat",
                         "S model", "rho-hat", "rho model", "div%"});
  for (const ExplainStation& st : report.stations) {
    if (!st.has_measured && !st.has_model) continue;
    const auto opt = [](bool on, double v, int prec) {
      return on ? util::TextTable::num(v, prec) : std::string("-");
    };
    table.add_row(
        {obs::station_name(st.station),
         st.has_measured ? std::to_string(st.legs) : std::string("-"),
         opt(st.has_measured, st.measured_wait, 4),
         opt(st.has_model, st.model_wait, 4),
         opt(st.has_measured, st.measured_service, 4),
         opt(st.has_model, st.model_service, 4),
         opt(st.has_measured, st.measured_rho, 4),
         opt(st.has_model, st.model_rho, 4),
         st.joined ? util::TextTable::num(100.0 * st.residence_divergence, 1)
                   : std::string("-")});
  }
  text += table.render();

  text += "bottleneck station: ";
  text += station_or_none(report.bottleneck_station);
  if (report.bottleneck_station >= 0 && !report.has_measured)
    text += " (model rho; no measured data)";
  text += "\n";
  if (report.worst_station >= 0) {
    char line[96];
    std::snprintf(
        line, sizeof line, "worst-diverging station: %s (%.1f%%)\n",
        obs::station_name(report.worst_station),
        100.0 *
            report.stations[report.worst_station].residence_divergence);
    text += line;
  }
  if (report.has_measured) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "messages: %llu  latency mean %.4g  p50 %.4g  p95 %.4g  "
                  "p99 %.4g\n",
                  static_cast<unsigned long long>(report.messages),
                  report.latency_mean, report.latency_p50, report.latency_p95,
                  report.latency_p99);
    text += line;
    std::snprintf(line, sizeof line,
                  "conservation: max residual %.3g (relative %.3g)\n",
                  report.max_residual, report.max_relative_residual);
    text += line;
    if (!report.hot_channels.empty()) {
      text += "hot ICN2 channels (by header residence):\n";
      for (const obs::ChannelAnatomy& ch : report.hot_channels) {
        std::snprintf(line, sizeof line,
                      "  ch %d: %llu traversals, mean wait %.4g, "
                      "utilization %.3f\n",
                      ch.channel,
                      static_cast<unsigned long long>(ch.traversals),
                      ch.mean_wait(), ch.utilization);
        text += line;
      }
    }
  }
  return text;
}

}  // namespace mcs::exp
