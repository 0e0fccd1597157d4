#include "obs/probe.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mcs::obs {

const char* net_class_name(int net_class) {
  switch (net_class) {
    case 0: return "icn1";
    case 1: return "ecn1";
    case 2: return "icn2";
  }
  return "?";
}

void ProbeConfig::validate() const {
  if (max_samples < 2)
    throw ConfigError("ProbeConfig: max_samples must be >= 2");
  if (interval < 0.0)
    throw ConfigError("ProbeConfig: interval must be >= 0 (0 = auto)");
}

ProbeSeries::ProbeSeries(ProbeConfig config) : config_(config) {
  config_.validate();
  interval_ = config_.interval;
  next_sample_ = interval_ > 0.0 ? interval_ : 0.0;
  samples_.reserve(config_.max_samples);
}

bool ProbeSeries::due(double now) {
  if (interval_ <= 0.0) {
    // Auto mode: the first opportunity with time progress sets the cadence.
    if (!(now > 0.0)) return false;
    interval_ = now;
    next_sample_ = now;
  }
  if (now < next_sample_) return false;
  // One sample per due window even if the event stream jumped several
  // intervals ahead (no catch-up burst: samples carry their exact time).
  next_sample_ += interval_;
  if (next_sample_ <= now)
    next_sample_ +=
        (std::floor((now - next_sample_) / interval_) + 1.0) * interval_;
  return true;
}

void ProbeSeries::record(ProbeSample sample) {
  if (samples_.size() >= config_.max_samples) {
    // Adaptive decimation: keep every second sample (even indices, so the
    // first sample survives) and double the cadence. The buffer then
    // covers the whole run at half resolution instead of truncating its
    // tail — exactly what a warmup-transient or saturation plot needs.
    std::size_t w = 0;
    for (std::size_t r = 0; r < samples_.size(); r += 2)
      samples_[w++] = std::move(samples_[r]);
    samples_.resize(w);
    interval_ *= 2.0;
    ++decimations_;
  }
  MCS_ASSERT(samples_.empty() || sample.time >= samples_.back().time);
  samples_.push_back(std::move(sample));
}

namespace {

std::size_t max_clusters(const std::vector<LabeledProbeSeries>& series) {
  std::size_t n = 0;
  for (const LabeledProbeSeries& s : series) {
    if (s.series == nullptr) continue;
    for (const ProbeSample& sample : s.series->samples())
      n = std::max(n, sample.per_cluster_delivered.size());
  }
  return n;
}

}  // namespace

void write_probe_csv(std::ostream& out,
                     const std::vector<LabeledProbeSeries>& series) {
  const std::size_t clusters = max_clusters(series);
  out << "run,time,events,queue_depth,live_worms,waiting_worms,pool_rows,"
         "generated,delivered_measured";
  for (int k = 0; k < kNetClasses; ++k) out << ",util_" << net_class_name(k);
  for (std::size_t c = 0; c < clusters; ++c) out << ",delivered_c" << c;
  out << "\n";
  out.precision(12);
  for (const LabeledProbeSeries& s : series) {
    if (s.series == nullptr) continue;
    for (const ProbeSample& p : s.series->samples()) {
      out << util::CsvWriter::escape(s.label) << "," << p.time << ","
          << p.events << "," << p.queue_depth << "," << p.live_worms << ","
          << p.waiting_worms << "," << p.pool_rows << "," << p.generated
          << "," << p.delivered_measured;
      for (int k = 0; k < kNetClasses; ++k) out << "," << p.utilization[k];
      for (std::size_t c = 0; c < clusters; ++c) {
        out << ",";
        if (c < p.per_cluster_delivered.size())
          out << p.per_cluster_delivered[c];
      }
      out << "\n";
    }
  }
}

void write_probe_json(std::ostream& out,
                      const std::vector<LabeledProbeSeries>& series) {
  out.precision(12);
  out << "{\"probes\":[";
  bool first_series = true;
  for (const LabeledProbeSeries& s : series) {
    if (s.series == nullptr) continue;
    if (!first_series) out << ",";
    first_series = false;
    out << "{\"run\":\"" << util::json_escape(s.label)
        << "\",\"interval\":" << s.series->interval()
        << ",\"decimations\":" << s.series->decimations() << ",\"samples\":[";
    bool first = true;
    for (const ProbeSample& p : s.series->samples()) {
      if (!first) out << ",";
      first = false;
      out << "{\"time\":" << p.time << ",\"events\":" << p.events
          << ",\"queue_depth\":" << p.queue_depth
          << ",\"live_worms\":" << p.live_worms
          << ",\"waiting_worms\":" << p.waiting_worms
          << ",\"pool_rows\":" << p.pool_rows
          << ",\"generated\":" << p.generated
          << ",\"delivered_measured\":" << p.delivered_measured
          << ",\"utilization\":[";
      for (int k = 0; k < kNetClasses; ++k)
        out << (k > 0 ? "," : "") << p.utilization[k];
      out << "],\"per_cluster_delivered\":[";
      for (std::size_t c = 0; c < p.per_cluster_delivered.size(); ++c)
        out << (c > 0 ? "," : "") << p.per_cluster_delivered[c];
      out << "]}";
    }
    out << "]}";
  }
  out << "]}\n";
}

void write_probe_file(const std::string& path,
                      const std::vector<LabeledProbeSeries>& series) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot open '" + path + "' for writing");
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json)
    write_probe_json(out, series);
  else
    write_probe_csv(out, series);
}

}  // namespace mcs::obs
