#include "obs/trace.hpp"

#include <ostream>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace mcs::obs {

void TraceConfig::validate() const {
  if (sample_every < 1)
    throw ConfigError("TraceConfig: sample_every must be >= 1");
  if (max_events < 1)
    throw ConfigError("TraceConfig: max_events must be >= 1");
}

TraceBuffer::TraceBuffer(TraceConfig config, int pid)
    : config_(config), pid_(pid) {
  config_.validate();
}

void TraceBuffer::complete(std::string name, std::int32_t tid, double ts,
                           double dur, std::string args) {
  if (events_.size() >= config_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{std::move(name), tid, ts, dur,
                               std::move(args)});
}

void write_trace_json(std::ostream& out,
                      const std::vector<const TraceBuffer*>& buffers) {
  out.precision(12);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  for (const TraceBuffer* buffer : buffers) {
    if (buffer == nullptr) continue;
    if (!buffer->label().empty()) {
      comma();
      out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
          << buffer->pid() << ",\"tid\":0,\"args\":{\"name\":\""
          << util::json_escape(buffer->label()) << "\"}}";
    }
    for (const TraceEvent& e : buffer->events()) {
      comma();
      out << "{\"name\":\"" << util::json_escape(e.name)
          << "\",\"ph\":\"X\",\"pid\":" << buffer->pid()
          << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts
          << ",\"dur\":" << e.dur;
      if (!e.args.empty()) out << ",\"args\":{" << e.args << "}";
      out << "}";
    }
  }
  out << "]}\n";
}

void write_trace_file(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers) {
  util::write_file(path,
                   [&](std::ostream& out) { write_trace_json(out, buffers); });
}

}  // namespace mcs::obs
