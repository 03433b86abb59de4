// Export for the flight recorder (trace.hpp): Chrome trace-event JSON
// plus stage-latency histogram folding into the metric registry.
//
// The trace document follows the catapult "JSON Object Format" — an
// object with a "traceEvents" array — so it loads directly in
// chrome://tracing and https://ui.perfetto.dev. Spans are "X" (complete)
// events with microsecond ts/dur; ladder transitions and other markers
// are "i" (instant) events; one "M" metadata event per recorder names its
// thread. Always compiled: with QMAX_TELEMETRY off the document is valid
// but carries no events (and says so in otherData, under the same
// "telemetry_enabled" flag as the metrics blob), so bench harness and CI
// code need no gate of their own.
//
// Call sites must only export with recording threads quiescent — the
// same contract as TraceRegistry.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace qmax::telemetry {

/// Register every stage histogram as "trace.stage.<stage>" in `reg`
/// (handles appended to `regs`): the one export path of the stage
/// latencies, read through the ordinary metric registry. With the gate
/// off, registers nothing.
inline void bind_trace_stage_metrics(
    [[maybe_unused]] Registry& reg,
    [[maybe_unused]] std::vector<Registration>& regs) {
#if QMAX_TELEMETRY_ENABLED
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Stage s = static_cast<Stage>(i);
    regs.push_back(reg.add_histogram(
        std::string("trace.stage.") + stage_name(s),
        [s] { return TraceRegistry::instance().merged_stage(s).snapshot(); }));
  }
#endif
}

namespace trace_detail_export {

/// Microseconds with ns precision, the unit catapult expects.
[[nodiscard]] inline std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace trace_detail_export

/// The full Chrome trace document.
[[nodiscard]] inline std::string trace_json() {
  std::string out = "{\"traceEvents\": [";
#if QMAX_TELEMETRY_ENABLED
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n";
  };
  // Thread-name metadata first: one row label per recorder.
  TraceRegistry::instance().for_each_recorder([&](const ThreadRecorder& r) {
    comma();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ";
    out += std::to_string(r.tid());
    out += ", \"args\": {\"name\": \"qmax-";
    out += std::to_string(r.tid());
    out += "\"}}";
  });
  TraceRegistry::instance().for_each_recorder([&](const ThreadRecorder& r) {
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(
        r.events_recorded() < kRingEvents ? r.events_recorded()
                                          : kRingEvents));
    r.collect(events);
    for (const Event& e : events) {
      comma();
      out += "{\"name\": \"";
      out += json_escape(e.name == nullptr ? "?" : e.name);
      out += "\", \"cat\": \"";
      out += stage_name(e.stage);
      out += "\", \"pid\": 1, \"tid\": ";
      out += std::to_string(r.tid());
      out += ", \"ts\": ";
      out += trace_detail_export::micros(e.ts_ns);
      if (e.dur_ns == 0) {
        out += ", \"ph\": \"i\", \"s\": \"t\"}";
      } else {
        out += ", \"ph\": \"X\", \"dur\": ";
        out += trace_detail_export::micros(e.dur_ns);
        out += "}";
      }
    }
  });
  out += "\n";
#endif
  out += "], \"displayTimeUnit\": \"ns\", \"otherData\": ";
  out += "{\"source\": \"qmax flight recorder\", \"telemetry_enabled\": ";
  out += kEnabled ? "true" : "false";
  out += "}}\n";
  return out;
}

}  // namespace qmax::telemetry
