// JSON export for the metric registry, plus a poll-driven periodic
// sampler for long-running monitor threads.
//
// Output shape (stable, machine-readable; validated in CI with
// `python3 -m json.tool`):
//
//   {
//     "telemetry_enabled": true,
//     "metrics": {
//       "qmax.admitted": {"type": "counter", "value": 123},
//       "ring0.occupancy": {"type": "gauge", "value": 17.0},
//       "qmax.steps_per_add": {"type": "histogram", "count": 9, "sum": 42,
//                              "mean": 4.7, "max": 9,
//                              "p50": 3, "p90": 7, "p99": 9, "p999": 9}
//     }
//   }
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace qmax::telemetry {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Format a double as a JSON-legal number (never "nan"/"inf").
inline std::string json_number(double v) {
  if (!(v == v) || v > 1e308 || v < -1e308) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One metric as a JSON object value (the part after `"name": `).
inline std::string metric_json(const MetricSample& s) {
  std::string out;
  switch (s.kind) {
    case MetricKind::kCounter:
      out = "{\"type\": \"counter\", \"value\": " + std::to_string(s.counter) +
            "}";
      break;
    case MetricKind::kGauge:
      out = "{\"type\": \"gauge\", \"value\": " + json_number(s.gauge) + "}";
      break;
    case MetricKind::kHistogram:
      out = "{\"type\": \"histogram\", \"count\": " +
            std::to_string(s.hist.count) +
            ", \"sum\": " + std::to_string(s.hist.sum) +
            ", \"mean\": " + json_number(s.hist.mean()) +
            ", \"max\": " + std::to_string(s.hist.max) +
            ", \"p50\": " + std::to_string(s.hist.p50) +
            ", \"p90\": " + std::to_string(s.hist.p90) +
            ", \"p99\": " + std::to_string(s.hist.p99) +
            ", \"p999\": " + std::to_string(s.hist.p999) + "}";
      break;
  }
  return out;
}

/// The `"metrics": {...}` object body for a set of samples.
inline std::string metrics_json_object(const std::vector<MetricSample>& samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(s.name);
    out += "\": ";
    out += metric_json(s);
  }
  out += "}";
  return out;
}

/// Full snapshot of a registry as a self-contained JSON document.
inline std::string snapshot_json(const Registry& reg = Registry::instance()) {
  std::string out = "{\"telemetry_enabled\": ";
  out += kEnabled ? "true" : "false";
  out += ", \"metrics\": ";
  out += metrics_json_object(reg.collect());
  out += "}";
  return out;
}

/// Write a document (a metrics blob, a Chrome trace) to `path`, "-"
/// meaning stdout. Returns false unless every byte was written and the
/// file closed cleanly, so callers can report a truncated document.
inline bool write_text_file(const std::string& path, const std::string& text) {
  const bool to_stdout = path == "-";
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = to_stdout ? std::fflush(f) == 0 : std::fclose(f) == 0;
  return ok && closed;
}

/// Poll-driven periodic sampler for single-threaded event loops (the
/// multi-PMD monitor thread drains rings in a tight loop; it calls
/// `maybe_sample()` once per drain round and pays only a clock read when
/// the interval has not elapsed). Snapshots accumulate in-process; a
/// long-running deployment would forward them from `samples()`.
class Sampler {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Sampler(std::chrono::nanoseconds interval,
                   const Registry& reg = Registry::instance())
      : reg_(&reg), interval_(interval), next_(Clock::now() + interval) {}

  /// Take a snapshot if the interval has elapsed; returns true when one
  /// was taken.
  bool maybe_sample() {
    const auto now = Clock::now();
    if (now < next_) return false;
    // Skip missed intervals rather than bursting to catch up.
    do {
      next_ += interval_;
    } while (next_ <= now);
    samples_.push_back(snapshot_json(*reg_));
    return true;
  }

  /// Force a snapshot regardless of the interval.
  void sample_now() { samples_.push_back(snapshot_json(*reg_)); }

  [[nodiscard]] const std::vector<std::string>& samples() const noexcept {
    return samples_;
  }

 private:
  const Registry* reg_;
  std::chrono::nanoseconds interval_;
  Clock::time_point next_;
  std::vector<std::string> samples_;
};

}  // namespace qmax::telemetry
