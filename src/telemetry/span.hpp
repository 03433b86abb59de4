// RAII span scopes over the flight recorder (trace.hpp) — what the hot
// paths actually touch.
//
//   telemetry::Span sp(telemetry::Stage::kAdd);     // times its scope
//   telemetry::instant(telemetry::Stage::kOverload, "ladder:enter_shed");
//
// With QMAX_TELEMETRY off, Span is an empty type with a constexpr
// constructor and instant() is an inline no-op: the instrumentation
// compiles to nothing (static_asserted in tests/test_telemetry.cpp). With
// it on, a Span costs two steady-clock reads plus one ring store and one
// histogram bucket increment on destruction — cheap enough for per-add
// use while observing, but instrumented builds are for observation, not
// for the paper's throughput tables.
#pragma once

#include "telemetry/trace.hpp"

namespace qmax::telemetry {

#if QMAX_TELEMETRY_ENABLED

class Span {
 public:
  explicit Span(Stage s) noexcept : stage_(s), t0_(trace_now_ns()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    recorder().span(stage_, stage_name(stage_), t0_, trace_now_ns());
  }

 private:
  Stage stage_;
  std::uint64_t t0_;
};

/// Record a point-in-time marker (ladder transitions, one-off anomalies).
/// `name` must have static storage duration.
inline void instant(Stage s, const char* name) noexcept {
  recorder().instant(s, name);
}

#else  // QMAX_TELEMETRY_ENABLED

class Span {
 public:
  explicit constexpr Span(Stage) noexcept {}
};

inline void instant(Stage, const char*) noexcept {}

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace qmax::telemetry
