// Benchmark-harness environment knobs.
//
// Every bench binary honours:
//   QMAX_BENCH_SCALE  — float multiplier on stream lengths (default 1.0;
//                       the paper uses 150M-item streams, our default is a
//                       laptop-friendly fraction declared per benchmark)
//   QMAX_BENCH_LARGE  — "1" enables the q = 10^7 data points
//   QMAX_BENCH_REPS   — repetitions per data point (default 3; paper: 10)
//   QMAX_METRICS_OUT  — path for the JSON telemetry blob benches write on
//                       exit ("-" = stdout; unset = no blob)
//   QMAX_TRACE_OUT    — path for the Chrome trace-event JSON the flight
//                       recorder exports on exit ("-" = stdout; unset =
//                       no trace; empty document unless built with
//                       -DQMAX_TELEMETRY=ON)
#pragma once

#include <cstdint>
#include <string>

namespace qmax::common {

[[nodiscard]] double bench_scale() noexcept;
[[nodiscard]] bool bench_large() noexcept;
[[nodiscard]] int bench_reps() noexcept;

/// Destination for the benches' JSON metrics blob; empty = disabled.
[[nodiscard]] const std::string& metrics_out();

/// Destination for the flight-recorder Chrome trace; empty = disabled.
[[nodiscard]] const std::string& trace_out();

/// items = max(1, round(base * bench_scale()))
[[nodiscard]] std::uint64_t scaled(std::uint64_t base) noexcept;

}  // namespace qmax::common
