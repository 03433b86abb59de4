// Zero-overhead-when-disabled telemetry instruments: the event counter.
//
// The layer has two instrument types, Counter (here) and Histogram
// (histogram.hpp). Each has two definitions selected by the
// QMAX_TELEMETRY compile-time gate (the CMake option of the same name; the
// one switch of the whole layer, which also turns on the flight
// recorder's spans in trace.hpp / span.hpp):
//
//   ON  — real state. Instruments are single-writer plain integers: they
//         live inside per-thread hot structures (a QMax instance, a PMD
//         loop, one consumer thread) where atomics would only add cost.
//   OFF — empty classes whose methods are inline no-ops. Every call site
//         compiles away entirely; test_telemetry.cpp static_asserts that
//         the disabled instruments are empty types.
//
// Instruments hold state only; naming and aggregation live in
// registry.hpp / export.hpp, which are always compiled (they are not on
// any hot path).
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(QMAX_TELEMETRY) && QMAX_TELEMETRY
#define QMAX_TELEMETRY_ENABLED 1
#else
#define QMAX_TELEMETRY_ENABLED 0
#endif

namespace qmax::telemetry {

inline constexpr bool kEnabled = QMAX_TELEMETRY_ENABLED == 1;

/// x86-64 / common ARM line size; fixed (not
/// hardware_destructive_interference_size) for ABI stability.
inline constexpr std::size_t kCacheLineBytes = 64;

#if QMAX_TELEMETRY_ENABLED

/// Monotonic event count. Single writer; readers may race benignly
/// (snapshots tolerate a torn read of a monotone 64-bit on the platforms
/// we target, and the registry samples between runs in practice).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

#else  // QMAX_TELEMETRY_ENABLED

// Disabled: empty types, every method an inline no-op. Values read as 0.

class Counter {
 public:
  void inc(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace qmax::telemetry
