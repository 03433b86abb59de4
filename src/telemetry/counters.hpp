// Zero-overhead-when-disabled telemetry instruments: counters and gauges.
//
// Every instrument has two definitions selected by the QMAX_TELEMETRY
// compile-time gate (the CMake option of the same name; the one switch of
// the whole layer, which also turns on the flight recorder's spans in
// trace.hpp / span.hpp):
//
//   ON  — real state. Single-writer instruments (Counter, Gauge, MaxGauge)
//         are plain integers: they live inside per-thread hot structures
//         (a QMax instance, a PMD loop) where atomics would only add cost.
//         Cross-thread instruments (PaddedCounter, PaddedGauge) are
//         relaxed atomics padded to a cache line so a producer hammering
//         one does not false-share with a consumer reading another.
//   OFF — empty classes whose methods are inline no-ops. Every call site
//         compiles away entirely; test_telemetry.cpp static_asserts that
//         the disabled instruments are empty types.
//
// Instruments hold state only; naming and aggregation live in
// registry.hpp / export.hpp, which are always compiled (they are not on
// any hot path).
#pragma once

#include <atomic>
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

/// Instantaneous level (occupancy, live count). Single writer.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_ = v; }
  void add(std::int64_t d) noexcept { v_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

/// High-water mark. Single writer.
class MaxGauge {
 public:
  void update(std::uint64_t v) noexcept {
    if (v > v_) v_ = v;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Cross-thread monotonic counter, padded to a full cache line so that
/// adjacent instruments written by different threads never false-share.
class alignas(kCacheLineBytes) PaddedCounter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Cross-thread level gauge (e.g. ring occupancy published by the
/// consumer, read by an exporter on another thread).
class alignas(kCacheLineBytes) PaddedGauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

static_assert(sizeof(PaddedCounter) == kCacheLineBytes);
static_assert(sizeof(PaddedGauge) == kCacheLineBytes);

#else  // QMAX_TELEMETRY_ENABLED

// Disabled: empty types, every method an inline no-op. Values read as 0.

class Counter {
 public:
  void inc(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  [[nodiscard]] std::int64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class MaxGauge {
 public:
  void update(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class PaddedCounter {
 public:
  void inc(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class PaddedGauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  [[nodiscard]] std::int64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace qmax::telemetry
