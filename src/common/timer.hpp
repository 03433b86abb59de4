// Wall-clock stopwatch used by the throughput harness.
#pragma once

#include <chrono>
#include <cstdint>

namespace qmax::common {

class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double nanos() const noexcept { return seconds() * 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Million-operations-per-second given an op count and elapsed seconds;
/// the unit the paper reports (MPPS) for packet streams.
[[nodiscard]] inline double mops(std::uint64_t ops, double seconds) noexcept {
  return seconds > 0.0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

}  // namespace qmax::common
