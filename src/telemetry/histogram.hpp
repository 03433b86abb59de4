// HDR-style log2-bucketed histogram for per-operation work accounting:
// selection steps per add(), batch-evict sizes, monitor-ring pop-batch
// sizes, and the flight recorder's per-stage latencies.
//
// Like every instrument (counters.hpp), Histogram has two definitions
// selected by the QMAX_TELEMETRY gate: real state when it is on, an
// empty class whose record() compiles away when it is off
// (test_telemetry.cpp static_asserts emptiness).
//
// Bucketing: value v lands in bucket bit_width(v), i.e. bucket 0 holds
// exactly {0} and bucket b >= 1 holds [2^(b-1), 2^b). Quantiles are
// resolved to the upper bound of the bucket containing the requested rank
// (clamped to the observed max), the usual HDR convention: cheap, bounded
// 2x relative error, and exact for the common small values (0, 1).
#pragma once

#include <bit>
#include <cstdint>

#include "telemetry/counters.hpp"

namespace qmax::telemetry {

/// Point-in-time summary of a histogram; a plain value type shared by both
/// gate states so registry/export code compiles unconditionally.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// The bucket geometry, identical in both gate states (an empty base, so
/// the disabled Histogram stays an empty type).
struct Log2Buckets {
  /// 0 plus one bucket per bit of a 64-bit value.
  static constexpr std::size_t kBuckets = 65;

  /// Bucket index of a value: 0 for 0, otherwise 1 + floor(log2 v).
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Largest value a bucket can hold: 0, 1, 3, 7, 15, ...
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
};

#if QMAX_TELEMETRY_ENABLED

class Histogram : public Log2Buckets {
 public:
  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return b < kBuckets ? buckets_[b] : 0;
  }

  /// Fold another histogram into this one (bucket-wise sum, max of maxes);
  /// the flight recorder merges per-thread stage histograms this way.
  void merge(const Histogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  /// Smallest value u such that at least ceil(q * count) recorded values
  /// are <= u, resolved at bucket granularity. q in [0, 1].
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5);
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += buckets_[b];
      if (cum >= rank) {
        const std::uint64_t hi = bucket_upper(b);
        return hi < max_ ? hi : max_;
      }
    }
    return max_;
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    s.count = count_;
    s.sum = sum_;
    s.max = max_;
    s.p50 = quantile(0.50);
    s.p90 = quantile(0.90);
    s.p99 = quantile(0.99);
    s.p999 = quantile(0.999);
    return s;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b = 0;
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

#else  // QMAX_TELEMETRY_ENABLED

class Histogram : public Log2Buckets {
 public:
  void record(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t) const noexcept {
    return 0;
  }
  void merge(const Histogram&) noexcept {}
  [[nodiscard]] std::uint64_t quantile(double) const noexcept { return 0; }
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept { return {}; }
  void reset() noexcept {}
};

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace qmax::telemetry
