// Single-producer single-consumer lock-free ring buffer.
//
// Stand-in for the shared-memory blocks the paper adds to the OVS
// datapath: "we build one shared memory block for each PMD thread of OVS
// and copy the recorded information into the corresponding shared memory
// blocks", consumed by a user-space measurement program. The PMD thread is
// the single producer, the monitor thread the single consumer.
//
// The ring is bounded; when the monitor's data-structure updates are
// slower than packet arrival the ring fills and the PMD must either drop
// records (losing measurement fidelity) or wait (throttling the switch).
// The paper's OVS throughput curves show the *waiting* behaviour — a slow
// reservoir visibly drags the switch below line rate — so backpressure is
// the default policy here, with drop mode available for experiments.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/validate.hpp"

namespace qmax::vswitch {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (index masking beats modulo
  /// on the per-packet fast path). A zero capacity is rejected rather than
  /// silently promoted: it always signals a configuration bug upstream.
  explicit SpscRing(std::size_t min_capacity) {
    common::validate_nonzero(min_capacity, "SpscRing", "capacity");
    fault::maybe_fail_alloc();
    std::size_t cap = 64;
    while (cap < min_capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full.
  bool try_push(const T& item) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_cache_;
    if (head - tail > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    buf_[head & mask_] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: push the longest prefix of `in[0, n)` that fits and
  /// publish it with one release store. Returns how many were pushed (0
  /// when full).
  std::size_t push_batch(const T* in, std::size_t n) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t room =
        capacity() - static_cast<std::size_t>(head - tail_cache_);
    if (room < n) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      room = capacity() - static_cast<std::size_t>(head - tail_cache_);
    }
    if (n > room) n = room;
    for (std::size_t i = 0; i < n; ++i) buf_[(head + i) & mask_] = in[i];
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = buf_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pop up to `max` items into `out`; returns count.
  std::size_t pop_batch(T* out, std::size_t max) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t head = head_cache_;
    if (tail == head) {
      head = head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head) return 0;
    }
    std::size_t n = static_cast<std::size_t>(head - tail);
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) out[i] = buf_[(tail + i) & mask_];
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy (exact only when both sides are quiescent).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }

  [[nodiscard]] bool empty_approx() const noexcept { return size_approx() == 0; }

  /// Producer-side view of the consumer's progress: the monotone count of
  /// items popped so far. The vswitch watchdog samples this while waiting
  /// on a full ring — a cursor frozen across a spin budget means the
  /// consumer is stalled (not merely slow) and the PMD must degrade
  /// instead of blocking forever.
  [[nodiscard]] std::uint64_t consumer_cursor() const noexcept {
    return tail_.load(std::memory_order_acquire);
  }

 private:
  // Fixed 64B (x86-64/common ARM line size) rather than
  // std::hardware_destructive_interference_size: the latter is an ABI
  // hazard GCC warns about (-Winterference-size).
  static constexpr std::size_t kCacheLine = 64;

  std::vector<T> buf_;
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;  // producer-local snapshot of tail_
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;  // consumer-local snapshot of head_
};

}  // namespace qmax::vswitch
