// Incremental (pausable) selection — the paper's SelectStep()/PivotStep().
//
// Algorithm 1 of the paper deamortizes a linear-time selection over the
// candidate region of the q-MAX array by running O(1/γ) "operations" of the
// selection per admitted item. This header provides that machinery as a
// standalone, testable state machine.
//
// IncrementalSelect implements quickselect with the classic
// median-of-3-to-front + unguarded Hoare partition (the libstdc++
// introselect structure): about one comparison per element per pass, and
// the median-of-3 arrangement leaves sentinels on both sides so the inner
// scans need no bounds checks. Ties are benign for this scheme — Hoare
// scans stop at equal elements, so constant runs split near the middle
// (packet streams are full of ties: sizes cluster on a handful of values).
//
// Post-condition (identical to std::nth_element): data[k] holds the element
// that would be at position k in a cmp-sorted order; everything before k
// does not compare greater than it, everything after does not compare less.
// The q-MAX array uses exactly this property as its fused Select+Pivot: an
// ascending selection at k = size-q (or a descending one at k = q-1) leaves
// the q largest items contiguous at the top (bottom) of the segment —
// the partition *is* the paper's pivot step.
//
// Robustness: quickselect has a quadratic worst case on adversarial inputs.
// After kFallbackFactor * size operations (never observed in tests, but an
// adversary choosing values after seeing our deterministic pivots could
// force it) the machine completes synchronously via std::nth_element, which
// is introselect and therefore O(size). Correctness is never at risk; only
// a single update's latency would degrade.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace qmax::common {

template <typename T, typename Compare = std::less<T>>
class IncrementalSelect {
 public:
  /// Segments at or below this size are insertion-sorted in one (bounded)
  /// burst instead of partitioned further.
  static constexpr std::size_t kSmallSegment = 24;
  /// Ops ceiling, as a multiple of the initial segment size, before we bail
  /// out to std::nth_element.
  static constexpr std::uint64_t kFallbackFactor = 32;

  IncrementalSelect() = default;

  /// Begin selecting the k-th element (0-based, cmp order) of data[0,size).
  /// The caller must keep data[0,size) unmodified until done() —
  /// q-MAX guarantees this by directing insertions to the scratch region.
  void start(T* data, std::size_t size, std::size_t k, Compare cmp = {}) {
    assert(data != nullptr && size > 0 && k < size);
    data_ = data;
    lo_ = 0;
    hi_ = size;
    k_ = k;
    cmp_ = std::move(cmp);
    size_ = size;
    in_partition_ = false;
    done_ = false;
    total_ops_ = 0;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool active() const noexcept { return data_ != nullptr && !done_; }

  /// Run up to `budget` elementary operations (comparisons/moves, give or
  /// take the bounded small-segment burst). Returns true when selection is
  /// complete.
  bool step(std::uint64_t budget) noexcept {
    if (done_) return true;
    std::uint64_t ops = 0;
    while (ops < budget && !done_) {
      if (hi_ - lo_ <= kSmallSegment) {
        insertion_sort_segment();
        done_ = true;
        break;
      }
      if (!in_partition_) {
        begin_partition();
        ops += 16;  // flat charge for choosing the median-of-3 pivot
        continue;   // re-check the budget before partitioning
      }
      if (run_partition(budget, ops)) {
        conclude_partition();
      }
    }
    total_ops_ += ops;
    if (!done_ &&
        total_ops_ > kFallbackFactor * static_cast<std::uint64_t>(size_)) {
      std::nth_element(data_ + lo_, data_ + k_, data_ + hi_, cmp_);
      done_ = true;
    }
    return done_;
  }

  /// Run the selection to completion (used on query and as the safety net
  /// at iteration end).
  void finish() noexcept {
    while (!done_) step(1 << 16);
  }

  /// The selected element; valid once done().
  [[nodiscard]] const T& nth() const noexcept {
    assert(done_);
    return data_[k_];
  }

  [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }

  /// Snapshot hook: the scalar cursor state (segment bounds, partition
  /// sub-phase, pivot copy) fully captures a paused selection. The data
  /// pointer and comparator are owner-supplied context, not state — the
  /// owner must call rebind() after loading so the cursors resume against
  /// the freshly restored array.
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.sz(lo_);
    ar.sz(hi_);
    ar.sz(k_);
    ar.sz(size_);
    ar.b(in_partition_);
    ar.b(scan_right_);
    ar.b(done_);
    ar.pod(pivot_);
    ar.sz(it_);
    ar.sz(jt_);
    ar.u64(total_ops_);
  }

  /// Point a restored selection at its owner's (restored) array. Passing
  /// nullptr marks the machine inactive (no selection was in flight).
  void rebind(T* data, Compare cmp) noexcept {
    data_ = data;
    cmp_ = std::move(cmp);
  }

 private:
  void begin_partition() noexcept {
    // Move the median of {data[lo+1], data[lo+n/2], data[hi-1]} to
    // data[lo]. The two elements left in place are the sentinels: one
    // compares >= the pivot (bounds the left scan) and one <= it (bounds
    // the right scan), so the inner loops below need no range checks.
    move_median_to_front(lo_, lo_ + 1, lo_ + (hi_ - lo_) / 2, hi_ - 1);
    pivot_ = data_[lo_];  // data[lo] is outside the partition range: stable
    it_ = lo_ + 1;
    jt_ = hi_;
    scan_right_ = false;
    in_partition_ = true;
  }

  void move_median_to_front(std::size_t result, std::size_t a, std::size_t b,
                            std::size_t c) noexcept {
    if (cmp_(data_[a], data_[b])) {
      if (cmp_(data_[b], data_[c])) {
        std::swap(data_[result], data_[b]);
      } else if (cmp_(data_[a], data_[c])) {
        std::swap(data_[result], data_[c]);
      } else {
        std::swap(data_[result], data_[a]);
      }
    } else if (cmp_(data_[a], data_[c])) {
      std::swap(data_[result], data_[a]);
    } else if (cmp_(data_[b], data_[c])) {
      std::swap(data_[result], data_[c]);
    } else {
      std::swap(data_[result], data_[b]);
    }
  }

  /// Advance the unguarded Hoare partition by at most `budget` ops.
  /// Returns true when the partition pass is complete; pausing anywhere
  /// (including mid-scan) resumes exactly where it stopped via the
  /// scan_right_ sub-phase flag.
  bool run_partition(std::uint64_t budget, std::uint64_t& ops) noexcept {
    for (;;) {
      if (!scan_right_) {
        while (cmp_(data_[it_], pivot_)) {
          ++it_;
          if (++ops >= budget) return false;
        }
        scan_right_ = true;
        --jt_;
      }
      while (cmp_(pivot_, data_[jt_])) {
        --jt_;
        if (++ops >= budget) return false;
      }
      scan_right_ = false;
      if (!(it_ < jt_)) return true;  // cut = it_
      std::swap(data_[it_], data_[jt_]);
      ++it_;
      if (++ops >= budget) return false;
    }
  }

  void conclude_partition() noexcept {
    in_partition_ = false;
    // data[lo, it_) <= pivot-ish, data[it_, hi) >= pivot-ish, with both
    // sides strictly smaller than [lo, hi): it_ > lo (pivot sits at lo)
    // and it_ < hi (a sentinel >= pivot stops the left scan before hi).
    if (k_ < it_) {
      hi_ = it_;
    } else {
      lo_ = it_;
    }
  }

  void insertion_sort_segment() noexcept {
    for (std::size_t i = lo_ + 1; i < hi_; ++i) {
      T v = std::move(data_[i]);
      std::size_t j = i;
      while (j > lo_ && cmp_(v, data_[j - 1])) {
        data_[j] = std::move(data_[j - 1]);
        --j;
      }
      data_[j] = std::move(v);
    }
  }

  T* data_ = nullptr;
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  std::size_t k_ = 0;
  std::size_t size_ = 0;
  Compare cmp_{};

  bool in_partition_ = false;
  bool scan_right_ = false;  // resumed inside the right-to-left scan
  bool done_ = false;
  T pivot_{};
  std::size_t it_ = 0;  // left-to-right cursor; the cut when crossing
  std::size_t jt_ = 0;  // right-to-left cursor

  std::uint64_t total_ops_ = 0;
};

}  // namespace qmax::common
