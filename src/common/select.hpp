// Incremental (pausable) selection — the paper's SelectStep()/PivotStep() —
// and the library's one selection primitive.
//
// Algorithm 1 of the paper deamortizes a linear-time selection over the
// candidate region of the q-MAX array by running O(1/γ) "operations" of the
// selection per admitted item. This header provides that machinery as a
// standalone, testable state machine. Run to completion with finish(), the
// same machine is core::partition_top, so every selection in the library
// (Algorithm 1's stepped one, Algorithm 2's pass, queries, merges) is this
// one.
//
// IncrementalSelect implements quickselect with a pivot moved to the front
// and an unguarded Hoare partition (the libstdc++ introselect structure):
// about one comparison per element per pass, and the pivot choice leaves a
// sentinel on each side so the inner scans need no bounds checks. Ties are
// benign for this scheme — Hoare scans stop at equal elements, so constant
// runs split near the middle (packet streams are full of ties: sizes
// cluster on a handful of values).
//
// Pivots. A segment [lo, hi) of n >= kSampleMin elements whose target k
// sits at fraction f = (k - lo)/n takes its pivot from a sample (Floyd &
// Rivest, CACM 1975): kSampleSize elements read at evenly spread positions,
// and the one at sample rank f·s moved by δ = 1.5·sqrt(s·f·(1 - f)) + 1
// toward the far side, but not past the sample median, so that k lands on
// the short side of the cut. One pass then cuts the segment to about f·n
// plus a margin instead of n/2. At Algorithm 1's ranks (k = g of q + g,
// f ≈ γ/2) a selection with median-of-3 pivots scans about 1.5–1.9
// segment lengths; one with a sampled first pivot about 1.1–1.25. Nearly
// all comparisons of such a pass go the same way, so its scans are also
// branch-predictable. The sample positions are fixed, so no RNG state is
// kept. A sample that misses costs one pass over n, after which the next
// pass chooses again. Smaller segments use median-of-3.
//
// Where sampling runs. start() samples the first pass synchronously, and a
// selection never pauses inside a sample, so a paused machine's cursors are
// the same scalars a median-of-3 one has. step() — the per-admission
// budgeted advance — keeps median-of-3 and its flat 16-op charge for the
// passes after the first, so the per-step budget bound counts all the work
// a step does. finish() samples every large pass and runs each pass to its
// end without a per-element budget test.
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
#include <array>
#include <cassert>
#include <cmath>
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
  /// Segments of at least this size take a sampled pivot (where sampling
  /// runs, see the header comment); smaller ones use median-of-3.
  static constexpr std::size_t kSampleMin = 1024;
  /// Elements read per sampled pivot.
  static constexpr std::size_t kSampleSize = 63;
  /// Ops ceiling, as a multiple of the initial segment size, before we bail
  /// out to std::nth_element.
  static constexpr std::uint64_t kFallbackFactor = 32;

  IncrementalSelect() = default;

  /// Begin selecting the k-th element (0-based, cmp order) of data[0,size).
  /// The caller must keep data[0,size) unmodified until done() —
  /// q-MAX guarantees this by directing insertions to the scratch region.
  /// A segment of at least kSampleMin elements chooses its first pivot
  /// here, from a sample; total_ops() still starts at 0. Returns the ops
  /// that choice took (0 otherwise), for callers that account it.
  std::uint64_t start(T* data, std::size_t size, std::size_t k,
                      Compare cmp = {}) {
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
    return size >= kSampleMin ? begin_sampled_partition() : 0;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool active() const noexcept { return data_ != nullptr && !done_; }

  /// Run up to `budget` elementary operations (comparisons/moves, give or
  /// take the bounded small-segment burst). Returns true when selection is
  /// complete.
  bool step(std::uint64_t budget) noexcept {
    return advance(budget, /*complete=*/false);
  }

  /// Run the selection to completion, sampling the pivot of every pass
  /// over at least kSampleMin elements (core::partition_top, and the safety
  /// net at iteration end).
  void finish() noexcept {
    while (!advance(1 << 16, /*complete=*/true)) {
    }
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
  /// step() (complete = false) pauses anywhere once `budget` ops are spent
  /// and uses median-of-3 after the first pass. finish() (complete = true)
  /// samples every large pass and runs each pass to its end, checking the
  /// bail-out between passes.
  bool advance(std::uint64_t budget, bool complete) noexcept {
    if (done_) return true;
    std::uint64_t ops = 0;
    while (ops < budget && !done_) {
      if (hi_ - lo_ <= kSmallSegment) {
        insertion_sort_segment();
        done_ = true;
        break;
      }
      if (!in_partition_) {
        if (complete && hi_ - lo_ >= kSampleMin) {
          ops += begin_sampled_partition();
        } else {
          begin_partition();
          ops += 16;  // flat charge for choosing the median-of-3 pivot
        }
        continue;  // re-check the budget before partitioning
      }
      if (complete ? run_partition<false>(budget, ops)
                   : run_partition<true>(budget, ops)) {
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

  void begin_partition() noexcept {
    // Move the median of {data[lo+1], data[lo+n/2], data[hi-1]} to
    // data[lo]. The two elements left in place are the sentinels: one
    // compares >= the pivot (bounds the left scan) and one <= it (bounds
    // the right scan), so the inner loops below need no range checks.
    move_median_to_front(lo_, lo_ + 1, lo_ + (hi_ - lo_) / 2, hi_ - 1);
    enter_partition();
  }

  /// Floyd–Rivest pivot: read kSampleSize elements spread evenly over
  /// [lo+1, hi), select the one at the rank that puts k on the short side
  /// of the cut, and move it to data[lo]. The rank is at most
  /// kSampleSize - 2, so a sample element >= the pivot stays in the
  /// segment to stop the left scan; the pivot itself at data[lo] stops the
  /// right one. Returns the ops spent: the reads plus the comparisons.
  std::uint64_t begin_sampled_partition() noexcept {
    const std::size_t n = hi_ - lo_;
    constexpr double s = static_cast<double>(kSampleSize);
    const double f = static_cast<double>(k_ - lo_) / static_cast<double>(n);
    const double delta = 1.5 * std::sqrt(s * f * (1.0 - f)) + 1.0;
    // Past the sample's median the "short side" would be the long one.
    const double want = f < 0.5 ? std::min(f * s + delta, s / 2)
                                : std::max(f * s - delta, s / 2);
    const std::size_t r =
        want < 1.0 ? 0
                   : std::min(static_cast<std::size_t>(want), kSampleSize - 2);
    std::array<std::size_t, kSampleSize> pos{};
    for (std::size_t i = 0; i < kSampleSize; ++i) {
      pos[i] = lo_ + 1 + i * (n - 2) / (kSampleSize - 1);
    }
    std::uint64_t ops = kSampleSize;
    std::nth_element(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(r),
                     pos.end(), [&](std::size_t a, std::size_t b) {
                       ++ops;
                       return cmp_(data_[a], data_[b]);
                     });
    std::swap(data_[lo_], data_[pos[r]]);
    enter_partition();
    return ops;
  }

  void enter_partition() noexcept {
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

  /// Advance the unguarded Hoare partition by at most `budget` ops (one
  /// per cursor move or swap). Returns true when the partition pass is
  /// complete; pausing anywhere (including mid-scan) resumes exactly where
  /// it stopped via the scan_right_ sub-phase flag. Unpausable, it runs
  /// the pass to its end without a per-element budget test and charges
  /// the cursors' travel once.
  template <bool kPausable>
  bool run_partition(std::uint64_t budget, std::uint64_t& ops) noexcept {
    const std::size_t it0 = it_;
    const std::size_t jt0 = jt_;
    for (;;) {
      if (!scan_right_) {
        while (cmp_(data_[it_], pivot_)) {
          ++it_;
          if (kPausable && ++ops >= budget) return false;
        }
        scan_right_ = true;
        --jt_;
      }
      while (cmp_(pivot_, data_[jt_])) {
        --jt_;
        if (kPausable && ++ops >= budget) return false;
      }
      scan_right_ = false;
      if (!(it_ < jt_)) {  // cut = it_
        if (!kPausable) ops += (it_ - it0) + (jt0 - jt_);
        return true;
      }
      std::swap(data_[it_], data_[jt_]);
      ++it_;
      if (kPausable && ++ops >= budget) return false;
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
