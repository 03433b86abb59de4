// q-MAX over *time-based* slack windows (Section 4.3.4).
//
// The distributed heavy-hitter setting defines the window in time units
// rather than packets ("consider a window size of 24 hours; if τ = 1/24,
// we get a slack window that varies between 23 and 24 hours"): different
// NMPs see different packet rates, so a count-based window would not be
// comparable across them. TimeSlackQMax partitions the timeline into
// blocks of duration W·τ, keeps a reservoir per block in a cyclic buffer
// (Algorithm 3 geometry on the time axis), and answers queries over a
// window covering between W(1−τ) and W time units ending at the newest
// item's timestamp.
//
// Unlike the count-based SlackQMax, blocks here can be empty (quiet
// periods) or arbitrarily full (bursts); space stays O(q/τ) reservoirs
// regardless. Timestamps must be non-decreasing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/validate.hpp"
#include "qmax/batch.hpp"
#include "qmax/concepts.hpp"
#include "qmax/core.hpp"
#include "qmax/entry.hpp"
#include "qmax/qmax.hpp"

namespace qmax {

template <Reservoir R = QMax<>>
class TimeSlackQMax {
 public:
  using EntryT = typename R::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using Factory = std::function<R()>;

  /// @param window  window span in time units (e.g. nanoseconds)
  /// @param tau     slack fraction in (0, 1]
  TimeSlackQMax(std::uint64_t window, double tau, Factory factory)
      : window_(window), tau_(tau), factory_(std::move(factory)) {
    common::validate_nonzero(window, "TimeSlackQMax", "window");
    common::validate_unit_interval(tau, "TimeSlackQMax", "tau");
    if (!factory_) throw std::invalid_argument("TimeSlackQMax: null factory");
    const double span = static_cast<double>(window) * tau;
    const std::uint64_t block_span =
        span < 1.0 ? 1 : static_cast<std::uint64_t>(span);
    const std::uint64_t num_blocks =
        (window + block_span - 1) / block_span + 1;
    ring_.init(block_span, num_blocks, factory_);
  }

  /// Report an item observed at `timestamp` (non-decreasing).
  bool add(Id id, Value val, std::uint64_t timestamp) {
    if (timestamp < now_) {
      throw std::invalid_argument("TimeSlackQMax: timestamps must not go back");
    }
    now_ = timestamp;
    ++processed_;
    return ring_.at(timestamp / ring_.block_size(), [] {}).add(id, val);
  }

  /// Report `n` timestamped items at once (timestamps non-decreasing);
  /// equivalent to n in-order add() calls. Runs are cut where the
  /// timestamp crosses a block boundary, so slot recycling happens at
  /// exactly the scalar points; each run is handed to its block's batched
  /// path. Returns the number of admitted items. Like the scalar path, a
  /// backwards timestamp throws after the preceding items were ingested.
  std::size_t add_batch(const Id* ids, const Value* vals,
                        const std::uint64_t* timestamps, std::size_t n) {
    std::size_t admitted = 0;
    std::size_t i = 0;
    while (i < n) {
      if (timestamps[i] < now_) {
        throw std::invalid_argument(
            "TimeSlackQMax: timestamps must not go back");
      }
      const std::uint64_t idx = timestamps[i] / ring_.block_size();
      // Extend the run while timestamps stay monotone inside this block;
      // a non-monotone timestamp ends the run and throws on re-entry.
      std::size_t j = i + 1;
      while (j < n && timestamps[j] >= timestamps[j - 1] &&
             timestamps[j] / ring_.block_size() == idx) {
        ++j;
      }
      now_ = timestamps[j - 1];
      processed_ += j - i;
      admitted += batch::add_batch_or_each(ring_.at(idx, [] {}), ids + i,
                                           vals + i, j - i);
      i = j;
    }
    return admitted;
  }

  /// Append the q largest items over a window ending at the newest
  /// timestamp and spanning last_coverage() ∈ [W(1−τ), W] time units
  /// (less while the stream is younger than that).
  void query_into(std::vector<EntryT>& out) const {
    R result = factory_();
    collect(merge_buf_, /*clear=*/true);
    batch::add_entries_or_each(result, std::span<const EntryT>(merge_buf_));
    result.query_into(out);
  }

  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    query_into(out);
    return out;
  }

  /// All covering blocks' candidates, unfiltered (see SlackQMax).
  void collect_into(std::vector<EntryT>& out) const {
    collect(out, /*clear=*/false);
  }

  /// Time units covered by the last query.
  [[nodiscard]] std::uint64_t last_coverage() const noexcept {
    return coverage_;
  }

  void reset() {
    ring_.reset_all();
    now_ = 0;
    processed_ = 0;
    coverage_ = 0;
  }

  [[nodiscard]] std::size_t q() const { return ring_.blocks()[0].q(); }
  [[nodiscard]] std::size_t live_count() const {
    std::size_t n = 0;
    for (const R& b : ring_.blocks()) n += b.live_count();
    return n;
  }
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  [[nodiscard]] double tau() const noexcept { return tau_; }
  [[nodiscard]] std::uint64_t block_span() const noexcept {
    return ring_.block_size();
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  /// Snapshot self-description (see SlackQMax::snapshot_tag).
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept
    requires requires { R::snapshot_tag(); }
  {
    return 0x03000000u | (R::snapshot_tag() & 0x00FFFFFFu);
  }

  /// Snapshot hook: time-axis geometry guards, the block ring, and the
  /// stream clock (now_ restores the monotonicity guard's watermark).
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    ar.check_u64(window_, "time window");
    ar.check_f64(tau_, "time tau");
    ring_.serialize_state(ar, version);
    ar.u64(now_);
    ar.u64(processed_);
    ar.u64(coverage_);
  }

 private:
  friend struct InvariantAccess;

  static constexpr std::uint64_t kNoBlock = core::BlockRing<R>::kNoBlock;

  void collect(std::vector<EntryT>& out, bool clear) const {
    if (clear) out.clear();
    // Cover blocks whose span intersects (now − W', now] for the largest
    // W' ≤ W expressible in whole blocks: every block with
    // start > now − W is safely inside the window (its items are at most
    // W old); the oldest such block start bounds the coverage.
    const std::uint64_t now = now_;
    std::uint64_t oldest_start = now;  // nothing covered yet
    const std::uint64_t cur_idx = now / ring_.block_size();
    for (std::uint64_t back = 0; back < ring_.num_blocks(); ++back) {
      if (cur_idx < back) break;  // reached the beginning of time
      const std::uint64_t idx = cur_idx - back;
      const std::uint64_t bstart = idx * ring_.block_size();
      // A block is safe iff none of its items can be older than W:
      // bstart ≥ now − W. The first unsafe block ends the walk; by then
      // coverage exceeds W − block_span ≥ W(1−τ).
      if (bstart + window_ < now) break;
      oldest_start = bstart;  // time covered even if the block was quiet
      if (const R* blk = ring_.find(idx)) blk->query_into(out);
    }
    coverage_ = now - oldest_start;
  }

  std::uint64_t window_;
  double tau_;
  Factory factory_;
  core::BlockRing<R> ring_;  // Algorithm 3 geometry on the time axis
  std::uint64_t now_ = 0;
  std::uint64_t processed_ = 0;
  mutable std::uint64_t coverage_ = 0;
  mutable std::vector<EntryT> merge_buf_;
};

}  // namespace qmax
