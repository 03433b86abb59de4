// q-MAX over slack windows (Section 4.3 of the paper).
//
// Exact sliding-window q-MAX needs Ω(W) space even for q = 1 (Section
// 4.3.1), so the paper relaxes to (W, τ)-slack windows: the query may
// answer with respect to any window of size in [W(1−τ), W]. SlackQMax
// implements the whole family behind one class:
//
//   * levels = 1, lazy = false  →  Algorithm 3 ("Basic"): ⌈1/τ⌉ blocks of
//     W·τ items, one reservoir each, cyclic reset; O(1) update,
//     O(q·τ⁻¹) query.
//   * levels = c > 1, lazy = false  →  Algorithm 4: level ℓ holds blocks
//     of ~W·τ^(ℓ/c) items; a query covers the window with O(τ^(1/c))
//     blocks per level: O(c) update, O(q·c·τ^(−1/c)) query.
//   * lazy = true  →  Theorem 7: a front reservoir absorbs every item in
//     O(1); once per finest block its top q is flushed into all levels,
//     recovering the fast query with O(1 + q·c/(Wτ)) amortized updates.
//
// Geometry. The finest block size is s = max(1, ⌊W·τ⌋); levels share a
// branching factor b = ⌈(W/s)^(1/c)⌉ so every level-ℓ block is exactly b
// level-(ℓ+1) blocks and all boundaries align. A query walks a cursor
// backwards from the newest item, always taking the *coarsest* stored
// block that ends at the cursor and does not reach past W items back,
// until at least W − s items are covered. Alignment guarantees the finest
// level can always continue the walk, and ring retention (each level keeps
// blocks spanning ≥ W_eff − s ≥ W − s items) guarantees availability.
//
// Merging a block means feeding its top q into the result reservoir; any
// item in the top q of the covered span is in the top q of its own block,
// so the merge is exact for the covered window.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
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
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"

namespace qmax {

template <Reservoir R = QMax<>>
class SlackQMax {
 public:
  using EntryT = typename R::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using Factory = std::function<R()>;

  struct Options {
    std::size_t levels = 1;  // c; 1 = Algorithm 3, >1 = Algorithm 4
    bool lazy = false;       // Theorem 7 front-reservoir mode
  };

  /// Gated instruments (no-ops unless -DQMAX_TELEMETRY=ON).
  struct Telemetry {
    telemetry::Counter block_resets;       // ring slots recycled
    telemetry::Counter front_flushes;      // lazy-mode front drains
    telemetry::Histogram blocks_per_query; // blocks merged per query

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("block_resets", block_resets);
      fn("front_flushes", front_flushes);
      fn("blocks_per_query", blocks_per_query);
    }
    void reset() noexcept {
      block_resets.reset();
      front_flushes.reset();
      blocks_per_query.reset();
    }
  };

  SlackQMax(std::uint64_t window, double tau, Factory factory,
            Options opts = {})
      : window_(window), tau_(tau), opts_(opts), factory_(std::move(factory)) {
    common::validate_nonzero(window, "SlackQMax", "window");
    common::validate_unit_interval(tau, "SlackQMax", "tau");
    common::validate_nonzero(opts_.levels, "SlackQMax", "levels");
    if (!factory_) throw std::invalid_argument("SlackQMax: null factory");

    const double wt = static_cast<double>(window) * tau;
    fine_block_ = wt < 1.0 ? 1 : static_cast<std::uint64_t>(wt);
    const std::size_t c = opts_.levels;
    const double blocks_needed =
        static_cast<double>(window) / static_cast<double>(fine_block_);
    branch_ = static_cast<std::uint64_t>(
        std::ceil(std::pow(blocks_needed, 1.0 / static_cast<double>(c))));
    if (branch_ < 1) branch_ = 1;

    // Level 0 is the coarsest; level c-1 the finest (block size s).
    levels_.resize(c);
    std::uint64_t n = 1;
    for (std::size_t l = 0; l < c; ++l) n *= branch_;  // b^c finest blocks
    std::uint64_t size = fine_block_;
    std::uint64_t count = n;
    for (std::size_t l = c; l-- > 0;) {
      levels_[l].init(size, count, factory_);
      size *= branch_;
      count /= branch_;
    }
    effective_window_ = fine_block_ * n;

    if (opts_.lazy) front_.push_back(factory_());
  }

  /// Report an item. O(levels) per update, or O(1) amortized in lazy mode.
  bool add(Id id, Value val) {
    bool admitted;
    if (opts_.lazy) {
      admitted = front_[0].add(id, val);
      ++t_;
      if (t_ % fine_block_ == 0) flush_front();
    } else {
      admitted = false;
      for (LevelRing& lv : levels_) {
        admitted = current_block(lv).add(id, val) || admitted;
      }
      ++t_;
    }
    return admitted;
  }

  /// Report `n` items at once; equivalent to n in-order add() calls. Runs
  /// are cut at finest-block boundaries — every level's block size is a
  /// multiple of the finest block size, so within a run each level's
  /// current block (and the lazy-mode flush point) is fixed, and block
  /// recycling / front flushes happen at exactly the scalar points. Each
  /// run is handed to the per-block reservoirs' own batched path (or a
  /// scalar loop for reservoir types without one).
  void add_batch(const Id* ids, const Value* vals, std::size_t n) {
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t to_boundary = fine_block_ - (t_ % fine_block_);
      const std::size_t run = static_cast<std::size_t>(
          std::min<std::uint64_t>(n - i, to_boundary));
      if (opts_.lazy) {
        batch::add_batch_or_each(front_[0], ids + i, vals + i, run);
        t_ += run;
        if (t_ % fine_block_ == 0) flush_front();
      } else {
        for (LevelRing& lv : levels_) {
          batch::add_batch_or_each(current_block(lv), ids + i, vals + i, run);
        }
        t_ += run;
      }
      i += run;
    }
  }

  /// Append the q largest items over a window of size last_coverage(),
  /// which is guaranteed to be in [min(t, W(1−τ)), W].
  void query_into(std::vector<EntryT>& out) const {
    R result = factory_();
    collect_into(merge_buf_, /*clear=*/true);
    batch::add_entries_or_each(result, std::span<const EntryT>(merge_buf_));
    result.query_into(out);
  }

  /// Append the *candidates* of the covered window — each covering
  /// block's top q, unfiltered — to `out`. A superset of the window's top
  /// q (up to q per block); used by estimators that must de-duplicate by
  /// key before ranking (e.g. windowed count-distinct).
  void collect_into(std::vector<EntryT>& out) const {
    collect_into(out, /*clear=*/false);
  }

 private:
  void collect_into(std::vector<EntryT>& out, bool clear) const {
    if (clear) out.clear();
    const std::uint64_t t = t_;
    std::uint64_t blocks_merged = 0;
    // Horizon: where coarse-block content ends. In lazy mode, levels only
    // contain flushed data (multiples of the finest block size); the front
    // reservoir covers (horizon, t].
    const std::uint64_t horizon = opts_.lazy ? t - (t % fine_block_) : t;
    if (opts_.lazy && t > horizon) {
      front_[0].query_into(out);
      ++blocks_merged;
    }

    std::uint64_t e = horizon;
    std::uint64_t stop =
        t > (window_ - fine_block_) ? t - (window_ - fine_block_) : 0;
    if (stop == t && t > 0) stop = t - 1;  // τ = 1: still cover the live block

    while (e > stop) {
      bool found = false;
      for (const LevelRing& lv : levels_) {  // coarsest first
        if (e % lv.block_size() != 0 && e != horizon) continue;
        const std::uint64_t idx = (e - 1) / lv.block_size();
        const std::uint64_t bstart = idx * lv.block_size();
        if (bstart + window_ < t) continue;  // would reach past W items back
        const R* blk = lv.find(idx);
        if (blk == nullptr) continue;  // recycled by the ring
        blk->query_into(out);
        ++blocks_merged;
        e = bstart;
        found = true;
        break;
      }
      if (!found) break;  // t < W(1−τ): everything stored is now covered
    }
    tm_.blocks_per_query.record(blocks_merged);
    coverage_ = t - e;
  }

 public:
  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    query_into(out);
    return out;
  }

  /// Size of the window the last query answered for.
  [[nodiscard]] std::uint64_t last_coverage() const noexcept {
    return coverage_;
  }

  void reset() {
    for (LevelRing& lv : levels_) lv.reset_all();
    if (opts_.lazy) front_[0].reset();
    t_ = 0;
    coverage_ = 0;
    tm_.reset();
  }

  [[nodiscard]] std::size_t q() const {
    return opts_.lazy ? front_[0].q() : levels_[0].blocks()[0].q();
  }
  [[nodiscard]] std::size_t live_count() const {
    std::size_t n = 0;
    for (const LevelRing& lv : levels_) {
      for (const R& b : lv.blocks()) n += b.live_count();
    }
    if (opts_.lazy) n += front_[0].live_count();
    return n;
  }

  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  [[nodiscard]] double tau() const noexcept { return tau_; }
  [[nodiscard]] std::uint64_t fine_block_size() const noexcept {
    return fine_block_;
  }
  [[nodiscard]] std::size_t levels() const noexcept { return levels_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return t_; }
  /// Total reservoir instances (space accounting for Theorems 5-7).
  [[nodiscard]] std::size_t block_count() const noexcept {
    std::size_t n = opts_.lazy ? 1 : 0;
    for (const LevelRing& lv : levels_) n += lv.blocks().size();
    return n;
  }
  [[nodiscard]] const Telemetry& telem() const noexcept { return tm_; }

  /// Snapshot self-description: container tag over the block reservoir's
  /// own tag, so a SlackQMax<QMax> snapshot cannot restore into a
  /// SlackQMax<SampledQMax> (or a bare reservoir).
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept
    requires requires { R::snapshot_tag(); }
  {
    return 0x02000000u | (R::snapshot_tag() & 0x00FFFFFFu);
  }

  /// Snapshot hook: geometry guards, every level ring (tags + block
  /// reservoirs), the lazy front reservoir, and the stream clock. The
  /// merge/flush buffers are per-call scratch.
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    ar.check_u64(window_, "slack window");
    ar.check_f64(tau_, "slack tau");
    ar.check_u64(static_cast<std::uint64_t>(opts_.levels), "slack levels");
    ar.check_u64(opts_.lazy ? 1 : 0, "slack lazy mode");
    ar.check_u64(fine_block_, "slack fine block");
    ar.check_u64(branch_, "slack branch");
    for (LevelRing& lv : levels_) lv.serialize_state(ar, version);
    if (opts_.lazy) front_[0].serialize_state(ar, version);
    ar.u64(t_);
    ar.u64(coverage_);
  }

 private:
  friend struct InvariantAccess;

  // Each level is a ring of per-block reservoirs (core::BlockRing owns
  // the recycle-on-entry / exact-tag-read protocol).
  using LevelRing = core::BlockRing<R>;
  static constexpr std::uint64_t kNoBlock = LevelRing::kNoBlock;

  R& current_block(LevelRing& lv) {
    return lv.at(t_ / lv.block_size(), [&] { tm_.block_resets.inc(); });
  }

  void flush_front() {
    tm_.front_flushes.inc();
    flush_buf_.clear();
    front_[0].query_into(flush_buf_);
    // The finished block spans (t_ − s, t_]; its item index is t_ − 1.
    const std::uint64_t item = t_ - 1;
    for (LevelRing& lv : levels_) {
      R& blk =
          lv.at(item / lv.block_size(), [&] { tm_.block_resets.inc(); });
      batch::add_entries_or_each(blk, std::span<const EntryT>(flush_buf_));
    }
    front_[0].reset();
  }

  std::uint64_t window_;
  double tau_;
  Options opts_;
  Factory factory_;
  std::uint64_t fine_block_ = 1;   // s = ⌊W·τ⌋
  std::uint64_t branch_ = 1;       // b
  std::uint64_t effective_window_ = 0;
  std::vector<LevelRing> levels_;  // [0] coarsest ... [c-1] finest
  std::vector<R> front_;           // lazy mode only (size 1; R not movable-required)
  std::uint64_t t_ = 0;
  mutable std::uint64_t coverage_ = 0;
  // mutable: blocks_per_query is recorded from the const query path.
  [[no_unique_address]] mutable Telemetry tm_;
  mutable std::vector<EntryT> merge_buf_;
  std::vector<EntryT> flush_buf_;
};

/// Algorithm 3: single level, eager updates.
template <Reservoir R = QMax<>>
[[nodiscard]] SlackQMax<R> make_basic_slack_qmax(
    std::uint64_t window, double tau, typename SlackQMax<R>::Factory factory) {
  return SlackQMax<R>(window, tau, std::move(factory),
                      typename SlackQMax<R>::Options{.levels = 1});
}

/// Algorithm 4: c levels, eager updates.
template <Reservoir R = QMax<>>
[[nodiscard]] SlackQMax<R> make_hier_slack_qmax(
    std::uint64_t window, double tau, std::size_t c,
    typename SlackQMax<R>::Factory factory) {
  return SlackQMax<R>(window, tau, std::move(factory),
                      typename SlackQMax<R>::Options{.levels = c});
}

/// Theorem 7: c levels behind a front reservoir, O(1) amortized updates.
template <Reservoir R = QMax<>>
[[nodiscard]] SlackQMax<R> make_lazy_slack_qmax(
    std::uint64_t window, double tau, std::size_t c,
    typename SlackQMax<R>::Factory factory) {
  return SlackQMax<R>(window, tau, std::move(factory),
                      typename SlackQMax<R>::Options{.levels = c, .lazy = true});
}

}  // namespace qmax
