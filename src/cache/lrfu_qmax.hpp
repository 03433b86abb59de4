// q-MAX-based LRFU (Section 5.1 of the paper): constant amortized time per
// access, cache size varying between q and q(1+γ).
//
// The trick: an LRFU score is a *sum* of decayed unit weights, so a key
// cannot be represented by a single immutable array value. Instead, every
// access appends a fresh entry (key, −t·log c) to the array — duplicates
// allowed — and periodic maintenance (once per ⌈qγ⌉ accesses):
//
//   1. merges each key's duplicates in the log domain,
//      w = w_max + log1p(exp(w_min − w_max)), exactly the paper's formula;
//   2. selects the q keys with the largest merged weight (one
//      partition_top pass, O(q(1+γ)));
//   3. batch-evicts the rest.
//
// Amortized cost is O(1/γ) — constant for fixed γ. The paper additionally
// deamortizes the maintenance into three chunked phases (its Figure 3);
// here the batch variant is the default and the worst-case spike is
// quantified by the bench_abl_deamortization ablation. The guarantee the
// paper states — the q heaviest-by-LRFU-score elements are never evicted —
// holds: maintenance only evicts keys outside the current top q.
//
// Hit semantics: a key counts as cached from its first access until a
// maintenance pass evicts it, so the effective cache size floats in
// [q, q(1+γ)] — matching the paper's Table 2 observation that q-MAX LRFU's
// hit ratio lands between the q-sized and q(1+γ)-sized exact caches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/fault.hpp"
#include "common/validate.hpp"
#include "qmax/core.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"

namespace qmax::cache {

template <typename Key = std::uint64_t>
class LrfuQMaxCache {
 public:
  /// Gated instruments (no-ops unless -DQMAX_TELEMETRY=ON).
  struct Telemetry {
    telemetry::Counter maintenance_passes;
    telemetry::Counter merged_duplicates;   // array slots folded per pass
    telemetry::Counter evicted_keys;
    telemetry::Histogram evict_batch_size;  // keys evicted per pass

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("maintenance_passes", maintenance_passes);
      fn("merged_duplicates", merged_duplicates);
      fn("evicted_keys", evicted_keys);
      fn("evict_batch_size", evict_batch_size);
    }
    void reset() noexcept {
      maintenance_passes.reset();
      merged_duplicates.reset();
      evicted_keys.reset();
      evict_batch_size.reset();
    }
  };
  LrfuQMaxCache(std::size_t q, double decay, double gamma = 0.25)
      : q_(common::validate_q(q, "LrfuQMaxCache")),
        log_c_(std::log(
            common::validate_unit_interval(decay, "LrfuQMaxCache", "decay"))) {
    common::validate_gamma(gamma, "LrfuQMaxCache");
    gamma_ = gamma;
    std::size_t extra =
        static_cast<std::size_t>(std::ceil(static_cast<double>(q) * gamma));
    if (extra == 0) extra = 1;
    cap_ = q_ + extra;
    entries_.reserve(cap_);
    index_.reserve(cap_ * 2);
  }

  /// Process a reference to `key`. Returns true on a cache hit.
  bool access(Key key) {
    ++accesses_;
    const double w = -static_cast<double>(t_++) * log_c_;  // log c^(−t)
    const bool hit = index_.emplace(key, kPending).second == false;
    if (hit) ++hits_;
    entries_.push_back(Slot{key, w});
    if (entries_.size() == cap_) maintain();
    return hit;
  }

  [[nodiscard]] bool contains(Key key) const {
    return index_.find(key) != index_.end();
  }

  /// Current LRFU score of a cached key; 0 if not cached. O(array) — a
  /// diagnostic, not a fast path (pending duplicates must be summed).
  [[nodiscard]] double score(Key key) const {
    if (!contains(key)) return 0.0;
    double s = 0.0;
    for (const Slot& e : entries_) {
      if (e.key == key) {
        s += std::exp(e.w + static_cast<double>(t_) * log_c_);
      }
    }
    return s;
  }

  /// Number of distinct cached keys — floats within [q, q(1+γ)] once warm.
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t q() const noexcept { return q_; }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] double hit_ratio() const noexcept {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(hits_) /
                                static_cast<double>(accesses_);
  }

  /// The cached keys with their log-domain scores, heaviest first.
  [[nodiscard]] std::vector<std::pair<Key, double>> ranked_keys() {
    maintain();  // fold duplicates so each key appears once
    std::vector<std::pair<Key, double>> out;
    out.reserve(entries_.size());
    for (const Slot& e : entries_) out.emplace_back(e.key, e.w);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
  }

  void reset() noexcept {
    entries_.clear();
    index_.clear();
    t_ = 0;
    hits_ = 0;
    accesses_ = 0;
    tm_.reset();
  }

  [[nodiscard]] const Telemetry& telem() const noexcept { return tm_; }

  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  /// ConcurrentQMax shares the 0x06 prefix but never the bare value (see
  /// ConcurrentQMax::snapshot_tag).
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept {
    return 0x06000000u;
  }

  /// Snapshot hook: the slot array, the key index (explicitly — its
  /// values are compacted positions or kPending, both meaningful mid
  /// maintenance cycle), the clock, and the hit accounting. Only find()
  /// drives behavior between maintenance passes, so the map's iteration
  /// order is immaterial and re-inserting in slot order is exact.
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t /*version*/) {
    static_assert(std::is_trivially_copyable_v<Key>);
    ar.check_u64(static_cast<std::uint64_t>(q_), "cache q");
    ar.check_f64(log_c_, "cache log_c");
    ar.check_f64(gamma_, "cache gamma");
    ar.check_u64(static_cast<std::uint64_t>(cap_), "cache capacity");
    ar.vec(entries_);
    std::uint64_t count = index_.size();
    ar.u64(count);
    if constexpr (Archive::kLoading) {
      if (entries_.size() >= cap_) ar.fail("cache array over capacity");
      entries_.reserve(cap_);
      index_.clear();
      index_.reserve(cap_ * 2);
      for (std::uint64_t i = 0; i < count; ++i) {
        Key k{};
        std::uint32_t pos = 0;
        ar.pod(k);
        ar.u32(pos);
        index_.emplace(k, pos);
      }
    } else {
      for (const auto& [k, pos] : index_) {
        ar.pod(k);
        ar.u32(pos);
      }
    }
    ar.u64(t_);
    ar.u64(hits_);
    ar.u64(accesses_);
  }

 private:
  static constexpr std::uint32_t kPending = 0xFFFFFFFFu;

  struct Slot {
    Key key;
    double w;  // log-domain partial score: log c^(−t) at access time
  };

  void maintain() {
    tm_.maintenance_passes.inc();
    // Crash-at-site: the array is full and the index may hold kPending
    // markers — recovery must restore both sides consistently.
    fault::maybe_crash();
    const std::size_t before = entries_.size();
    // Phase 1: merge duplicates in arrival order. index_ doubles as the
    // key → compacted-position map during the pass.
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Slot& e = entries_[i];
      auto it = index_.find(e.key);
      if (it->second != kPending && it->second < out &&
          entries_[it->second].key == e.key) {
        // Merge into the key's earlier slot: w_hi + log1p(exp(w_lo − w_hi)).
        double& acc = entries_[it->second].w;
        const double hi = acc > e.w ? acc : e.w;
        const double lo = acc > e.w ? e.w : acc;
        acc = hi + std::log1p(std::exp(lo - hi));
      } else {
        entries_[out] = e;
        it->second = static_cast<std::uint32_t>(out);
        ++out;
      }
    }
    entries_.resize(out);
    tm_.merged_duplicates.inc(before - out);

    // Phase 2+3: keep the q heaviest, evict the rest.
    if (entries_.size() > q_) {
      tm_.evicted_keys.inc(entries_.size() - q_);
      tm_.evict_batch_size.record(entries_.size() - q_);
      core::partition_top(
          entries_.begin(), q_, entries_.end(),
          [](const Slot& a, const Slot& b) { return a.w > b.w; });
      for (std::size_t i = q_; i < entries_.size(); ++i) {
        index_.erase(entries_[i].key);
      }
      entries_.resize(q_);
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        index_[entries_[i].key] = static_cast<std::uint32_t>(i);
      }
    }
  }

  std::size_t q_;
  double log_c_;
  double gamma_ = 0.0;
  std::size_t cap_ = 0;
  std::vector<Slot> entries_;
  std::unordered_map<Key, std::uint32_t> index_;
  std::uint64_t t_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t accesses_ = 0;
  [[no_unique_address]] Telemetry tm_;
};

}  // namespace qmax::cache
