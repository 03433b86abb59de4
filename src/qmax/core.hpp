// ReservoirCore — the one maintenance engine behind every q-MAX variant.
//
// Before this header existed, each reservoir (QMax, AmortizedQMax, the
// window containers, ExpDecayQMax, the LRFU caches) hand-rolled the same
// Ψ-admission / scratch-fill / selection-partition / deamortization
// machinery from Section 4.2 of the paper, and every cross-cutting concern
// (telemetry, fault injection, invariant audits, validation, batched
// ingestion) had to be wired into each copy separately. This header
// collapses all of that into one policy-parameterized core:
//
//   ReservoirCore<ValuePolicy, WindowPolicy, MaintenancePolicy>
//
//   * ValuePolicy — the item domain: entry type, comparator, the reserved
//     empty value, and the admissibility test (MaxValuePolicy is the only
//     instance today; a min-oriented policy would slot in the same way —
//     QMin instead reuses MaxValuePolicy via negation).
//   * WindowPolicy — the per-arrival key transform. LandmarkWindow is the
//     identity (plain q-MAX); ExpDecayWindow maps values into the
//     log-decay domain of Section 5 (val ↦ log(val) − i·log c).
//   * MaintenancePolicy — WHEN and HOW the array is pruned back to q
//     items. DeamortizedMaintenance is Algorithm 1 (parity array,
//     incremental selection, worst-case O(1/γ)); AmortizedMaintenance is
//     Algorithm 2 (append + one partition_top pass per ⌈qγ⌉ admissions,
//     amortized O(1/γ)).
//
// The core owns the admission gate (Ψ test + fault-injection site), the
// processed/admitted accounting, the batched ingestion loop, the query
// partition, and reset(). The maintenance policies own the slot array and
// Ψ itself. ParityEngine — the Algorithm 1 skeleton — is additionally
// shared with the deamortized LRFU cache
// (src/cache/lrfu_qmax_deamortized.hpp), which runs the same
// parity/selection scheme over claim slots with lazy reconciliation
// instead of an eviction walk.
//
// This file and common/select.hpp are the ONLY places selection/partition
// logic is allowed to live, and both selections here (ParityEngine's
// stepped one and partition_top) run common::IncrementalSelect
// (invariants.hpp keeps an independent nth_element as a cross-check
// oracle); scripts/check_no_duplicate_selection.sh enforces that in CI.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/fault.hpp"
#include "common/random.hpp"
#include "common/select.hpp"
#include "common/validate.hpp"
#include "qmax/batch.hpp"
#include "qmax/entry.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/span.hpp"

namespace qmax {
struct InvariantAccess;  // invariants.hpp: white-box audit (tests/debug)
}  // namespace qmax

namespace qmax::core {

/// The library's one top-k partition primitive: reorder [first, last) so
/// the `take` best elements under `comp` occupy the prefix, with the
/// take-th best exactly at position take-1 (nth_element semantics). It runs
/// the same selection machine as ParityEngine's stepped selection, to
/// completion, with a sampled pivot on every large pass.
/// Precondition: 0 < take <= distance(first, last).
template <std::contiguous_iterator It, typename Comp>
inline void partition_top(It first, std::size_t take, It last, Comp comp) {
  [[maybe_unused]] telemetry::Span trace_span(
      telemetry::Stage::kPartitionTop);
  common::IncrementalSelect<std::iter_value_t<It>, Comp> select;
  select.start(std::to_address(first), static_cast<std::size_t>(last - first),
               take - 1, std::move(comp));
  select.finish();
}

/// Make room for `extra` more elements behind v's size. A short vector
/// grows to at least twice its capacity rather than to the exact size, so
/// a buffer refilled block by block reallocates O(log n) times in all.
template <typename T>
inline void grow_for(std::vector<T>& v, std::size_t extra) {
  if (v.capacity() - v.size() < extra) {
    v.reserve(std::max(v.size() + extra, 2 * v.capacity()));
  }
}

/// Keep the `take` best of the elements behind position `base` (all of
/// them if there are no more than `take`): partition_top over that range,
/// then truncate it to `take`.
template <typename T, typename Comp>
inline void keep_top(std::vector<T>& v, std::size_t base, std::size_t take,
                     Comp comp) {
  const auto first = v.begin() + static_cast<std::ptrdiff_t>(base);
  if (v.size() - base <= take) return;
  if (take > 0) partition_top(first, take, v.end(), std::move(comp));
  v.erase(first + static_cast<std::ptrdiff_t>(take), v.end());
}

/// Monotone CAS-max on a shared admission bound — the one publish
/// primitive behind every cross-writer Ψ handoff (ShardedQMax's broadcast,
/// ConcurrentQMax's writer screens). Raises `bound` to `v` unless another
/// publisher already holds something at least as tight; relaxed ordering
/// is sufficient because the bound is advisory-monotone (a stale read only
/// delays tightening, it can never admit a wrong rejection). Returns true
/// if this call raised the bound; `retries`, when provided, accumulates
/// the number of CAS attempts lost to concurrent publishers.
template <typename V>
inline bool atomic_fetch_max(std::atomic<V>& bound, V v,
                             std::uint64_t* retries = nullptr) noexcept {
  V cur = bound.load(std::memory_order_relaxed);
  for (;;) {
    if (!(v > cur)) return false;
    if (bound.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      return true;
    }
    if (retries != nullptr) ++*retries;
  }
}

// ---------------------------------------------------------------------
// Value policies
// ---------------------------------------------------------------------

/// Track the q LARGEST values of a totally ordered domain — the paper's
/// q-MAX problem. Minimum-oriented applications go through the QMin
/// adapter (negation) rather than a second policy, preserving the exact
/// comparator and tie behavior of the max path.
template <typename Id, typename Value>
struct MaxValuePolicy {
  using EntryT = BasicEntry<Id, Value>;
  using Order = ValueOrder<Id, Value>;

  [[nodiscard]] static constexpr Value empty() noexcept {
    return kEmptyValue<Value>;
  }
  [[nodiscard]] static constexpr bool admissible(Value v) noexcept {
    return is_admissible_value(v);
  }
};

// ---------------------------------------------------------------------
// Window policies
// ---------------------------------------------------------------------

/// Identity transform: items keep their reported values (plain q-MAX over
/// the whole stream / landmark window).
struct LandmarkWindow {
  static constexpr bool kIdentity = true;
  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  static constexpr std::uint32_t kWindowTag = 1;
};

/// Section 5's exponential-decay reduction: feeding val·c^(−i) into a
/// standard q-MAX makes the order of decayed weights time-invariant.
/// Computed in the log domain (val ↦ log(val) − i·log c) to avoid
/// overflow; rejects values that are not positive finite numbers, exactly
/// like the pre-refactor wrapper's early return.
struct ExpDecayWindow {
  static constexpr bool kIdentity = false;
  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  static constexpr std::uint32_t kWindowTag = 2;

  double log_c = 0.0;

  [[nodiscard]] bool transform(double& val,
                               std::uint64_t index) const noexcept {
    if (!(val > 0.0) || !std::isfinite(val)) return false;
    val = std::log(val) - static_cast<double>(index) * log_c;
    return true;
  }
};

// ---------------------------------------------------------------------
// ParityEngine — the Algorithm 1 skeleton
// ---------------------------------------------------------------------

/// The deamortized parity-array scheme shared by DeamortizedMaintenance
/// and the deamortized LRFU cache. Owns the N = q + 2g slot array, the
/// admission bound Ψ, the A/B parity, and the budgeted incremental
/// selection; the host supplies what differs per user via two hooks:
///
///   on_psi()           — fired when Ψ is raised (telemetry naming).
///   on_end(lo, count)  — fired at iteration end on the loser region
///                        [lo, lo+count), BEFORE the parity flips. QMax
///                        batch-evicts here; the LRFU cache instead bumps
///                        its iteration counter and reconciles losers
///                        lazily as they are overwritten.
///
/// Slot is the array element (an entry, a cache claim, ...), Order its
/// comparator (first member: bool descending), Proj extracts the ordered
/// value from a Slot. Members are public: this is an internal engine that
/// its hosts and the invariant audits read directly.
template <typename Slot, typename Order, typename Proj>
struct ParityEngine {
  using Value = std::remove_cvref_t<std::invoke_result_t<Proj, const Slot&>>;

  void init(std::size_t q, double gamma, unsigned budget_factor, Slot empty) {
    q_ = q;
    empty_ = empty;
    g_ = static_cast<std::size_t>(
        std::ceil(static_cast<double>(q) * gamma / 2.0));
    if (g_ == 0) g_ = 1;
    arr_.assign(q_ + 2 * g_, empty_);
    // The selection needs ~1-2.5(q+g) ops per iteration of g steps on
    // measured streams; budget_factor scales the per-step allowance above
    // that.
    const std::size_t m = q_ + g_;
    step_budget_ = static_cast<std::uint64_t>(budget_factor) *
                       ((m + g_ - 1) / g_) +
                   budget_factor;
    psi_ = Proj{}(empty_);
    begin_iteration();
  }

  void reset() noexcept {
    for (Slot& s : arr_) s = empty_;
    psi_ = Proj{}(empty_);
    parity_a_ = true;
    steps_ = 0;
    late_selections_ = 0;
    begin_iteration();
  }

  /// The slot the next admission writes (left-to-right scratch fill).
  [[nodiscard]] std::size_t next_slot() const noexcept {
    return scratch_base() + steps_;
  }
  [[nodiscard]] std::size_t scratch_base() const noexcept {
    return parity_a_ ? q_ + g_ : 0;
  }
  [[nodiscard]] std::size_t candidate_base() const noexcept {
    return parity_a_ ? 0 : g_;
  }

  /// Account one admission (the host has already written next_slot()):
  /// advances the budgeted selection and ends the iteration at g steps.
  /// Returns the selection ops this admission consumed (for histograms),
  /// including, for the admission that ends an iteration, a late
  /// selection's synchronous finish and the next selection's sampled
  /// first pivot.
  template <typename OnPsi, typename OnEnd>
  std::uint64_t note_admission(OnPsi&& on_psi, OnEnd&& on_end) {
    ++steps_;
    const std::uint64_t ops_before = select_.total_ops();
    advance_selection(on_psi);
    std::uint64_t ops = select_.total_ops() - ops_before;
    if (steps_ == g_) ops += end_iteration(on_psi, on_end);
    return ops;
  }

  /// Returns the ops spent choosing the new selection's first pivot.
  std::uint64_t begin_iteration() {
    // Parity A selects ascending at k = g (the (g+1)-th smallest of the
    // q+g candidates is the q-th largest); parity B selects descending at
    // k = q-1. Both leave the q winners in the middle slots [g, g+q).
    const std::size_t m = q_ + g_;
    const bool desc = !parity_a_;
    const std::size_t k = parity_a_ ? g_ : q_ - 1;
    psi_applied_ = false;
    return select_.start(arr_.data() + candidate_base(), m, k, Order{desc});
  }

  template <typename OnPsi>
  void advance_selection(OnPsi&& on_psi) {
    if (select_.done()) return;
    if (select_.step(step_budget_)) apply_threshold(on_psi);
  }

  template <typename OnPsi>
  void apply_threshold(OnPsi&& on_psi) {
    if (psi_applied_) return;
    const Value nth = Proj{}(select_.nth());
    if (nth > psi_) {
      psi_ = nth;
      on_psi();
    }
    psi_applied_ = true;
  }

  /// Returns the selection ops it ran: a late selection's finish plus the
  /// next selection's first pivot.
  template <typename OnPsi, typename OnEnd>
  std::uint64_t end_iteration(OnPsi&& on_psi, OnEnd&& on_end) {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kMaintenance);
    std::uint64_t ops = 0;
    if (!select_.done()) {
      // Safety net: the adversarial-pivot case. Finish synchronously.
      ++late_selections_;
      const std::uint64_t before = select_.total_ops();
      select_.finish();
      ops = select_.total_ops() - before;
    }
    apply_threshold(on_psi);
    // Crash-at-site: Ψ possibly raised, losers not yet evicted, parity
    // not yet flipped — the nastiest half-mutated point of Algorithm 1.
    fault::maybe_crash();
    on_end(parity_a_ ? std::size_t{0} : g_ + q_, g_);
    parity_a_ = !parity_a_;
    steps_ = 0;
    return ops + begin_iteration();
  }

  /// Snapshot hook: the slot array plus the scalar scheduler state (Ψ,
  /// parity, step counter, paused-selection cursors). The incremental
  /// selection's data pointer and comparator are context, not state —
  /// after loading they are rebound against the restored array at the
  /// candidate base the restored parity implies, so a selection paused
  /// mid-partition resumes exactly where the snapshot caught it.
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.check_u64(static_cast<std::uint64_t>(q_), "parity q");
    ar.check_u64(static_cast<std::uint64_t>(g_), "parity g");
    ar.check_u64(step_budget_, "parity step budget");
    ar.vec(arr_);
    ar.pod(psi_);
    ar.b(parity_a_);
    ar.b(psi_applied_);
    ar.sz(steps_);
    ar.u64(late_selections_);
    select_.serialize_state(ar);
    if constexpr (Archive::kLoading) {
      if (arr_.size() != q_ + 2 * g_) ar.fail("parity array size");
      if (steps_ > g_) ar.fail("parity step counter out of range");
      select_.rebind(arr_.data() + candidate_base(), Order{!parity_a_});
    }
  }

  std::size_t q_ = 0;
  std::size_t g_ = 0;          // scratch size = iteration length
  std::vector<Slot> arr_;      // q + 2g slots
  Value psi_{};
  bool parity_a_ = true;
  bool psi_applied_ = false;
  std::size_t steps_ = 0;      // admissions in the current iteration
  std::uint64_t step_budget_ = 0;
  std::uint64_t late_selections_ = 0;
  Slot empty_{};
  common::IncrementalSelect<Slot, Order> select_;
};

// ---------------------------------------------------------------------
// Maintenance policies
// ---------------------------------------------------------------------

/// Algorithm 1: worst-case O(1/γ) updates via ParityEngine. Evicts the g
/// losers in one batch walk at each iteration end.
template <typename VP>
struct DeamortizedMaintenance {
  using EntryT = typename VP::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using EvictCallback = std::function<void(const EntryT&)>;

  struct Options {
    /// Space-time tradeoff: the array holds ~q(1+γ) items and each update
    /// performs O(1/γ) work. The paper sweeps γ from 2.5% to 200%.
    double gamma = 0.25;
    /// Safety factor on the per-step selection budget. The selection needs
    /// ~1-2.5(q+g) ops per iteration of g steps on measured streams;
    /// budget_factor scales the per-step allowance above that.
    unsigned budget_factor = 4;
  };

  /// Gated instruments (zero-size no-ops unless built with
  /// -DQMAX_TELEMETRY=ON); exported via telemetry::bind_metrics.
  struct Telemetry {
    telemetry::Counter psi_updates;        // admission-bound raises
    telemetry::Counter evict_batches;      // iteration-end batch evictions
    telemetry::Counter evicted_items;      // items evicted across batches
    telemetry::Counter batch_calls;        // add_batch invocations
    telemetry::Counter prefilter_rejected; // items screened out by the Ψ prefilter
    telemetry::Histogram steps_per_add;    // selection ops per admitted item
    telemetry::Histogram evict_batch_size; // live items per batch eviction
    telemetry::Histogram batch_survivors;  // prefilter survivors per add_batch

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("psi_updates", psi_updates);
      fn("evict_batches", evict_batches);
      fn("evicted_items", evicted_items);
      fn("batch_calls", batch_calls);
      fn("prefilter_rejected", prefilter_rejected);
      fn("steps_per_add", steps_per_add);
      fn("evict_batch_size", evict_batch_size);
      fn("batch_survivors", batch_survivors);
    }
    void reset() noexcept {
      psi_updates.reset();
      evict_batches.reset();
      evicted_items.reset();
      batch_calls.reset();
      prefilter_rejected.reset();
      steps_per_add.reset();
      evict_batch_size.reset();
      batch_survivors.reset();
    }
  };

  struct ValProj {
    [[nodiscard]] constexpr Value operator()(const EntryT& e) const noexcept {
      return e.val;
    }
  };

  DeamortizedMaintenance(std::size_t q, Options opts, const char* who)
      : opts_(opts) {
    common::validate_q_gamma(q, opts.gamma, who);
    fault::maybe_fail_alloc();
    eng_.init(q, opts.gamma, opts.budget_factor, EntryT{Id{}, VP::empty()});
  }

  [[nodiscard]] Value psi() const noexcept { return eng_.psi_; }

  /// Raise Ψ to an externally established admission bound (the sharded
  /// global-Ψ broadcast): a lower bound on the *global* q-th largest that
  /// another reservoir proved. Monotone and gate-only — the parity array,
  /// selection, and eviction machinery are untouched, so the shard keeps
  /// every item the tightened gate admits exactly as before. The folded
  /// floor is remembered so the invariant audits can distinguish an
  /// external raise from a selection-derived one.
  void raise_psi_floor(Value v) noexcept {
    if (v > ext_floor_) ext_floor_ = v;
    if (v > eng_.psi_) eng_.psi_ = v;
  }

  /// The post-admission-test path: scratch write, bounded selection
  /// advance, iteration end at g steps. The caller has already
  /// established val > Ψ. steps_per_add records the selection ops plus,
  /// for the admission that ends an iteration, the g loser slots the
  /// eviction walk visits.
  void admit(Id id, Value val) {
    eng_.arr_[eng_.next_slot()] = EntryT{id, val};
    ++live_;
    std::uint64_t walked = 0;
    const std::uint64_t delta = eng_.note_admission(
        [&] { tm_.psi_updates.inc(); },
        [&](std::size_t lo, std::size_t count) {
          evict_losers(lo, count);
          walked = count;
        });
    tm_.steps_per_add.record(delta + walked);
  }

  /// Visit every live item (the top q plus up to q·γ recent/undecided
  /// ones): the candidate region plus the filled scratch prefix.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    auto visit = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (eng_.arr_[i].val != VP::empty()) fn(eng_.arr_[i]);
      }
    };
    const std::size_t q = eng_.q_;
    const std::size_t g = eng_.g_;
    if (eng_.parity_a_) {
      visit(0, q + g);                      // candidates
      visit(q + g, q + g + eng_.steps_);    // filled scratch
    } else {
      visit(0, eng_.steps_);                // filled scratch
      visit(g, eng_.arr_.size());           // candidates
    }
  }

  void reset() noexcept {
    eng_.reset();
    live_ = 0;
    ext_floor_ = VP::empty();
    tm_.reset();
  }

  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  static constexpr std::uint32_t kPolicyTag = 1;

  /// Snapshot hook: engine (array + scheduler + paused selection) plus
  /// the live count and the externally folded Ψ floor. Gated telemetry
  /// instruments are observability, not algorithm state, and restart at
  /// zero — the plain counters the algorithm reads are all here.
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.check_f64(opts_.gamma, "gamma");
    ar.check_u64(opts_.budget_factor, "budget factor");
    eng_.serialize_state(ar);
    ar.sz(live_);
    ar.pod(ext_floor_);
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return eng_.arr_.size();
  }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  [[nodiscard]] double gamma() const noexcept { return opts_.gamma; }
  /// Iteration endings where the deamortized selection had not finished
  /// within its per-step budgets (then completed synchronously; should be
  /// 0 in practice — exposed for the ablation).
  [[nodiscard]] std::uint64_t late_selections() const noexcept {
    return eng_.late_selections_;
  }

  /// Evict the g candidates that lost the selection. The callback test is
  /// hoisted out of the loop: the common, callback-free configuration
  /// pays no per-slot branch.
  void evict_losers(std::size_t lo, std::size_t count) {
    std::size_t batch = 0;
    if (on_evict_) {
      for (std::size_t i = lo; i < lo + count; ++i) {
        if (eng_.arr_[i].val != VP::empty()) {
          on_evict_(eng_.arr_[i]);
          --live_;
          ++batch;
          eng_.arr_[i] = EntryT{Id{}, VP::empty()};
        }
      }
    } else {
      for (std::size_t i = lo; i < lo + count; ++i) {
        if (eng_.arr_[i].val != VP::empty()) {
          --live_;
          ++batch;
          eng_.arr_[i] = EntryT{Id{}, VP::empty()};
        }
      }
    }
    tm_.evict_batches.inc();
    tm_.evicted_items.inc(batch);
    tm_.evict_batch_size.record(batch);
  }

  Options opts_{};
  std::size_t live_ = 0;
  Value ext_floor_ = VP::empty();  // highest externally folded bound
  [[no_unique_address]] Telemetry tm_;
  EvictCallback on_evict_;
  ParityEngine<EntryT, typename VP::Order, ValProj> eng_;
};

/// Algorithm 2: O(1) amortized updates. Admissions append to a free
/// suffix; when the array reaches q + ⌈qγ⌉ one maintenance pass partitions
/// at q, raises Ψ to the q-th largest, and batch-evicts the rest.
template <typename VP>
struct AmortizedMaintenance {
  using EntryT = typename VP::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using EvictCallback = std::function<void(const EntryT&)>;

  struct Options {
    double gamma = 0.25;
  };

  /// Gated instruments (no-ops unless -DQMAX_TELEMETRY=ON).
  struct Telemetry {
    telemetry::Counter maintenance_passes;  // full selection sweeps
    telemetry::Counter evicted_items;
    telemetry::Counter batch_calls;         // add_batch invocations
    telemetry::Counter prefilter_rejected;  // items screened out by Ψ
    telemetry::Histogram evict_batch_size;  // items dropped per sweep
    telemetry::Histogram batch_survivors;   // prefilter survivors per batch

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("maintenance_passes", maintenance_passes);
      fn("evicted_items", evicted_items);
      fn("batch_calls", batch_calls);
      fn("prefilter_rejected", prefilter_rejected);
      fn("evict_batch_size", evict_batch_size);
      fn("batch_survivors", batch_survivors);
    }
    void reset() noexcept {
      maintenance_passes.reset();
      evicted_items.reset();
      batch_calls.reset();
      prefilter_rejected.reset();
      evict_batch_size.reset();
      batch_survivors.reset();
    }
  };

  AmortizedMaintenance(std::size_t q, Options opts, const char* who)
      : q_(q) {
    common::validate_q_gamma(q, opts.gamma, who);
    fault::maybe_fail_alloc();
    gamma_ = opts.gamma;
    std::size_t extra = static_cast<std::size_t>(
        std::ceil(static_cast<double>(q) * opts.gamma));
    if (extra == 0) extra = 1;
    arr_.reserve(q_ + extra);
    cap_ = q_ + extra;
  }

  [[nodiscard]] Value psi() const noexcept { return psi_; }

  /// See DeamortizedMaintenance::raise_psi_floor: fold an externally
  /// proved global bound into the admission gate. maintain() already
  /// max-combines, so a folded Ψ composes with later selection raises.
  void raise_psi_floor(Value v) noexcept {
    if (v > ext_floor_) ext_floor_ = v;
    if (v > psi_) psi_ = v;
  }

  void admit(Id id, Value val) {
    arr_.push_back(EntryT{id, val});
    if (arr_.size() == cap_) maintain();
  }

  void maintain() {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kMaintenance);
    partition_top(arr_.begin(), q_, arr_.end(),
                  typename VP::Order{.descending = true});
    psi_ = std::max(psi_, arr_[q_ - 1].val);
    // Crash-at-site: Ψ raised, array partitioned but not yet shrunk.
    fault::maybe_crash();
    if (on_evict_) {
      for (std::size_t i = q_; i < arr_.size(); ++i) on_evict_(arr_[i]);
    }
    const std::size_t batch = arr_.size() - q_;
    tm_.maintenance_passes.inc();
    tm_.evicted_items.inc(batch);
    tm_.evict_batch_size.record(batch);
    arr_.resize(q_);
  }

  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const auto& e : arr_) fn(e);
  }

  void reset() noexcept {
    arr_.clear();
    psi_ = VP::empty();
    ext_floor_ = VP::empty();
    tm_.reset();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t live_count() const noexcept { return arr_.size(); }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }

  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  static constexpr std::uint32_t kPolicyTag = 2;

  /// Snapshot hook: the append array, Ψ, and the external floor. A valid
  /// snapshot always has size < cap_ (admit() maintains eagerly at cap_).
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.check_u64(static_cast<std::uint64_t>(q_), "q");
    ar.check_f64(gamma_, "gamma");
    ar.check_u64(static_cast<std::uint64_t>(cap_), "capacity");
    ar.vec(arr_);
    ar.pod(psi_);
    ar.pod(ext_floor_);
    if constexpr (Archive::kLoading) {
      if (arr_.size() >= cap_) ar.fail("amortized array over capacity");
      arr_.reserve(cap_);
    }
  }

  std::size_t q_;
  double gamma_ = 0.0;
  std::size_t cap_ = 0;
  std::vector<EntryT> arr_;
  Value psi_ = VP::empty();
  Value ext_floor_ = VP::empty();  // highest externally folded bound
  [[no_unique_address]] Telemetry tm_;
  EvictCallback on_evict_;
};

/// Sampled-pivot maintenance (the SQUID/SQUAD estimator applied to
/// Algorithm 2): same append-until-full lifecycle as AmortizedMaintenance,
/// but the eviction pivot is *estimated* from a small uniform sample of
/// the occupied slots instead of an exact selection over all q + ⌈qγ⌉ of
/// them. One std::partition pass against the estimated pivot then splits
/// keepers from losers. The estimate is accepted only when the kept count
/// lands inside the slack window [q, q + ⌈qγ⌉/2]; a miss in either
/// direction falls back to the exact core::partition_top pass, so the
/// reservoir-size and Ψ-monotonicity invariants of Theorem 1 hold
/// *unconditionally* — sampling only ever changes how much work a
/// maintenance pass costs, never what the reservoir retains:
///
///   * kept ≥ q  ⇒  at least q live items compare strictly above the
///     pivot, so raising Ψ to the pivot keeps Ψ ≤ q-th largest live.
///   * kept ≤ q + slack  ⇒  the array shrinks by at least ⌈qγ⌉/2 slots,
///     so maintenance frequency at most doubles versus exact.
///   * a rejected attempt only *permuted* the array (std::partition),
///     which the exact fallback re-partitions anyway.
///
/// Sample size: the kept count of a pivot taken at sample rank k is a
/// binomial estimate with σ ≈ 0.4·n/√m, and the slack window has radius
/// ⌈qγ⌉/4 around its center, so m ≈ 24·((1+γ)/γ)² puts the miss
/// probability around the 3σ tail — independent of q. Auto-sizing
/// disables sampling entirely when 4m exceeds the array (tiny reservoirs
/// gain nothing); an explicit Options::sample_size forces sampling on at
/// that size, which is how bench_abl_sampled sweeps the tradeoff and the
/// adversarial tests force fallbacks.
template <typename VP>
struct SampledMaintenance {
  using EntryT = typename VP::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using EvictCallback = std::function<void(const EntryT&)>;

  struct Options {
    double gamma = 0.25;
    /// 0 = auto (derived from γ as above, or exact when the array is too
    /// small to out-run the sample). Nonzero forces sampling at this size.
    std::size_t sample_size = 0;
    /// Deterministic sampling stream; reset() re-seeds so a reset
    /// reservoir replays a fresh instance exactly.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  };

  /// Gated instruments (no-ops unless -DQMAX_TELEMETRY=ON). The
  /// sampled/fallback split is not among them: it lives in the plain
  /// counters sampled_passes_/exact_fallbacks_, which every build reads
  /// and exports.
  struct Telemetry {
    telemetry::Counter maintenance_passes;  // all maintenance sweeps
    telemetry::Counter evicted_items;
    telemetry::Counter batch_calls;         // add_batch invocations
    telemetry::Counter prefilter_rejected;  // items screened out by Ψ
    telemetry::Histogram evict_batch_size;  // items dropped per sweep
    telemetry::Histogram batch_survivors;   // prefilter survivors per batch
    telemetry::Histogram sampled_kept;      // kept count per sampled attempt

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("maintenance_passes", maintenance_passes);
      fn("evicted_items", evicted_items);
      fn("batch_calls", batch_calls);
      fn("prefilter_rejected", prefilter_rejected);
      fn("evict_batch_size", evict_batch_size);
      fn("batch_survivors", batch_survivors);
      fn("sampled_kept", sampled_kept);
    }
    void reset() noexcept {
      maintenance_passes.reset();
      evicted_items.reset();
      batch_calls.reset();
      prefilter_rejected.reset();
      evict_batch_size.reset();
      batch_survivors.reset();
      sampled_kept.reset();
    }
  };

  SampledMaintenance(std::size_t q, Options opts, const char* who)
      : q_(q), seed_(opts.seed), rng_(opts.seed) {
    common::validate_q_gamma(q, opts.gamma, who);
    fault::maybe_fail_alloc();
    gamma_ = opts.gamma;
    std::size_t extra = static_cast<std::size_t>(
        std::ceil(static_cast<double>(q) * opts.gamma));
    if (extra == 0) extra = 1;
    arr_.reserve(q_ + extra);
    cap_ = q_ + extra;
    slack_ = extra / 2;
    if (opts.sample_size != 0) {
      sample_size_ = std::min(opts.sample_size, cap_);
      use_sampling_ = true;
    } else {
      const double ratio = (1.0 + gamma_) / gamma_;
      const double want = 24.0 * ratio * ratio;
      sample_size_ = static_cast<std::size_t>(
          std::min(want, static_cast<double>(cap_)));
      // The estimate must be materially cheaper than the exact pass it
      // replaces; otherwise (small q, tiny γ) stay exact.
      use_sampling_ = sample_size_ >= 1 && sample_size_ * 4 <= cap_;
    }
    if (sample_size_ == 0) sample_size_ = 1;
    sample_.reserve(sample_size_);
  }

  [[nodiscard]] Value psi() const noexcept { return psi_; }

  /// See DeamortizedMaintenance::raise_psi_floor: fold an externally
  /// proved global bound into the admission gate. Both eviction paths
  /// max-combine into Ψ, so a folded bound composes with later raises.
  void raise_psi_floor(Value v) noexcept {
    if (v > ext_floor_) ext_floor_ = v;
    if (v > psi_) psi_ = v;
  }

  void admit(Id id, Value val) {
    arr_.push_back(EntryT{id, val});
    if (arr_.size() == cap_) maintain();
  }

  void maintain() {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kMaintenance);
    tm_.maintenance_passes.inc();
    // Crash-at-site: the array is full (size == cap_); recovery must not
    // resume from an over-full image.
    fault::maybe_crash();
    if (use_sampling_) {
      {
        [[maybe_unused]] telemetry::Span sampled_span(
            telemetry::Stage::kSampledPivot);
        if (try_sampled_evict()) {
          ++sampled_passes_;
          return;
        }
      }
      ++exact_fallbacks_;
      [[maybe_unused]] telemetry::Span fallback_span(
          telemetry::Stage::kExactFallback);
      exact_evict();
    } else {
      exact_evict();
    }
  }

  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const auto& e : arr_) fn(e);
  }

  void reset() noexcept {
    arr_.clear();
    psi_ = VP::empty();
    ext_floor_ = VP::empty();
    rng_ = common::Xoshiro256(seed_);
    sampled_passes_ = 0;
    exact_fallbacks_ = 0;
    tm_.reset();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t live_count() const noexcept { return arr_.size(); }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] std::size_t sample_size() const noexcept {
    return sample_size_;
  }
  [[nodiscard]] std::size_t slack() const noexcept { return slack_; }
  [[nodiscard]] bool sampling_enabled() const noexcept {
    return use_sampling_;
  }
  [[nodiscard]] std::uint64_t sampled_passes() const noexcept {
    return sampled_passes_;
  }
  [[nodiscard]] std::uint64_t exact_fallbacks() const noexcept {
    return exact_fallbacks_;
  }

  /// Snapshot self-description (durability/snapshot.hpp variant tags).
  static constexpr std::uint32_t kPolicyTag = 3;

  /// Snapshot hook: array + Ψ + external floor, the RNG's four state
  /// words (the ISSUE's "RNG seed and counters" — restoring them resumes
  /// the exact sampling stream), and the sampled/fallback counters.
  /// sample_ is per-pass scratch, cleared at the top of every attempt.
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.check_u64(static_cast<std::uint64_t>(q_), "q");
    ar.check_f64(gamma_, "gamma");
    ar.check_u64(static_cast<std::uint64_t>(cap_), "capacity");
    ar.check_u64(static_cast<std::uint64_t>(slack_), "slack");
    ar.check_u64(static_cast<std::uint64_t>(sample_size_), "sample size");
    ar.check_u64(use_sampling_ ? 1 : 0, "sampling mode");
    ar.check_u64(seed_, "rng seed");
    ar.vec(arr_);
    ar.pod(psi_);
    ar.pod(ext_floor_);
    rng_.serialize_state(ar);
    ar.u64(sampled_passes_);
    ar.u64(exact_fallbacks_);
    if constexpr (Archive::kLoading) {
      if (arr_.size() >= cap_) ar.fail("sampled array over capacity");
      arr_.reserve(cap_);
    }
  }

 private:
  /// One sampled maintenance attempt. Returns true iff the pivot estimate
  /// landed inside the slack window and the eviction was committed.
  bool try_sampled_evict() {
    const std::size_t n = arr_.size();
    sample_.clear();
    for (std::size_t i = 0; i < sample_size_; ++i) {
      sample_.push_back(arr_[rng_.bounded(n)].val);
    }
    Value pivot;
    if (sample_size_ >= 2) {
      // Aim the pivot at descending rank q + slack/2 — the center of the
      // acceptance window — scaled into the sample: a value at sample
      // rank k estimates population rank k·n/m.
      const double target = static_cast<double>(q_) +
                            static_cast<double>(slack_) / 2.0;
      const double scaled = target * static_cast<double>(sample_size_) /
                            static_cast<double>(n);
      std::size_t k = static_cast<std::size_t>(scaled + 0.5);
      k = std::max<std::size_t>(1, std::min(k, sample_size_ - 1));
      partition_top(sample_.begin(), k, sample_.end(), std::greater<Value>{});
      pivot = sample_[k - 1];
    } else {
      pivot = sample_[0];
    }
    const auto mid =
        std::partition(arr_.begin(), arr_.end(),
                       [pivot](const EntryT& e) { return e.val > pivot; });
    const std::size_t kept =
        static_cast<std::size_t>(mid - arr_.begin());
    tm_.sampled_kept.record(kept);
    if (kept < q_ || kept > q_ + slack_) return false;
    // Commit. Every kept item compares strictly above the pivot and
    // kept ≥ q, so the pivot is a valid (monotone) admission bound.
    if (pivot > psi_) psi_ = pivot;
    if (on_evict_) {
      for (std::size_t i = kept; i < arr_.size(); ++i) on_evict_(arr_[i]);
    }
    const std::size_t batch = arr_.size() - kept;
    tm_.evicted_items.inc(batch);
    tm_.evict_batch_size.record(batch);
    arr_.resize(kept);
    return true;
  }

  /// The exact Algorithm-2 pass (identical to AmortizedMaintenance):
  /// partition at q, raise Ψ to the q-th largest, evict the suffix.
  void exact_evict() {
    partition_top(arr_.begin(), q_, arr_.end(),
                  typename VP::Order{.descending = true});
    psi_ = std::max(psi_, arr_[q_ - 1].val);
    if (on_evict_) {
      for (std::size_t i = q_; i < arr_.size(); ++i) on_evict_(arr_[i]);
    }
    const std::size_t batch = arr_.size() - q_;
    tm_.evicted_items.inc(batch);
    tm_.evict_batch_size.record(batch);
    arr_.resize(q_);
  }

 public:
  std::size_t q_;
  double gamma_ = 0.0;
  std::size_t cap_ = 0;
  std::size_t slack_ = 0;        // accepted over-keep beyond q
  std::size_t sample_size_ = 0;  // pivot sample draw count (m)
  bool use_sampling_ = false;
  std::uint64_t seed_ = 0;
  std::uint64_t sampled_passes_ = 0;   // accepted pivot estimates
  std::uint64_t exact_fallbacks_ = 0;  // slack misses -> exact pass
  std::vector<EntryT> arr_;
  std::vector<Value> sample_;  // pivot sample scratch (reused)
  Value psi_ = VP::empty();
  Value ext_floor_ = VP::empty();  // highest externally folded bound
  common::Xoshiro256 rng_;
  [[no_unique_address]] Telemetry tm_;
  EvictCallback on_evict_;
};

// ---------------------------------------------------------------------
// ReservoirCore
// ---------------------------------------------------------------------

template <typename ValuePolicy, typename WindowPolicy,
          typename MaintenancePolicy>
class ReservoirCore {
 public:
  using EntryT = typename ValuePolicy::EntryT;
  using Id = decltype(EntryT{}.id);
  using Value = decltype(EntryT{}.val);
  using Options = typename MaintenancePolicy::Options;
  using Telemetry = typename MaintenancePolicy::Telemetry;
  /// Invoked once per batch-evicted live item (PBA and the LRFU cache use
  /// this to keep their side tables in sync with the reservoir).
  using EvictCallback = typename MaintenancePolicy::EvictCallback;

  /// `who` names the concrete variant in validation messages ("QMax: q
  /// must be positive"); the maintenance ctor validates (q, γ) and hosts
  /// the allocation-failure fault site before any allocation.
  ReservoirCore(std::size_t q, Options opts, WindowPolicy window,
                const char* who)
      : q_(q), window_(window), maint_(q, opts, who) {
    // The batch buffers are sized up front so the first add_batch() does
    // not allocate mid-measurement. Only non-identity windows stage runs
    // here, but the buffers are sized for every window. Dropping them for
    // identity windows shifted glibc's heap layout enough that bench/e2e's
    // setup_s (a q = 10^5 QMax rebuilt in the memory the previous one
    // freed) read about 1.9x slower: the slot-array fill itself ran
    // slower, with no extra page faults.
    batch_ids_.resize(batch::kPrefilterBlock);
    batch_keys_.resize(batch::kPrefilterBlock);
  }

  /// Report a stream item. Returns true if it was admitted into the array
  /// (false: it was below the admission bound Ψ and cannot be in the top
  /// q, or its value is inadmissible — NaN / the reserved empty value /
  /// rejected by the window transform).
  bool add(Id id, Value val) {
    [[maybe_unused]] telemetry::Span trace_span(telemetry::Stage::kAdd);
    [[maybe_unused]] const std::uint64_t idx = processed_++;
    val = fault::corrupt_value(val);
    if constexpr (!WindowPolicy::kIdentity) {
      if (!window_.transform(val, idx)) return false;
    }
    if (!ValuePolicy::admissible(val) || !(val > maint_.psi())) return false;
    ++admitted_;
    maint_.admit(id, val);
    return true;
  }

  /// Report `n` stream items at once. Equivalent to calling add() on each
  /// (ids[i], vals[i]) pair in order — same Ψ trajectory, same eviction
  /// points and callback sequence, same query results — but items at or
  /// below Ψ (the common case once the bound converges) cost one
  /// branch-free comparison instead of a full call. Under a non-identity
  /// window the keys of each run are computed up front with the item's
  /// absolute arrival index, then the run rides the same screened path.
  /// Returns the number of admitted items.
  std::size_t add_batch(const Id* ids, const Value* vals, std::size_t n) {
    if constexpr (WindowPolicy::kIdentity) {
      return admit_screened(n, [ids](std::size_t j) { return ids[j]; },
                            [vals](std::size_t j) { return vals[j]; });
    } else {
      const std::uint64_t t0 = processed_;
      std::size_t admitted_in_batch = 0;
      for (std::size_t base = 0; base < n; base += batch::kPrefilterBlock) {
        const std::size_t m = std::min(batch::kPrefilterBlock, n - base);
        std::size_t valid = 0;
        for (std::size_t j = 0; j < m; ++j) {
          Value v = vals[base + j];
          if (!window_.transform(v, t0 + base + j)) continue;
          batch_ids_[valid] = ids[base + j];
          batch_keys_[valid] = v;
          ++valid;
        }
        const Id* run_ids = batch_ids_.data();
        const Value* run_keys = batch_keys_.data();
        admitted_in_batch += admit_screened(
            valid, [run_ids](std::size_t j) { return run_ids[j]; },
            [run_keys](std::size_t j) { return run_keys[j]; });
      }
      // Every item consumes one arrival index whether or not the window
      // transform accepted it, exactly like the scalar early-return.
      processed_ = t0 + n;
      return admitted_in_batch;
    }
  }

  /// add_batch over pre-paired entries (the window variants feed their
  /// merge buffers through this overload). Identity windows only: entry
  /// values are already in the reservoir's key domain.
  std::size_t add_batch(std::span<const EntryT> items)
    requires(WindowPolicy::kIdentity)
  {
    const EntryT* e = items.data();
    return admit_screened(items.size(),
                          [e](std::size_t j) { return e[j].id; },
                          [e](std::size_t j) { return e[j].val; });
  }

  /// The current admission bound: a monotone lower bound on the q-th
  /// largest key processed so far (−∞ until the array first fills).
  [[nodiscard]] Value threshold() const noexcept { return maint_.psi(); }

  /// Fold an externally established admission bound into Ψ — the sharded
  /// global-Ψ broadcast (qmax/sharded.hpp). The caller asserts that at
  /// least q items ≥ `v` exist in the *combined* stream of every
  /// reservoir sharing the broadcast, so rejecting below `v` can never
  /// lose a global top-q item. Because add() and add_batch() both test
  /// against the live Ψ, one fold tightens every subsequent admission
  /// test. Monotone: a no-op unless
  /// `v` exceeds the current bound. After a fold, this reservoir alone no
  /// longer answers exact top-q for its *own* substream — only the merged
  /// query across the broadcast group is exact.
  void raise_threshold_floor(Value v) noexcept { maint_.raise_psi_floor(v); }

  /// Highest bound ever folded via raise_threshold_floor (the value
  /// policy's empty() if none): lets audits and telemetry separate
  /// selection-derived Ψ raises from externally imposed ones.
  [[nodiscard]] Value external_floor() const noexcept {
    return maint_.ext_floor_;
  }

  /// Append the q largest live items (fewer if the stream is shorter than
  /// q) to `out`, unordered. O(capacity) time, non-destructive. The live
  /// items are gathered straight behind `out`'s current size, selected in
  /// place and truncated, so no second buffer is written.
  void query_into(std::vector<EntryT>& out) const {
    const std::size_t base = out.size();
    core::grow_for(out, maint_.live_count());
    maint_.for_each_live([&out](const EntryT& e) { out.push_back(e); });
    core::keep_top(out, base, q_,
                   typename ValuePolicy::Order{.descending = true});
  }

  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    out.reserve(capacity());
    query_into(out);
    return out;
  }

  /// Visit every live item (the top q plus up to q·γ recent/undecided
  /// ones). Used by tests and by merge operations that can tolerate
  /// supersets of the top q.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    maint_.for_each_live(std::forward<Fn>(fn));
  }

  /// Forget everything; equivalent to a freshly constructed instance.
  /// O(capacity) — the sliding-window algorithms reset one block per
  /// W·τ items, keeping the amortized cost constant.
  void reset() noexcept {
    maint_.reset();
    processed_ = 0;
    admitted_ = 0;
  }

  void set_evict_callback(EvictCallback cb) {
    maint_.on_evict_ = std::move(cb);
  }

  [[nodiscard]] std::size_t q() const noexcept { return q_; }
  [[nodiscard]] double gamma() const noexcept { return maint_.gamma(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return maint_.capacity();
  }
  [[nodiscard]] std::size_t live_count() const noexcept {
    return maint_.live_count();
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  /// Deamortized maintenance only (absent otherwise, so duck-typed
  /// telemetry binding skips it on amortized variants).
  [[nodiscard]] std::uint64_t late_selections() const noexcept
    requires requires(const MaintenancePolicy& m) { m.late_selections(); }
  {
    return maint_.late_selections();
  }
  [[nodiscard]] const Telemetry& telem() const noexcept { return maint_.tm_; }
  [[nodiscard]] const WindowPolicy& window_policy() const noexcept {
    return window_;
  }
  /// Sampled maintenance only (absent otherwise): accepted pivot
  /// estimates, slack-miss fallbacks to the exact pass, and the resolved
  /// sampling configuration.
  [[nodiscard]] std::uint64_t sampled_passes() const noexcept
    requires requires(const MaintenancePolicy& m) { m.sampled_passes(); }
  {
    return maint_.sampled_passes();
  }
  [[nodiscard]] std::uint64_t exact_fallbacks() const noexcept
    requires requires(const MaintenancePolicy& m) { m.exact_fallbacks(); }
  {
    return maint_.exact_fallbacks();
  }
  [[nodiscard]] std::size_t sample_size() const noexcept
    requires requires(const MaintenancePolicy& m) { m.sample_size(); }
  {
    return maint_.sample_size();
  }
  [[nodiscard]] bool sampling_enabled() const noexcept
    requires requires(const MaintenancePolicy& m) { m.sampling_enabled(); }
  {
    return maint_.sampling_enabled();
  }

  /// Snapshot self-description: one tag per (window, maintenance)
  /// composition, embedded in the snapshot header so a restore into the
  /// wrong variant is rejected before any payload is parsed.
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept {
    return 0x01000000u | (WindowPolicy::kWindowTag << 8) |
           MaintenancePolicy::kPolicyTag;
  }

  /// Snapshot hook (durability/snapshot.hpp drives this through a Writer
  /// or Reader archive): configuration guards, the maintenance policy's
  /// full algorithm state, and the stream position. The batch scratch
  /// buffers are not state: they are overwritten by every batch call.
  ///
  /// Version compatibility: v1 images end after the stream position. v2
  /// images append a 25-byte block (mode byte, two window counters, a
  /// switch count) for the adaptive lane-screen governor that v3
  /// retired; loading a v2 image reads and discards it, and minting one
  /// writes the governor's reset defaults. The governor only chose how
  /// rejections were detected, never which items were admitted, so v2
  /// images restore exactly.
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    ar.check_u64(static_cast<std::uint64_t>(q_), "reservoir q");
    if constexpr (!WindowPolicy::kIdentity) {
      ar.check_f64(window_.log_c, "window log_c");
    }
    maint_.serialize_state(ar);
    ar.u64(processed_);
    ar.u64(admitted_);
    if (version == 2) {
      bool screen = false;
      std::size_t window_items = 0;
      std::size_t window_rejected = 0;
      std::uint64_t switches = 0;
      ar.b(screen);
      ar.sz(window_items);
      ar.sz(window_rejected);
      ar.u64(switches);
    }
  }

 private:
  friend struct ::qmax::InvariantAccess;

  /// The one identity-domain admission loop behind every add_batch, for
  /// all maintenance policies: an in-order walk over items [0, n), item j
  /// being (id(j), val(j)), in which a rejected item costs one comparison
  /// against the live Ψ and an admitted one runs the exact scalar
  /// admission code, so maintenance fires at exactly the scalar points
  /// and a Ψ raised by an admit tightens the test for the very next item.
  /// id(j) is read only for admitted items.
  template <typename IdAt, typename ValAt>
  std::size_t admit_screened(std::size_t n, IdAt id, ValAt val) {
    [[maybe_unused]] telemetry::Span trace_span(telemetry::Stage::kAddBatch);
    processed_ += n;
    maint_.tm_.batch_calls.inc();
    std::size_t admitted_in_batch = 0;
    std::size_t screened = 0;
    // Ψ is hoisted into a register and reloaded only after an admit — the
    // only point it can move mid-batch (single writer; floor folds happen
    // between batches). The compiler cannot hoist it itself: it must
    // assume the items may alias the reservoir, forcing a reload per item.
    // Admission decisions are bit-identical to the per-item reload.
    Value psi = maint_.psi();
    for (std::size_t j = 0; j < n; ++j) {
      const Value v = val(j);
      if (!(v > psi)) {
        ++screened;
        continue;
      }
      maint_.admit(id(j), v);
      psi = maint_.psi();
      ++admitted_in_batch;
    }
    admitted_ += admitted_in_batch;
    maint_.tm_.prefilter_rejected.inc(screened);
    maint_.tm_.batch_survivors.record(n - screened);
    return admitted_in_batch;
  }

  std::size_t q_;
  [[no_unique_address]] WindowPolicy window_;
  MaintenancePolicy maint_;
  std::uint64_t processed_ = 0;
  std::uint64_t admitted_ = 0;
  std::vector<Id> batch_ids_;             // non-identity windows: valid-item
  std::vector<Value> batch_keys_;         //   compaction scratch per run
};

// ---------------------------------------------------------------------
// BlockRing — the cyclic block store behind the window containers
// ---------------------------------------------------------------------

/// A ring of per-block reservoirs tagged with the absolute start index of
/// the block each slot currently holds. SlackQMax keeps one ring per
/// level (count-based blocks); TimeSlackQMax keeps one ring over the time
/// axis. Entering a block whose tag disagrees recycles the slot (reset +
/// retag); reads require an exact tag match, so stale slots are invisible
/// until overwritten.
template <typename R>
class BlockRing {
 public:
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

  BlockRing() = default;

  template <typename Factory>
  void init(std::uint64_t block_size, std::uint64_t num_blocks,
            const Factory& factory) {
    block_size_ = block_size;
    blocks_.clear();
    blocks_.reserve(num_blocks);
    for (std::uint64_t i = 0; i < num_blocks; ++i) {
      blocks_.push_back(factory());
    }
    start_.assign(num_blocks, kNoBlock);
  }

  /// The reservoir for absolute block index `idx`, recycling the ring
  /// slot (reset + retag, then on_recycle for telemetry) when it still
  /// holds an older block.
  template <typename OnRecycle>
  R& at(std::uint64_t idx, OnRecycle&& on_recycle) {
    const std::uint64_t slot = idx % start_.size();
    const std::uint64_t bstart = idx * block_size_;
    if (start_[slot] != bstart) {
      blocks_[slot].reset();
      start_[slot] = bstart;
      on_recycle();
    }
    return blocks_[slot];
  }

  /// The reservoir for block `idx` iff the ring still holds it.
  [[nodiscard]] const R* find(std::uint64_t idx) const {
    const std::uint64_t slot = idx % start_.size();
    if (start_[slot] != idx * block_size_) return nullptr;
    return &blocks_[slot];
  }

  void reset_all() {
    start_.assign(start_.size(), kNoBlock);
    for (R& b : blocks_) b.reset();
  }

  [[nodiscard]] std::uint64_t block_size() const noexcept {
    return block_size_;
  }
  [[nodiscard]] std::uint64_t num_blocks() const noexcept {
    return start_.size();
  }
  [[nodiscard]] const std::vector<R>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& start_tags() const noexcept {
    return start_;
  }

  /// Snapshot hook: the start tags plus every block reservoir, in slot
  /// order. Block count and size are configuration (checked, not loaded).
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    ar.check_u64(block_size_, "ring block size");
    ar.check_u64(static_cast<std::uint64_t>(start_.size()),
                 "ring block count");
    ar.vec(start_);
    if constexpr (Archive::kLoading) {
      if (start_.size() != blocks_.size()) ar.fail("ring tag count");
    }
    for (R& b : blocks_) b.serialize_state(ar, version);
  }

 private:
  std::uint64_t block_size_ = 1;
  std::vector<R> blocks_;
  std::vector<std::uint64_t> start_;  // absolute start index tag per slot
};

}  // namespace qmax::core
