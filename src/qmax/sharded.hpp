// Sharded concurrent q-MAX: S independent reservoirs, one writer thread
// each, coupled only by a relaxed global-Ψ broadcast, with the exact
// global top q recovered by a k-way merge at query time.
//
// The deployment shape follows Quancurrent's sharded-sketch design and
// SQUID's observation that admission filtering is where nearly all
// per-item work can be rejected (see PAPERS.md): instead of funnelling N
// producer rings into ONE measurement thread — the paper's OVS layout,
// whose aggregate throughput flatlines at a single consumer's ingest rate
// exactly in the q = 10^7 regime of Section 6.6 — each ring gets its own
// consumer owning one reservoir shard. Shards never share mutable state
// except a single cache line:
//
//     ring 0 ──► consumer 0 ──► shard 0 (q, γ) ──┐ fold Ψ₀
//     ring 1 ──► consumer 1 ──► shard 1 (q, γ) ──┤    ▼
//        ⋮            ⋮                ⋮          ├─ global Ψ = maxᵢ Ψᵢ
//     ring S ──► consumer S ──► shard S (q, γ) ──┘ (relaxed atomic max)
//                                   │
//       query(): concat shard live sets ─► core::partition_top ─► top q
//
// Global-Ψ broadcast. Each shard's local Ψ_s is a lower bound on the q-th
// largest item of the stream *that shard saw* — hence also of the global
// stream — so any shard may reject items ≤ max_s Ψ_s without ever losing
// a global top-q item. After any add that raises its local bound, a shard
// publishes the new Ψ into a shared relaxed atomic (monotone max); before
// each add it folds the published value back into its own admission gate
// via ReservoirCore::raise_threshold_floor. Because the fold raises the
// live Ψ the core screens against, one maintenance cycle on any shard
// tightens the admission test of add() and add_batch() on all shards.
// The coupling is advisory: a stale read only delays tightening, never
// admits a wrong rejection, so relaxed ordering suffices.
//
// Merge-on-query exactness. Every global top-q item that landed in shard
// s is one of shard s's top q admitted items (at most q such items exist
// per shard, each ≥ every non-top-q item), and the folded gate only ever
// rejected items provably below q others — so concatenating the per-shard
// live sets (each a superset of its shard's top q) always contains the
// exact global top q, which one core::partition_top pass extracts.
// tests/test_sharded_qmax.cpp proves bit-identity against a
// single-reservoir seed-reference run per trace.
//
// Threading contract: shard s is single-writer (exactly one thread calls
// add/add_batch with index s); query() and the aggregate accessors
// require the writers to be quiescent (joined or barriered). The only
// cross-thread state is the broadcast atomic.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/validate.hpp"
#include "qmax/core.hpp"
#include "qmax/entry.hpp"
#include "qmax/qmax.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/span.hpp"

namespace qmax {

template <typename Core = QMax<std::uint64_t, double>>
class ShardedQMax {
  static_assert(std::is_constructible_v<Core, std::size_t,
                                        typename Core::Options>,
                "Core must be constructible from (q, Options)");

 public:
  using EntryT = typename Core::EntryT;
  using Id = typename Core::Id;
  using Value = typename Core::Value;
  using Options = typename Core::Options;
  using Order = ValueOrder<Id, Value>;

  /// Gated merge-side instruments (query thread only; the per-shard
  /// broadcast counters below are plain fields instead, one writer each).
  struct Telemetry {
    telemetry::Counter merge_queries;     // merge-on-query invocations
    telemetry::Histogram merge_gathered;  // shard live items concatenated

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("merge_queries", merge_queries);
      fn("merge_gathered", merge_gathered);
    }
    void reset() noexcept {
      merge_queries.reset();
      merge_gathered.reset();
    }
  };

  /// Every shard holds the full (q, γ): the whole top q can land in one
  /// shard, so shards cannot be thinner. `psi_broadcast = false` keeps
  /// the shards fully independent (the ablation baseline): each converges
  /// on its own bound and the merge stays exact either way.
  ShardedQMax(std::size_t shards, std::size_t q, Options opts = {},
              bool psi_broadcast = true)
      : q_(q), broadcast_(psi_broadcast) {
    common::validate_nonzero(shards, "ShardedQMax", "shard count");
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(q, opts));
    }
  }

  // ---- Shard-side ingestion (single writer per shard) -----------------

  /// Report one item to shard `s` from its owning thread.
  bool add(std::size_t s, Id id, Value val) {
    Shard& sh = *shards_[s];
    fold_broadcast(sh);
    if constexpr (telemetry::kEnabled) {
      const Value psi = sh.core.threshold();
      if (psi > sh.self_psi && val > sh.self_psi && !(val > psi)) {
        ++sh.broadcast_tightened;
      }
    }
    const bool admitted = sh.core.add(id, val);
    publish_psi(sh);
    return admitted;
  }

  /// Report `n` items to shard `s` from its owning thread; rides the
  /// core's batch loop against the broadcast-tightened Ψ.
  std::size_t add_batch(std::size_t s, const Id* ids, const Value* vals,
                        std::size_t n) {
    Shard& sh = *shards_[s];
    fold_broadcast(sh);
    if constexpr (telemetry::kEnabled) {
      // Rejections the shard's own bound would have let through: items in
      // (self-raised Ψ, folded Ψ]. Counted against the pre-batch bound —
      // an exact attribution for this batch's screen, telemetry builds
      // only (the extra pass costs one compare pair per item).
      const Value psi = sh.core.threshold();
      if (psi > sh.self_psi) {
        std::uint64_t t = 0;
        for (std::size_t j = 0; j < n; ++j) {
          t += static_cast<std::uint64_t>(vals[j] > sh.self_psi &&
                                          !(vals[j] > psi));
        }
        sh.broadcast_tightened += t;
      }
    }
    const std::size_t admitted = sh.core.add_batch(ids, vals, n);
    publish_psi(sh);
    return admitted;
  }

  // ---- Merge-on-query (writers quiescent) -----------------------------

  /// Append the exact global top q (fewer if the combined stream is
  /// shorter) to `out`, unordered: gather every shard's live items
  /// straight behind `out`'s current size, run one partition pass over
  /// the ≤ S·capacity candidates there, and truncate to q. Each shard's
  /// live set contains that shard's top q, so the union contains the
  /// global top q.
  void query_into(std::vector<EntryT>& out) const {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kMergeQuery);
    tm_.merge_queries.inc();
    const std::size_t base = out.size();
    core::grow_for(out, live_count());
    for (const auto& sh : shards_) {
      sh->core.for_each_live([&out](const EntryT& e) { out.push_back(e); });
    }
    tm_.merge_gathered.record(out.size() - base);
    core::keep_top(out, base, q_, Order{.descending = true});
  }

  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    std::size_t capacity = 0;
    for (const auto& sh : shards_) capacity += sh->core.capacity();
    out.reserve(capacity);
    query_into(out);
    return out;
  }

  /// Forget everything (writers quiescent); equivalent to freshly built.
  void reset() noexcept {
    for (auto& sh : shards_) {
      sh->core.reset();
      sh->self_psi = kEmptyValue<Value>;
      sh->published = kEmptyValue<Value>;
      sh->broadcast_folds = 0;
      sh->broadcast_publishes = 0;
      sh->broadcast_tightened = 0;
    }
    global_psi_.store(kEmptyValue<Value>, std::memory_order_relaxed);
    tm_.reset();
  }

  // ---- Introspection --------------------------------------------------

  [[nodiscard]] std::size_t q() const noexcept { return q_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] bool psi_broadcast() const noexcept { return broadcast_; }
  [[nodiscard]] const Core& shard(std::size_t s) const {
    return shards_[s]->core;
  }
  [[nodiscard]] Value shard_threshold(std::size_t s) const {
    return shards_[s]->core.threshold();
  }
  /// The broadcast bound all shards fold (kEmptyValue before any publish).
  [[nodiscard]] Value global_threshold() const noexcept {
    return global_psi_.load(std::memory_order_relaxed);
  }
  /// The tightest admission bound across shards — what threshold() means
  /// for the merged structure (== global_threshold() once broadcast).
  [[nodiscard]] Value threshold() const noexcept {
    Value t = global_psi_.load(std::memory_order_relaxed);
    for (const auto& sh : shards_) {
      const Value lt = sh->core.threshold();
      if (lt > t) t = lt;
    }
    return t;
  }

  [[nodiscard]] std::uint64_t processed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->core.processed();
    return n;
  }
  [[nodiscard]] std::uint64_t admitted() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->core.admitted();
    return n;
  }
  [[nodiscard]] std::size_t live_count() const noexcept {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->core.live_count();
    return n;
  }
  /// Times any shard tightened its gate from the broadcast.
  [[nodiscard]] std::uint64_t broadcast_folds() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->broadcast_folds;
    return n;
  }
  /// Times any shard pushed a new local Ψ into the broadcast.
  [[nodiscard]] std::uint64_t broadcast_publishes() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->broadcast_publishes;
    return n;
  }
  /// Rejections attributable to the broadcast rather than the shard's own
  /// bound (exact per-batch attribution; 0 unless QMAX_TELEMETRY).
  [[nodiscard]] std::uint64_t broadcast_tightened_rejections() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->broadcast_tightened;
    return n;
  }
  [[nodiscard]] std::uint64_t shard_broadcast_folds(std::size_t s) const {
    return shards_[s]->broadcast_folds;
  }
  [[nodiscard]] const Telemetry& telem() const noexcept { return tm_; }

  /// Snapshot self-description: container tag over the shard core's tag.
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept {
    return 0x05000000u | (Core::snapshot_tag() & 0x00FFFFFFu);
  }

  /// Snapshot hook (writers quiescent, like query/reset): the global-Ψ
  /// floor plus every shard — core state and broadcast bookkeeping, in
  /// shard order. The atomic travels through a local so the archive only
  /// ever sees plain values.
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    ar.check_u64(static_cast<std::uint64_t>(q_), "sharded q");
    ar.check_u64(static_cast<std::uint64_t>(shards_.size()), "shard count");
    ar.check_u64(broadcast_ ? 1 : 0, "psi broadcast mode");
    Value g = global_psi_.load(std::memory_order_relaxed);
    ar.pod(g);
    if constexpr (Archive::kLoading) {
      global_psi_.store(g, std::memory_order_relaxed);
    }
    for (auto& sh : shards_) {
      sh->core.serialize_state(ar, version);
      ar.pod(sh->self_psi);
      ar.pod(sh->published);
      ar.u64(sh->broadcast_folds);
      ar.u64(sh->broadcast_publishes);
      ar.u64(sh->broadcast_tightened);
    }
  }

 private:
  /// Per-shard state on its own cache line: `core` plus the broadcast
  /// bookkeeping, all written only by the owning thread.
  struct alignas(telemetry::kCacheLineBytes) Shard {
    Shard(std::size_t q, const Options& opts) : core(q, opts) {}

    Core core;
    Value self_psi = kEmptyValue<Value>;   // highest self-raised Ψ
    Value published = kEmptyValue<Value>;  // last Ψ pushed to broadcast
    std::uint64_t broadcast_folds = 0;
    std::uint64_t broadcast_publishes = 0;
    std::uint64_t broadcast_tightened = 0;
  };

  void fold_broadcast(Shard& sh) {
    if (!broadcast_) return;
    const Value g = global_psi_.load(std::memory_order_relaxed);
    if (g > sh.core.threshold()) {
      // The span covers only actual folds — the every-add relaxed load is
      // far below clock resolution and would drown the trace.
      [[maybe_unused]] telemetry::Span trace_span(
          telemetry::Stage::kPsiFold);
      sh.core.raise_threshold_floor(g);
      ++sh.broadcast_folds;
    }
  }

  void publish_psi(Shard& sh) {
    const Value t = sh.core.threshold();
    // A raise past every folded floor is the shard's own maintenance
    // speaking; track it so tightened-rejection attribution has the
    // "what would the shard alone have rejected" bound.
    if (t > sh.self_psi && t > sh.core.external_floor()) sh.self_psi = t;
    if (!broadcast_ || !(t > sh.published)) return;
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kPsiPublish);
    sh.published = t;
    ++sh.broadcast_publishes;
    core::atomic_fetch_max(global_psi_, t);
  }

  std::size_t q_;
  bool broadcast_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Value> global_psi_{kEmptyValue<Value>};
  [[no_unique_address]] mutable Telemetry tm_;
};

}  // namespace qmax
