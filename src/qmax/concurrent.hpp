// Concurrent q-MAX: any thread may add(), exact top q on query.
//
// ShardedQMax (qmax/sharded.hpp) scales by pinning exactly one writer to
// each shard — the right shape when producers and shards match one to
// one, but a straitjacket when they don't: a skewed RSS dispatch or a
// producer count that differs from the shard count leaves some writers
// idle and others saturated. ConcurrentQMax removes the pinning entirely,
// following Quancurrent's thread-local-buffer design (PAPERS.md): every
// writer screens and stages items privately, and a single shared
// reservoir absorbs full buffers in batches.
//
//     writer 0 ──► TLS buffer ──┐  full buffers: lock-free MPSC push
//     writer 1 ──► TLS buffer ──┤        ▼
//        ⋮             ⋮        ├──► pending stack ──► maintenance owner
//     writer W ──► TLS buffer ──┘   (CAS buffer-swap)   │ (flag-guarded)
//          ▲                                            ▼
//          │ screen: val > Ψ                     ReservoirCore policies
//          │ (relaxed load)                      (exact or sampled)
//          └───────── global Ψ ◄── CAS-max publish ─────┘
//
// Ingest path (lock-free). A writer's add()/add_batch() screens each item
// against a relaxed-atomic global Ψ — one comparison per item, like the
// single-writer batch path — and appends
// survivors to a thread-local buffer. A full buffer is handed off with
// one CAS push onto a Treiber stack of pending buffers (no mutex, no
// pop-side ABA: the consumer takes the whole stack with a single
// exchange). The writer then tries to become the maintenance owner via an
// atomic flag; if another thread already owns maintenance the writer
// simply continues with a fresh buffer — it never blocks. Buffers return
// to their writer through a per-writer SPSC `spare` slot; a writer that
// out-runs the return channel heap-allocates and counts a handoff stall.
//
// Maintenance and Ψ publication. The owner drains the pending stack into
// the shared ReservoirCore — running the ordinary maintenance policy,
// exact or SampledMaintenance — and CAS-max-publishes the core's
// tightened Ψ into the global atomic, so every writer's screen tightens
// monotonically. Ψ is only ever published from the core's own threshold,
// which Theorem 1 guarantees is a lower bound on the q-th largest item
// the core has ingested — a subset of the full stream, whose q-th largest
// can only be higher — so a writer rejecting val ≤ Ψ provably discards an
// item outside the global top q. Stale reads only delay tightening (the
// coupling is advisory), hence relaxed ordering on the Ψ atomic; the
// acquire/release pairs live on the buffer handoff (push/drain) and the
// maintenance flag, which are the edges that carry data. DESIGN.md §4.7
// spells out the full memory-ordering argument.
//
// Query exactness. query() first drains every in-flight buffer — the
// pending stack and each writer's current partial buffer — into the core,
// then answers from the core's exact top q. Every reported item is thus
// either (a) in the core, (b) drained into it now, or (c) was screened
// against some past Ψ and is provably below q better items. Results are
// exactly the true top q; tests/test_concurrent_qmax.cpp proves multiset
// bit-identity against single-writer seed-reference runs for every
// writer-count grid cell.
//
// Threading contract. add()/add_batch() from any thread, concurrently.
// query(), flush(), reset(), serialize_state() and the aggregate
// accessors require writers to be quiescent (joined or barriered) — the
// same contract as ShardedQMax. A thread's buffer is allocated on its
// first add from that thread (or at writer() registration), so the pages
// are first-touched by the owning writer: on NUMA hosts the default
// first-touch policy places each admission buffer on its writer's node.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/validate.hpp"
#include "qmax/core.hpp"
#include "qmax/entry.hpp"
#include "qmax/qmax.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/span.hpp"

namespace qmax {

namespace detail {

/// Process-unique instance ids key the per-thread slot cache, so a new
/// ConcurrentQMax at a recycled address can never collide with a stale
/// thread-local entry for a destroyed one.
[[nodiscard]] inline std::uint64_t next_concurrent_uid() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

template <typename Core = QMax<std::uint64_t, double>>
class ConcurrentQMax {
  static_assert(std::is_constructible_v<Core, std::size_t,
                                        typename Core::Options>,
                "Core must be constructible from (q, Options)");

  struct Buffer;
  struct WriterSlot;

 public:
  using EntryT = typename Core::EntryT;
  using Id = typename Core::Id;
  using Value = typename Core::Value;
  using Options = typename Core::Options;
  using Order = ValueOrder<Id, Value>;

  static_assert(
      requires(Core& c, std::span<const EntryT> s) { c.add_batch(s); },
      "ConcurrentQMax requires an identity-window Core (buffered handoff "
      "feeds pre-paired entries; arrival-index window transforms would "
      "observe buffered, not true, arrival order)");

  /// Items staged per writer before a handoff. 1024 entries = 16 KiB per
  /// buffer: large enough to amortize the CAS push and the owner's batch
  /// ingest, small enough that Ψ staleness stays bounded.
  static constexpr std::size_t kDefaultBufferCap = 1024;

  /// Gated instruments, written only by the maintenance owner (the
  /// atomic flag serializes owners, so plain counters are race-free) or
  /// on the quiescent query path. Counts every build exports (items
  /// ingested, Ψ publishes, CAS retries) are plain fields instead.
  struct Telemetry {
    telemetry::Counter handoff_batches;     // buffers ingested by the owner
    telemetry::Counter drain_queries;       // query-side full drains
    telemetry::Histogram buffer_occupancy;  // items per ingested buffer

    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("handoff_batches", handoff_batches);
      fn("drain_queries", drain_queries);
      fn("buffer_occupancy", buffer_occupancy);
    }
    void reset() noexcept {
      handoff_batches.reset();
      drain_queries.reset();
      buffer_occupancy.reset();
    }
  };

  explicit ConcurrentQMax(std::size_t q, Options opts = {},
                          std::size_t buffer_cap = kDefaultBufferCap)
      : core_(q, opts), buffer_cap_(buffer_cap),
        uid_(detail::next_concurrent_uid()) {
    common::validate_nonzero(buffer_cap, "ConcurrentQMax", "buffer capacity");
  }

  ConcurrentQMax(const ConcurrentQMax&) = delete;
  ConcurrentQMax& operator=(const ConcurrentQMax&) = delete;

  ~ConcurrentQMax() {
    free_list(pending_.exchange(nullptr, std::memory_order_acquire));
    for (auto& w : slots_) {
      delete w->cur;
      delete w->spare.exchange(nullptr, std::memory_order_acquire);
    }
  }

  // ---- Ingestion (any thread, lock-free) ------------------------------

  /// Report one item from any thread. Returns true if the item survived
  /// the Ψ screen and was staged for the reservoir (final admission is
  /// decided by core maintenance at handoff; anything staged and later
  /// rejected there was provably outside the top q anyway).
  bool add(Id id, Value val) {
    return Writer(this, &local_slot()).add(id, val);
  }

  /// Report `n` items from any thread; each is screened against one
  /// snapshot of the published Ψ, one comparison per item, like the
  /// single-writer batch path. Returns the number staged.
  std::size_t add_batch(const Id* ids, const Value* vals, std::size_t n) {
    return Writer(this, &local_slot()).add_batch(ids, vals, n);
  }

  /// Entry-span overload (the multi-PMD drain path feeds this).
  std::size_t add_batch(std::span<const EntryT> items) {
    return Writer(this, &local_slot()).add_batch(items);
  }

  /// A dedicated writer handle bound to a fresh slot, for hosts that want
  /// explicit writer identity (benches, the deterministic interleaving
  /// tests) instead of the thread-local lookup. At most one thread may
  /// use a given Writer at a time; the handle is a trivially copyable
  /// view and must not outlive the ConcurrentQMax.
  class Writer {
   public:
    bool add(Id id, Value val) { return add_batch(&id, &val, 1) != 0; }
    std::size_t add_batch(const Id* ids, const Value* vals, std::size_t n) {
      return host_->stage_screened(
          *slot_, n, [ids](std::size_t j) { return ids[j]; },
          [vals](std::size_t j) { return vals[j]; });
    }
    std::size_t add_batch(std::span<const EntryT> items) {
      const EntryT* e = items.data();
      return host_->stage_screened(
          *slot_, items.size(), [e](std::size_t j) { return e[j].id; },
          [e](std::size_t j) { return e[j].val; });
    }

   private:
    friend class ConcurrentQMax;
    Writer(ConcurrentQMax* host, WriterSlot* slot)
        : host_(host), slot_(slot) {}
    ConcurrentQMax* host_;
    WriterSlot* slot_;
  };

  [[nodiscard]] Writer writer() { return Writer(this, register_slot()); }

  // ---- Query / drain (writers quiescent) ------------------------------

  /// Append the exact top q (fewer if the stream is shorter) to `out`,
  /// unordered. Drains every in-flight buffer first, so nothing staged is
  /// ever missing from the answer.
  void query_into(std::vector<EntryT>& out) const {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kMergeQuery);
    const_cast<ConcurrentQMax*>(this)->drain_all();
    tm_.drain_queries.inc();
    core_.query_into(out);
  }

  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    out.reserve(core_.capacity());
    query_into(out);
    return out;
  }

  /// Push every staged item into the core and publish the resulting Ψ.
  void flush() { drain_all(); }

  /// Forget everything (writers quiescent); equivalent to freshly built.
  /// Registered slots survive (their threads may write again) with
  /// cleared buffers and zeroed counters.
  void reset() noexcept {
    free_list(pending_.exchange(nullptr, std::memory_order_acquire));
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      for (auto& w : slots_) {
        if (w->cur != nullptr) w->cur->items.clear();
        if (Buffer* s = w->spare.load(std::memory_order_acquire)) {
          s->items.clear();
        }
        w->seen = w->screened = w->buffered = w->handoffs = w->stalls = 0;
      }
    }
    core_.reset();
    global_psi_.store(kEmptyValue<Value>, std::memory_order_relaxed);
    base_seen_ = base_screened_ = base_buffered_ = 0;
    base_handoffs_ = base_stalls_ = 0;
    ingested_ = 0;
    maintenance_rounds_ = 0;
    psi_publishes_ = 0;
    psi_cas_retries_ = 0;
    tm_.reset();
  }

  // ---- Introspection (aggregates require quiescent writers) -----------

  [[nodiscard]] std::size_t q() const noexcept { return core_.q(); }
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return buffer_cap_;
  }
  [[nodiscard]] std::size_t writer_count() const {
    std::lock_guard<std::mutex> lock(reg_mu_);
    return slots_.size();
  }
  /// The published global screen bound (safe from any thread; the exact
  /// reservoir bound lives in core() and requires quiescence to read).
  [[nodiscard]] Value threshold() const noexcept {
    return global_psi_.load(std::memory_order_relaxed);
  }
  /// The shared reservoir (quiescent reads only).
  [[nodiscard]] const Core& core() const noexcept { return core_; }

  [[nodiscard]] std::uint64_t processed() const {
    return base_seen_ + sum_slots([](const WriterSlot& w) { return w.seen; });
  }
  /// Items the writer-side Ψ screen rejected before buffering.
  [[nodiscard]] std::uint64_t screened_out() const {
    return base_screened_ +
           sum_slots([](const WriterSlot& w) { return w.screened; });
  }
  /// Items staged into admission buffers (superset of core admissions).
  [[nodiscard]] std::uint64_t buffered() const {
    return base_buffered_ +
           sum_slots([](const WriterSlot& w) { return w.buffered; });
  }
  /// Items staged but not yet handed into the core.
  [[nodiscard]] std::uint64_t in_flight() const {
    return buffered() - ingested_;
  }
  [[nodiscard]] std::uint64_t admitted() const noexcept {
    return core_.admitted();
  }
  [[nodiscard]] std::size_t live_count() const noexcept {
    return core_.live_count();
  }
  [[nodiscard]] std::uint64_t handoffs() const {
    return base_handoffs_ +
           sum_slots([](const WriterSlot& w) { return w.handoffs; });
  }
  /// Handoffs that allocated a fresh buffer because maintenance had not
  /// yet returned the previous one (the writer out-ran the owner).
  [[nodiscard]] std::uint64_t handoff_stalls() const {
    return base_stalls_ +
           sum_slots([](const WriterSlot& w) { return w.stalls; });
  }
  [[nodiscard]] std::uint64_t maintenance_rounds() const noexcept {
    return maintenance_rounds_;
  }
  [[nodiscard]] std::uint64_t psi_publishes() const noexcept {
    return psi_publishes_;
  }
  [[nodiscard]] std::uint64_t psi_cas_retries() const noexcept {
    return psi_cas_retries_;
  }
  [[nodiscard]] const Telemetry& telem() const noexcept { return tm_; }

  // ---- Durability (writers quiescent) ---------------------------------

  /// Snapshot self-description: container tag over the core's tag (0x05
  /// is ShardedQMax). The 0x06 prefix is shared with LrfuQMaxCache, whose
  /// tag is the bare 0x06000000; the values cannot meet because every
  /// core tag carries a window tag of at least 1 in bits 8-15.
  [[nodiscard]] static constexpr std::uint32_t snapshot_tag() noexcept {
    return 0x06000000u | (Core::snapshot_tag() & 0x00FFFFFFu);
  }

  /// Snapshot hook. Saving first drains every in-flight buffer into the
  /// core — the quiesced snapshot: buffered items are never lost to an
  /// image, and the image itself is just (Ψ floor, core, aggregate
  /// accounting). snapshot() saves twice, counting then writing: the
  /// count pass drains, so both passes see the same state. Loading folds
  /// the saved aggregates into base counters and clears any live slot
  /// state, so a restored instance continues exact accounting from the
  /// checkpoint cut.
  template <typename Archive>
  void serialize_state(Archive& ar, std::uint32_t version) {
    if constexpr (!Archive::kLoading) drain_all();
    ar.check_u64(static_cast<std::uint64_t>(buffer_cap_),
                 "concurrent buffer cap");
    Value g = global_psi_.load(std::memory_order_relaxed);
    ar.pod(g);
    if constexpr (Archive::kLoading) {
      global_psi_.store(g, std::memory_order_relaxed);
    }
    core_.serialize_state(ar, version);
    std::uint64_t seen = processed();
    std::uint64_t screened = screened_out();
    std::uint64_t staged = buffered();
    std::uint64_t hand = handoffs();
    std::uint64_t stalls = handoff_stalls();
    ar.u64(seen);
    ar.u64(screened);
    ar.u64(staged);
    ar.u64(hand);
    ar.u64(stalls);
    ar.u64(ingested_);
    ar.u64(maintenance_rounds_);
    ar.u64(psi_publishes_);
    ar.u64(psi_cas_retries_);
    if constexpr (Archive::kLoading) {
      base_seen_ = seen;
      base_screened_ = screened;
      base_buffered_ = staged;
      base_handoffs_ = hand;
      base_stalls_ = stalls;
      free_list(pending_.exchange(nullptr, std::memory_order_acquire));
      std::lock_guard<std::mutex> lock(reg_mu_);
      for (auto& w : slots_) {
        if (w->cur != nullptr) w->cur->items.clear();
        w->seen = w->screened = w->buffered = w->handoffs = w->stalls = 0;
      }
    }
  }

 private:
  friend struct ::qmax::InvariantAccess;

  /// A staged batch: owned by exactly one side at a time — the writer
  /// while filling, the pending stack after the CAS push, the maintenance
  /// owner while ingesting, then back to the writer via its spare slot.
  struct Buffer {
    std::vector<EntryT> items;
    Buffer* next = nullptr;       // intrusive link in the pending stack
    WriterSlot* owner = nullptr;  // return address for recycling
  };

  /// Per-writer state on its own cache line. All plain fields are written
  /// only by the owning thread; `spare` is the SPSC return channel from
  /// the maintenance owner.
  struct alignas(telemetry::kCacheLineBytes) WriterSlot {
    Buffer* cur = nullptr;        // buffer currently being filled
    std::uint64_t seen = 0;       // items reported through this slot
    std::uint64_t screened = 0;   // rejected by the Ψ screen
    std::uint64_t buffered = 0;   // items staged into buffers
    std::uint64_t handoffs = 0;   // full buffers pushed to the exchange
    std::uint64_t stalls = 0;     // handoffs that heap-allocated
    std::atomic<Buffer*> spare{nullptr};
  };

  // ---- Writer-side screen + staging -----------------------------------

  /// The one writer-side loop behind add() (n = 1) and both add_batch
  /// forms: screen items [0, n), item j being (id(j), val(j)), against
  /// one load of the published Ψ and stage the survivors into w's buffer.
  /// Returns the number staged.
  template <typename IdAt, typename ValAt>
  std::size_t stage_screened(WriterSlot& w, std::size_t n, IdAt id,
                             ValAt val) {
    w.seen += n;
    // One Ψ snapshot per call: monotone, so screening a whole batch
    // against a slightly stale bound can only stage extra candidates the
    // core re-screens at handoff — never lose one.
    const Value psi = global_psi_.load(std::memory_order_relaxed);
    std::size_t staged = 0;
    std::size_t screened = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Value v = val(j);
      if (!(v > psi)) {
        ++screened;
        continue;
      }
      stage(w, id(j), v);
      ++staged;
    }
    w.screened += screened;
    return staged;
  }

  void stage(WriterSlot& w, Id id, Value val) {
    Buffer* b = w.cur;
    b->items.push_back(EntryT{id, val});
    ++w.buffered;
    if (b->items.size() >= buffer_cap_) hand_off(w);
  }

  // ---- Lock-free MPSC handoff -----------------------------------------

  void hand_off(WriterSlot& w) {
    Buffer* b = w.cur;
    w.cur = nullptr;
    ++w.handoffs;
    push_pending(b);
    maybe_maintain();
    // Reuse the buffer maintenance returned; a missing spare means the
    // writer out-ran the return channel — allocate and count the stall.
    Buffer* next = w.spare.exchange(nullptr, std::memory_order_acquire);
    if (next == nullptr) {
      ++w.stalls;
      next = new_buffer(&w);
    }
    w.cur = next;
  }

  /// Treiber push (release publishes the buffer contents to the owner's
  /// acquire pop). Push-only from writers — the consumer side takes the
  /// whole stack with one exchange, so there is no pop-side ABA window.
  void push_pending(Buffer* b) noexcept {
    Buffer* head = pending_.load(std::memory_order_relaxed);
    do {
      b->next = head;
    } while (!pending_.compare_exchange_weak(head, b,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
  }

  /// Try to become the maintenance owner; never blocks. If the flag is
  /// already held the current holder (or the next handoff, or the query
  /// drain) will pick the pushed buffer up. After releasing, re-check the
  /// stack: a buffer pushed between the final drain and the release would
  /// otherwise strand until the next handoff, so loop and re-acquire.
  void maybe_maintain() {
    for (;;) {
      if (maint_busy_.exchange(true, std::memory_order_acquire)) return;
      drain_pending();
      ++maintenance_rounds_;
      publish_psi();
      maint_busy_.store(false, std::memory_order_release);
      if (pending_.load(std::memory_order_relaxed) == nullptr) return;
    }
  }

  // ---- Maintenance-owner side (flag-serialized) -----------------------

  /// Take the whole pending stack and ingest every buffer on it, returning
  /// each to its writer.
  void drain_pending() {
    Buffer* list = pending_.exchange(nullptr, std::memory_order_acquire);
    while (list != nullptr) {
      Buffer* b = list;
      list = b->next;
      ingest(*b);
      release_buffer(b);
    }
  }

  void ingest(Buffer& b) {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kBufferHandoff);
    tm_.handoff_batches.inc();
    tm_.buffer_occupancy.record(b.items.size());
    ingested_ += b.items.size();
    core_.add_batch(std::span<const EntryT>(b.items));
    b.items.clear();
  }

  /// Return a drained buffer to its writer's spare slot; if the writer
  /// already holds a spare (it stalled and allocated), drop the extra so
  /// the buffer population stays ≈ 2 per writer.
  void release_buffer(Buffer* b) {
    Buffer* expected = nullptr;
    if (b->owner == nullptr ||
        !b->owner->spare.compare_exchange_strong(expected, b,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed)) {
      delete b;
    }
  }

  void publish_psi() {
    const Value t = core_.threshold();
    if (!(t > global_psi_.load(std::memory_order_relaxed))) return;
    [[maybe_unused]] telemetry::Span trace_span(telemetry::Stage::kPsiCas);
    std::uint64_t retries = 0;
    if (core::atomic_fetch_max(global_psi_, t, &retries)) ++psi_publishes_;
    psi_cas_retries_ += retries;
  }

  /// Full drain (writers quiescent): pending stack plus every writer's
  /// partial buffer, then one Ψ publish. The flag is still taken so the
  /// owner-side counters keep their single-writer discipline.
  void drain_all() {
    while (maint_busy_.exchange(true, std::memory_order_acquire)) {
    }
    drain_pending();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      for (auto& w : slots_) {
        if (w->cur != nullptr && !w->cur->items.empty()) ingest(*w->cur);
      }
    }
    publish_psi();
    maint_busy_.store(false, std::memory_order_release);
  }

  // ---- Slot registry --------------------------------------------------

  [[nodiscard]] Buffer* new_buffer(WriterSlot* w) const {
    Buffer* b = new Buffer;
    b->owner = w;
    b->items.reserve(buffer_cap_);
    return b;
  }

  [[nodiscard]] WriterSlot* register_slot() {
    auto slot = std::make_unique<WriterSlot>();
    WriterSlot* w = slot.get();
    // Allocated on the registering (writer) thread: the buffer pages are
    // first-touched by their owner, which on NUMA hosts places them on
    // the writer's node under the default first-touch policy.
    w->cur = new_buffer(w);
    std::lock_guard<std::mutex> lock(reg_mu_);
    slots_.push_back(std::move(slot));
    return w;
  }

  /// The calling thread's slot for this instance: a small thread-local
  /// (uid → slot) cache, registering on first use. Entries for destroyed
  /// instances go stale but are never dereferenced (uids are unique), and
  /// the cache is bounded by the instances a thread has ever written to.
  [[nodiscard]] WriterSlot& local_slot() {
    struct TlsCache {
      std::vector<std::pair<std::uint64_t, WriterSlot*>> map;
    };
    thread_local TlsCache tls;
    for (const auto& [uid, w] : tls.map) {
      if (uid == uid_) return *w;
    }
    WriterSlot* w = register_slot();
    tls.map.emplace_back(uid_, w);
    return *w;
  }

  template <typename Fn>
  [[nodiscard]] std::uint64_t sum_slots(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(reg_mu_);
    std::uint64_t n = 0;
    for (const auto& w : slots_) n += fn(*w);
    return n;
  }

  static void free_list(Buffer* list) noexcept {
    while (list != nullptr) {
      Buffer* b = list;
      list = b->next;
      delete b;
    }
  }

  Core core_;  // shared reservoir, touched only under the maintenance flag
  std::size_t buffer_cap_;
  std::uint64_t uid_;
  std::atomic<Value> global_psi_{kEmptyValue<Value>};
  std::atomic<Buffer*> pending_{nullptr};  // MPSC stack of full buffers
  std::atomic<bool> maint_busy_{false};    // maintenance ownership flag
  mutable std::mutex reg_mu_;              // slot registry only, never ingest
  std::vector<std::unique_ptr<WriterSlot>> slots_;
  // Aggregate bases folded in by restore (live slot counters add on top).
  std::uint64_t base_seen_ = 0;
  std::uint64_t base_screened_ = 0;
  std::uint64_t base_buffered_ = 0;
  std::uint64_t base_handoffs_ = 0;
  std::uint64_t base_stalls_ = 0;
  // Owner-side accounting (written under the maintenance flag only).
  std::uint64_t ingested_ = 0;  // items handed into the core
  std::uint64_t maintenance_rounds_ = 0;
  std::uint64_t psi_publishes_ = 0;
  std::uint64_t psi_cas_retries_ = 0;
  [[no_unique_address]] mutable Telemetry tm_;
};

}  // namespace qmax
