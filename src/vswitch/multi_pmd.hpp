// Multi-PMD virtual switch: the deployment shape of the paper's OVS
// integration ("we build one shared memory block for each PMD thread of
// OVS ... a user-space program reads the packet information from the
// shared memory blocks").
//
// This is the one way to run the switch, for any N ≥ 1 PMDs. N PMD
// threads each own a flow table (OVS keeps a per-PMD EMC *and* a per-PMD
// dpcls) and an SPSC monitor ring. Packets are dispatched to PMDs by RSS
// (flow-key hash), preserving per-flow ordering: PMD i hashes its
// contiguous 1/N slice of the call's packets into per-queue index lists,
// the PMDs meet at a barrier, and PMD j then forwards queue j by index,
// slice 0 first, so every flow keeps span order and no packet is copied.
// With N = 1 (the single-PMD switch of Figures 12-17) every packet maps
// to queue 0, so the one PMD forwards the span in order without hashing.
// M measurement threads — the user-space program — drain the rings,
// consumer j taking rings i ≡ j (mod M); each ring stays
// single-producer / single-consumer.
//
// Throughput semantics are those of vswitch.hpp: with backpressure on, a
// slow measurement consumer stalls whichever PMD fills its ring, dragging
// aggregate switch throughput — with N > 1, N producers contend for one
// consumer, the regime the paper's q = 10^7 cliffs live in.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/span.hpp"
#include "vswitch/vswitch.hpp"

namespace qmax::vswitch {

struct MultiPmdConfig {
  std::size_t pmd_threads = 2;
  SwitchConfig per_pmd{};
};

/// Gated instruments of one measurement consumer thread (no-ops unless
/// -DQMAX_TELEMETRY=ON). Plain fields written only by that consumer; the
/// records it drained are RunResult::records_drained of its rings.
struct MonitorTelemetry {
  telemetry::Histogram drain_batch;     // records per non-empty pop_batch
  telemetry::Histogram ring_occupancy;  // occupancy sampled per drain round
  telemetry::Counter empty_polls;       // rounds that found nothing to drain

  template <typename Fn>
  void visit(Fn&& fn) const {
    fn("drain_batch", drain_batch);
    fn("ring_occupancy", ring_occupancy);
    fn("empty_polls", empty_polls);
  }
};

struct MultiRunResult {
  std::vector<RunResult> per_pmd;
  std::uint64_t packets = 0;
  /// Wall-clock of the whole parallel section: RSS hashing plus
  /// forwarding, until the last PMD finishes.
  double seconds = 0.0;

  [[nodiscard]] double aggregate_mpps() const noexcept {
    return common::mops(packets, seconds);
  }
  /// Slowest / fastest individual PMD datapath rate: how lopsided the RSS
  /// partition left the producers. (Each PMD's own wall time, so on a
  /// time-shared host these rank PMDs against each other, not the wire.)
  [[nodiscard]] double min_pmd_mpps() const noexcept {
    double m = 0.0;
    bool first = true;
    for (const auto& r : per_pmd) {
      const double v = r.datapath_mpps();
      if (first || v < m) m = v;
      first = false;
    }
    return m;
  }
  [[nodiscard]] double max_pmd_mpps() const noexcept {
    double m = 0.0;
    for (const auto& r : per_pmd) {
      const double v = r.datapath_mpps();
      if (v > m) m = v;
    }
    return m;
  }
  /// max/min PMD rate; 1.0 = perfectly balanced, grows with imbalance.
  /// Returns 1.0 when degenerate (≤1 PMD, or an idle PMD measured 0).
  [[nodiscard]] double pmd_skew() const noexcept {
    const double lo = min_pmd_mpps();
    const double hi = max_pmd_mpps();
    return (per_pmd.size() > 1 && lo > 0.0) ? hi / lo : 1.0;
  }
  [[nodiscard]] double delivered_mpps(double line_rate_pps) const noexcept {
    const double dp = aggregate_mpps();
    const double line = line_rate_pps / 1e6;
    return dp < line ? dp : line;
  }
  [[nodiscard]] std::uint64_t total_stalls() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.backpressure_stalls;
    return n;
  }
  [[nodiscard]] std::uint64_t total_drops() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.records_dropped;
    return n;
  }
  [[nodiscard]] std::uint64_t total_drained() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.records_drained;
    return n;
  }
  /// Peak occupancy across every PMD's monitor ring.
  [[nodiscard]] std::uint64_t max_ring_occupancy() const noexcept {
    std::uint64_t m = 0;
    for (const auto& r : per_pmd) {
      if (r.ring_occupancy_max > m) m = r.ring_occupancy_max;
    }
    return m;
  }
  /// kGraceful aggregates across PMDs (0 under the other policies).
  [[nodiscard]] std::uint64_t total_shed_probabilistic() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.shed_probabilistic;
    return n;
  }
  [[nodiscard]] std::uint64_t total_shed_below_psi() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.shed_below_psi;
    return n;
  }
  [[nodiscard]] std::uint64_t total_watchdog_trips() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.watchdog_trips;
    return n;
  }
  /// Highest ladder level any PMD reached (DegradeState numeric value).
  [[nodiscard]] std::uint8_t degrade_peak() const noexcept {
    std::uint8_t m = 0;
    for (const auto& r : per_pmd) {
      if (r.degrade_peak > m) m = r.degrade_peak;
    }
    return m;
  }
};

class MultiPmdSwitch {
 public:
  explicit MultiPmdSwitch(MultiPmdConfig cfg = {}) : cfg_(cfg) {
    if (cfg_.pmd_threads == 0) cfg_.pmd_threads = 1;
    pmds_.reserve(cfg_.pmd_threads);
    for (std::size_t i = 0; i < cfg_.pmd_threads; ++i) {
      pmds_.push_back(std::make_unique<VirtualSwitch>(cfg_.per_pmd));
    }
    lists_.resize(cfg_.pmd_threads * cfg_.pmd_threads);
  }

  /// Install the same forwarding policy on every PMD's table.
  void install_default_rules(std::uint32_t buckets = 256) {
    for (auto& pmd : pmds_) pmd->install_default_rules(buckets);
  }

  [[nodiscard]] std::size_t pmd_count() const noexcept { return pmds_.size(); }
  [[nodiscard]] VirtualSwitch& pmd(std::size_t i) { return *pmds_.at(i); }

  /// RSS dispatch: which PMD owns this packet's flow. Real NIC RSS runs
  /// Toeplitz over the 5-tuple; we model it by finalizer-mixing the flow
  /// key (so low-entropy key bits spread over the whole word) and mapping
  /// to a PMD via Lemire fastrange, which unlike `% n` consumes the
  /// well-mixed HIGH bits. Per-flow stability is preserved: the index is
  /// a pure function of the flow key.
  [[nodiscard]] std::size_t rss(const trace::PacketRecord& p) const noexcept {
    __extension__ using u128 = unsigned __int128;
    const auto h = static_cast<u128>(common::mix64(p.tuple.flow_key()));
    return static_cast<std::size_t>((h * pmds_.size()) >> 64);
  }

  /// Forward with a single measurement consumer draining every PMD's
  /// ring. Called on the monitor thread, either per record as
  /// `consume(pmd_index, record)` or — when the consumer accepts a span —
  /// per drained batch as `consume(pmd_index, span)`, feeding whole ring
  /// pops to a reservoir's add_batch.
  template <typename Consumer>
  MultiRunResult forward_monitored(std::span<const trace::PacketRecord> packets,
                                   Consumer&& consume) {
    return run_monitored(packets, 1, consume);
  }

  /// Sharded measurement pipeline: one consumer thread PER ring instead
  /// of one monitor draining all of them. Consumer i drains only ring i
  /// and calls `consume(i, record)` / `consume(i, span)` — with a
  /// ShardedQMax behind the consumer this is the layout where shard i is
  /// single-writer by construction. Each ring remains SPSC and the only
  /// producer→consumer handoff beyond the ring itself is one done flag.
  template <typename Consumer>
  MultiRunResult forward_sharded(std::span<const trace::PacketRecord> packets,
                                 Consumer&& consume) {
    return run_monitored(packets, pmds_.size(), consume);
  }

  /// Concurrent measurement pipeline: M consumer threads over N rings,
  /// all feeding ONE shared reservoir through its any-thread add path
  /// (ConcurrentQMax). Consumer j drains exactly the rings i with
  /// i mod M == j, so every ring keeps a single consumer and stays SPSC;
  /// unlike forward_sharded the consumer count is decoupled from the PMD
  /// count — 8 PMDs can feed 2 measurement cores. A request for more
  /// consumers than rings (or for none) is clamped to [1, N].
  /// `consume` is called as `consume(ring_index, record)` or, when it
  /// accepts a span, `consume(ring_index, span)`; with a ConcurrentQMax
  /// behind it each consumer thread owns a thread-local admission buffer
  /// and no dispatch-by-key is needed.
  template <typename Consumer>
  MultiRunResult forward_concurrent(
      std::span<const trace::PacketRecord> packets,
      std::size_t consumer_threads, Consumer&& consume) {
    const std::size_t n = pmds_.size();
    const std::size_t m =
        consumer_threads == 0 ? 1 : (consumer_threads < n ? consumer_threads
                                                          : n);
    return run_monitored(packets, m, consume);
  }

  /// Consumer-side instruments, one pack per consumer thread j of the
  /// monitored runs (forward_monitored's single monitor is entry 0),
  /// accumulated over runs. Empty until the first monitored run; entry j
  /// is written only by consumer j.
  [[nodiscard]] std::size_t consumer_count() const noexcept {
    return consumer_tm_.size();
  }
  [[nodiscard]] const MonitorTelemetry& consumer_telemetry(
      std::size_t j) const {
    return *consumer_tm_.at(j);
  }

  /// Forward without monitoring (the vanilla baseline).
  MultiRunResult forward(std::span<const trace::PacketRecord> packets) {
    MultiRunResult res;
    run_pmds(packets, nullptr, res, [] {});
    return res;
  }

 private:
  /// Runs the PMD threads over `packets` and `alongside()` on the calling
  /// thread meanwhile; returns once every PMD has finished, with
  /// res.seconds set. PMD i hashes slice i into lists_[q * n + i] for
  /// each queue q, waits for the others, then forwards queue i — into
  /// rings_[i] when `done` is set, raising done[i] afterwards. A lone PMD
  /// skips the hashing and forwards the whole span in order.
  template <typename Alongside>
  void run_pmds(std::span<const trace::PacketRecord> packets,
                std::atomic<bool>* done, MultiRunResult& res,
                Alongside&& alongside) {
    if (packets.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error(
          "MultiPmdSwitch: a call forwards at most 2^32 - 1 packets");
    }
    const std::size_t n = pmds_.size();
    res.per_pmd.resize(n);
    res.packets = packets.size();
    std::barrier<> hashed(static_cast<std::ptrdiff_t>(n));
    common::Stopwatch wall;
    std::vector<std::thread> pmd_threads;
    pmd_threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pmd_threads.emplace_back([&, i] {
        std::span<const RxIndexList> queue;  // empty: the whole span
        if (n > 1) {
          const std::size_t begin = packets.size() * i / n;
          const std::size_t end = packets.size() * (i + 1) / n;
          for (std::size_t q = 0; q < n; ++q) lists_[q * n + i].idx.clear();
          for (std::size_t k = begin; k < end; ++k) {
            lists_[rss(packets[k]) * n + i].idx.push_back(
                static_cast<std::uint32_t>(k));
          }
          hashed.arrive_and_wait();
          queue = std::span<const RxIndexList>(lists_).subspan(i * n, n);
        }
        pmds_[i]->run_datapath(packets, queue,
                               done != nullptr ? rings_[i].get() : nullptr,
                               res.per_pmd[i]);
        if (done != nullptr) done[i].store(true, std::memory_order_release);
      });
    }
    alongside();
    for (auto& t : pmd_threads) t.join();
    res.seconds = wall.seconds();
  }

  /// The one monitored pipeline: m consumer threads over the n rings,
  /// consumer j draining rings i ≡ j (mod m) into `consume` and
  /// reporting into consumer_tm_[j]. Rings and telemetry packs are built
  /// by the first call that needs them and reused: every call returns
  /// with every ring drained.
  template <typename Consumer>
  MultiRunResult run_monitored(std::span<const trace::PacketRecord> packets,
                               std::size_t m, Consumer& consume) {
    // One pack per consumer: the instruments are single-writer plain
    // fields, so concurrent consumers must never share one.
    while (consumer_tm_.size() < m) {
      consumer_tm_.push_back(std::make_unique<MonitorTelemetry>());
    }
    const std::size_t n = pmds_.size();
    while (rings_.size() < n) {
      rings_.push_back(std::make_unique<SpscRing<MonitorRecord>>(
          cfg_.per_pmd.ring_capacity));
    }
    MultiRunResult res;
    std::vector<std::atomic<bool>> done(n);
    // Consumer-side per-ring gauges: ring i has the one consumer i mod m,
    // so each entry keeps a single writer; published into res.per_pmd
    // after the joins (which order the writes).
    std::vector<std::uint64_t> occ_max(n, 0);
    std::vector<std::uint64_t> drain_batches(n, 0);
    std::vector<std::uint64_t> drained(n, 0);

    std::vector<std::thread> consumers;
    consumers.reserve(m);
    run_pmds(packets, done.data(), res, [&] {
      for (std::size_t j = 0; j < m; ++j) {
        consumers.emplace_back([&, j] {
          MonitorRecord batch[64];
          MonitorTelemetry& tm = *consumer_tm_[j];
          for (;;) {
            bool any = false;
            bool finished = true;
            for (std::size_t i = j; i < n; i += m) {
              SpscRing<MonitorRecord>& ring = *rings_[i];
              const std::size_t occ = ring.size_approx();
              const std::size_t got = ring.pop_batch(batch, 64);
              if (got == 0) {
                // done[i] is read before the emptiness check, so a ring
                // seen empty after its producer finished stays empty.
                finished = finished &&
                           done[i].load(std::memory_order_acquire) &&
                           ring.empty_approx();
                continue;
              }
              {
                [[maybe_unused]] telemetry::Span drain_span(
                    telemetry::Stage::kRingDrain);
                if constexpr (std::is_invocable_v<
                                  Consumer&, std::size_t,
                                  std::span<const MonitorRecord>>) {
                  consume(i, std::span<const MonitorRecord>(batch, got));
                } else {
                  for (std::size_t k = 0; k < got; ++k) consume(i, batch[k]);
                }
              }
              ++drain_batches[i];
              drained[i] += got;
              if (occ > occ_max[i]) occ_max[i] = occ;
              tm.drain_batch.record(got);
              tm.ring_occupancy.record(occ);
              any = true;
            }
            if (any) continue;
            tm.empty_polls.inc();
            if (finished) break;
            std::this_thread::yield();
          }
        });
      }
    });
    for (auto& t : consumers) t.join();
    for (std::size_t i = 0; i < n; ++i) {
      res.per_pmd[i].ring_capacity = rings_[i]->capacity();
      res.per_pmd[i].ring_occupancy_max = occ_max[i];
      res.per_pmd[i].drain_batches = drain_batches[i];
      res.per_pmd[i].records_drained = drained[i];
    }
    return res;
  }

  MultiPmdConfig cfg_;
  std::vector<std::unique_ptr<VirtualSwitch>> pmds_;
  std::vector<RxIndexList> lists_;  // n × n, queue-major
  std::vector<std::unique_ptr<SpscRing<MonitorRecord>>> rings_;
  std::vector<std::unique_ptr<MonitorTelemetry>> consumer_tm_;
};

}  // namespace qmax::vswitch
