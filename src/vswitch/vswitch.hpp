// The virtual switch: a software datapath modelled on the OVS/DPDK
// userspace pipeline the paper integrates q-MAX into (Section 6.6).
//
// A VirtualSwitch is one PMD: a poll loop that pulls packets in bursts,
// runs the two-tier flow table lookup (EMC → tuple-space classifier),
// executes the action, and — when monitoring is attached — stages a
// MonitorRecord (source IP, packet id, packet size: exactly the fields the
// paper's OVS patch records) per packet and publishes each burst's records
// into an SPSC shared-memory ring. MultiPmdSwitch (multi_pmd.hpp) runs
// n ≥ 1 of them, owns the rings and runs the measurement threads that
// drain them; the single-PMD switch of Figures 12-17 is n = 1.
//
// Throughput semantics: with backpressure enabled (default, matching the
// paper's observed behaviour) the PMD blocks when the ring is full, so a
// measurement algorithm slower than the packet rate drags the switch below
// line rate — this coupling is precisely what Figures 12-17 measure. The
// reported throughput is min(datapath rate, line rate) where the line rate
// follows the Ethernet wire model in trace/packet.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "trace/packet.hpp"
#include "vswitch/flow_table.hpp"
#include "vswitch/ring_buffer.hpp"

namespace qmax::vswitch {

/// What the datapath hands to the measurement program per packet
/// ("the source IP address, packet ID, and packet size of selected
/// packets" — paper, Section 6).
struct MonitorRecord {
  std::uint32_t src_ip = 0;
  std::uint32_t length = 0;
  std::uint64_t packet_id = 0;
};

/// How the PMD reacts when the monitor ring is full.
enum class OverloadPolicy : std::uint8_t {
  /// Spin until a slot frees (the regime the paper evaluates: a slow
  /// measurement consumer visibly drags the switch below line rate).
  /// A consumer that stops entirely blocks the PMD forever.
  kBackpressure,
  /// Drop the record immediately: lossy monitoring, full switch rate.
  kDrop,
  /// Escalating ladder: bounded backpressure → probabilistic shedding →
  /// shed-below-Ψ, with a watchdog that detects a *stalled* (not merely
  /// slow) consumer and degrades instead of deadlocking.
  kGraceful,
};

/// Position on the kGraceful degradation ladder, ordered by severity.
enum class DegradeState : std::uint8_t {
  kNormal = 0,             // ring accepting, no overload observed
  kBackpressure = 1,       // bounded spinning on a full ring
  kShedProbabilistic = 2,  // every shed_period-th record is dropped
  kShedBelowPsi = 3,       // records at or below the published Ψ dropped
  kWatchdog = 4,           // consumer stalled: drop until it moves again
};

[[nodiscard]] constexpr const char* to_string(DegradeState s) noexcept {
  switch (s) {
    case DegradeState::kNormal: return "normal";
    case DegradeState::kBackpressure: return "backpressure";
    case DegradeState::kShedProbabilistic: return "shed_probabilistic";
    case DegradeState::kShedBelowPsi: return "shed_below_psi";
    case DegradeState::kWatchdog: return "watchdog";
  }
  return "?";
}

/// Static-storage trace-event names for ladder movement (span.hpp's
/// instant() requires literal lifetime), keyed by the state ENTERED. The
/// up/down distinction is in the name so a degradation episode reads
/// directly off the exported trace timeline.
[[nodiscard]] constexpr const char* ladder_enter_name(DegradeState s) noexcept {
  switch (s) {
    case DegradeState::kNormal: return "ladder:enter_normal";
    case DegradeState::kBackpressure: return "ladder:enter_backpressure";
    case DegradeState::kShedProbabilistic:
      return "ladder:enter_shed_probabilistic";
    case DegradeState::kShedBelowPsi: return "ladder:enter_shed_below_psi";
    case DegradeState::kWatchdog: return "ladder:enter_watchdog";
  }
  return "ladder:enter_?";
}

[[nodiscard]] constexpr const char* ladder_exit_name(DegradeState to) noexcept {
  switch (to) {
    case DegradeState::kNormal: return "ladder:deescalate_to_normal";
    case DegradeState::kBackpressure:
      return "ladder:deescalate_to_backpressure";
    case DegradeState::kShedProbabilistic:
      return "ladder:deescalate_to_shed_probabilistic";
    case DegradeState::kShedBelowPsi:
      return "ladder:deescalate_to_shed_below_psi";
    case DegradeState::kWatchdog: return "ladder:deescalate_to_watchdog";
  }
  return "ladder:deescalate_to_?";
}

/// Packets one RSS queue receives from one hashing slice of a multi-PMD
/// forward_* call: indices into that call's packet span, in span order.
/// Each list sits on its own cache line, so the PMDs filling neighbouring
/// lists never write to a shared line.
struct alignas(64) RxIndexList {
  std::vector<std::uint32_t> idx;
};

struct SwitchConfig {
  std::size_t ring_capacity = 1 << 16;
  /// Full-ring policy; see OverloadPolicy. kBackpressure matches the
  /// paper's observed behaviour and stays the default.
  OverloadPolicy policy = OverloadPolicy::kBackpressure;
  std::size_t emc_entries = 8192;
  std::size_t rx_burst = 32;

  // --- kGraceful tuning (ignored by the other policies) ---
  /// Yields spent waiting at one ladder level before escalating.
  std::size_t bp_spin_budget = 256;
  /// Probabilistic state: every shed_period-th record is shed. 0 skips
  /// the state entirely (escalate straight to shed-below-Ψ), which keeps
  /// the retained top-q exactly equal to the backpressure run's.
  std::uint64_t shed_period = 8;
  /// De-escalate one level whenever ring occupancy falls below this
  /// fraction of capacity.
  double deescalate_watermark = 0.5;
  /// Consecutive yields with a frozen consumer cursor before the
  /// watchdog declares the consumer stalled (uses the ring's
  /// consumer_cursor() as the liveness probe).
  std::size_t watchdog_spin_budget = 100'000;
  /// Shed-below-Ψ inputs: the measurement consumer publishes its
  /// admission bound into *psi_source and record_value maps a record to
  /// the value the reservoir would see. Ψ is monotone, so the published
  /// (lagging) bound is always ≤ the live one and a shed record is one
  /// the reservoir was guaranteed to reject — the retained top q is
  /// unchanged. When either is unset the state sheds every record
  /// (plain load shedding).
  const std::atomic<double>* psi_source = nullptr;
  double (*record_value)(const MonitorRecord&) = nullptr;
};

struct RunResult {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  /// Records not handed to the monitor, for any reason: kDrop-mode drops
  /// plus every kGraceful shed/watchdog drop (the three counters below).
  std::uint64_t records_dropped = 0;
  /// Full-ring waits: one per rx burst that found the ring full under
  /// kBackpressure, one per such record under kGraceful.
  std::uint64_t backpressure_stalls = 0;
  // kGraceful breakdown of records_dropped, plus ladder movement.
  std::uint64_t shed_probabilistic = 0;  // every-k shedding
  std::uint64_t shed_below_psi = 0;      // Ψ-filtered shedding
  std::uint64_t watchdog_drops = 0;      // dropped while consumer stalled
  std::uint64_t watchdog_trips = 0;      // stall detections
  std::uint64_t degrade_transitions = 0; // upward ladder moves
  std::uint64_t deescalations = 0;       // downward ladder moves
  std::uint8_t degrade_peak = 0;         // highest DegradeState reached
  std::uint64_t forwarded = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t upcalls = 0;
  // Monitor-ring visibility (filled only by monitored runs; the consumer
  // samples once per drain round, so these cost nothing per packet).
  std::uint64_t ring_capacity = 0;
  std::uint64_t ring_occupancy_max = 0;
  std::uint64_t drain_batches = 0;
  std::uint64_t records_drained = 0;

  /// Raw datapath rate (Mpps) — how fast the PMD loop actually ran.
  [[nodiscard]] double datapath_mpps() const noexcept {
    return common::mops(packets, seconds);
  }
  /// Throughput capped by the physical line (Mpps): the switch cannot
  /// forward faster than packets arrive on the wire.
  [[nodiscard]] double delivered_mpps(double line_rate_pps) const noexcept {
    const double dp = datapath_mpps();
    const double line = line_rate_pps / 1e6;
    return dp < line ? dp : line;
  }
  /// Delivered rate expressed in Gbps for a given mean wire size.
  [[nodiscard]] double delivered_gbps(double line_rate_pps,
                                      double mean_wire_bytes) const noexcept {
    return delivered_mpps(line_rate_pps) * 1e6 * mean_wire_bytes * 8.0 / 1e9;
  }
  /// Records handed to the monitor ring (monitored runs only).
  [[nodiscard]] std::uint64_t records_enqueued() const noexcept {
    return packets - records_dropped;
  }
  /// Peak ring occupancy as a fraction of capacity.
  [[nodiscard]] double ring_occupancy_peak_frac() const noexcept {
    return ring_capacity == 0 ? 0.0
                              : static_cast<double>(ring_occupancy_max) /
                                    static_cast<double>(ring_capacity);
  }
};

class VirtualSwitch {
 public:
  explicit VirtualSwitch(SwitchConfig cfg = {});

  [[nodiscard]] FlowTable& table() noexcept { return table_; }
  [[nodiscard]] const SwitchConfig& config() const noexcept { return cfg_; }

  /// The ofproto-style slow path: invoked on a full table miss; the
  /// returned action is installed as an exact-match rule (and cached in
  /// the EMC), so subsequent packets of the flow take the fast path —
  /// OVS's first-packet upcall behaviour. Without a handler, misses are
  /// counted and the packet is dropped.
  using UpcallHandler = std::function<Action(const trace::FiveTuple&)>;
  void set_upcall_handler(UpcallHandler handler) {
    upcall_ = std::move(handler);
  }

  /// Install a forwarding policy covering the whole flow space: `buckets`
  /// rules matching the low bits of the source IP (wildcarding the rest),
  /// each directing to a distinct output port. Guarantees every generated
  /// packet resolves without an upcall, as in the paper's steady-state
  /// measurement interval.
  void install_default_rules(std::uint32_t buckets = 256);

  /// The PMD poll loop: forward the packets `queue` indexes, list by list,
  /// or all of `packets` in order when `queue` is empty, one rx burst at a
  /// time, publishing each burst's records into `ring` under the
  /// configured policy (null: unmonitored). One kGraceful ladder context
  /// spans the call. Adds the run's counts into `res` and sets res.seconds
  /// to the loop's wall time. MultiPmdSwitch calls this on each PMD thread
  /// and runs the consumers that drain the rings.
  void run_datapath(std::span<const trace::PacketRecord> packets,
                    std::span<const RxIndexList> queue,
                    SpscRing<MonitorRecord>* ring, RunResult& res);

 private:
  /// Per-run state of the kGraceful ladder (one PMD loop owns one).
  struct GracefulCtx {
    DegradeState state = DegradeState::kNormal;
    std::uint64_t tick = 0;          // probabilistic shed counter
    std::uint64_t last_cursor = 0;   // consumer cursor at last progress
    std::size_t frozen_spins = 0;    // yields since the cursor moved
    std::size_t watermark_slots = 0; // de-escalation occupancy threshold
  };

  /// Forward `n` packets, `at(k)` being the k-th, one rx burst at a time,
  /// staging each burst's records and handing them to enqueue_burst.
  template <typename At>
  void forward_bursts(std::size_t n, At&& at, SpscRing<MonitorRecord>* ring,
                      GracefulCtx& g, RunResult& res);

  /// Publish one burst's staged records under the configured policy.
  void enqueue_burst(std::size_t n, SpscRing<MonitorRecord>& ring,
                     GracefulCtx& g, RunResult& res);

  /// kGraceful enqueue of one record: shed/drop decisions, bounded
  /// spinning, ladder movement. Never blocks indefinitely.
  void graceful_enqueue(const MonitorRecord& rec, SpscRing<MonitorRecord>& ring,
                        GracefulCtx& g, RunResult& res);

  /// Drop `rec` if the ladder's shed state says so: in kShedBelowPsi a
  /// record at or below the published Ψ, in kShedProbabilistic every
  /// shed_period-th record. Returns whether it was dropped.
  [[nodiscard]] bool try_shed(const MonitorRecord& rec, GracefulCtx& g,
                              RunResult& res) const noexcept;

  void escalate(GracefulCtx& g, DegradeState to, RunResult& res) noexcept;
  void maybe_deescalate(const SpscRing<MonitorRecord>& ring, GracefulCtx& g,
                        RunResult& res) noexcept;
  [[nodiscard]] bool shed_below_psi(const MonitorRecord& rec) const noexcept;

  SwitchConfig cfg_;
  FlowTable table_;
  UpcallHandler upcall_;
  std::uint64_t tx_counts_[256] = {};
  std::vector<MonitorRecord> staged_;  // one rx burst's records
};

}  // namespace qmax::vswitch
