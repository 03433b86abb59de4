#include "vswitch/vswitch.hpp"

#include <thread>

#include "telemetry/span.hpp"

namespace qmax::vswitch {

VirtualSwitch::VirtualSwitch(SwitchConfig cfg)
    : cfg_(cfg), table_(cfg.emc_entries),
      staged_(cfg.rx_burst == 0 ? 1 : cfg.rx_burst) {}

void VirtualSwitch::install_default_rules(std::uint32_t buckets) {
  // One subtable: match the low bits of src_ip, wildcard everything else.
  std::uint32_t mask_bits = 1;
  while (mask_bits < buckets) mask_bits <<= 1;
  FlowMask mask;
  mask.src_ip = mask_bits - 1;
  mask.dst_ip = 0;
  mask.src_port = 0;
  mask.dst_port = 0;
  mask.proto = 0;
  for (std::uint32_t b = 0; b < mask_bits; ++b) {
    trace::FiveTuple match;
    match.src_ip = b;
    table_.add_rule(mask, match,
                    Action{static_cast<std::uint16_t>(b & 0xFF)});
  }
}

template <typename At>
void VirtualSwitch::forward_bursts(std::size_t n, At&& at,
                                   SpscRing<MonitorRecord>* ring,
                                   GracefulCtx& g, RunResult& res) {
  const std::size_t burst = staged_.size();
  for (std::size_t i = 0; i < n;) {
    const std::size_t end = i + burst < n ? i + burst : n;
    std::size_t staged = 0;
    for (; i < end; ++i) {
      const trace::PacketRecord& p = at(i);
      if (auto act = table_.lookup(p.tuple)) {
        ++tx_counts_[act->out_port & 0xFF];
        ++res.forwarded;
      } else if (upcall_) {
        // First-packet slow path: consult ofproto, install the decision.
        ++res.upcalls;
        const Action act2 = upcall_(p.tuple);
        table_.add_rule(FlowMask{}, p.tuple, act2);  // exact-match rule
        ++tx_counts_[act2.out_port & 0xFF];
        ++res.forwarded;
      } else {
        ++res.table_misses;
      }
      res.bytes += p.length;
      ++res.packets;
      if (ring != nullptr) {
        staged_[staged++] =
            MonitorRecord{p.tuple.src_ip, p.length, p.packet_id};
      }
    }
    if (ring != nullptr) enqueue_burst(staged, *ring, g, res);
  }
}

void VirtualSwitch::run_datapath(std::span<const trace::PacketRecord> packets,
                                 std::span<const RxIndexList> queue,
                                 SpscRing<MonitorRecord>* ring,
                                 RunResult& res) {
  common::Stopwatch sw;
  // Count into a copy on this thread's stack: the PMDs' RunResults sit
  // side by side in one vector, and per-packet updates in place would
  // put neighbouring PMDs' counters on shared cache lines.
  RunResult local = res;
  GracefulCtx g;
  if (ring != nullptr && cfg_.policy == OverloadPolicy::kGraceful) {
    double frac = cfg_.deescalate_watermark;
    if (!(frac >= 0.0)) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    g.watermark_slots = static_cast<std::size_t>(
        frac * static_cast<double>(ring->capacity()));
  }
  if (queue.empty()) {
    forward_bursts(
        packets.size(),
        [&](std::size_t k) -> const auto& { return packets[k]; }, ring, g,
        local);
  }
  for (const RxIndexList& list : queue) {
    const std::uint32_t* idx = list.idx.data();
    forward_bursts(
        list.idx.size(),
        [&](std::size_t k) -> const auto& { return packets[idx[k]]; }, ring, g,
        local);
  }
  local.seconds = sw.seconds();
  res = local;
}

void VirtualSwitch::enqueue_burst(std::size_t n, SpscRing<MonitorRecord>& ring,
                                  GracefulCtx& g, RunResult& res) {
  const MonitorRecord* recs = staged_.data();
  switch (cfg_.policy) {
    case OverloadPolicy::kBackpressure: {
      std::size_t pushed = ring.push_batch(recs, n);
      if (pushed < n) {
        ++res.backpressure_stalls;
        [[maybe_unused]] telemetry::Span stall_span(
            telemetry::Stage::kRingPushStall);
        do {
          // Share the core with the monitor thread while waiting.
          std::this_thread::yield();
          pushed += ring.push_batch(recs + pushed, n - pushed);
        } while (pushed < n);
      }
      break;
    }
    case OverloadPolicy::kDrop:
      res.records_dropped += n - ring.push_batch(recs, n);
      break;
    case OverloadPolicy::kGraceful:
      // The ladder decides per record: it may shed one and push the next.
      for (std::size_t k = 0; k < n; ++k) {
        graceful_enqueue(recs[k], ring, g, res);
      }
      break;
  }
}

void VirtualSwitch::escalate(GracefulCtx& g, DegradeState to,
                             RunResult& res) noexcept {
  g.state = to;
  telemetry::instant(telemetry::Stage::kOverload, ladder_enter_name(to));
  const auto level = static_cast<std::uint8_t>(to);
  if (level > res.degrade_peak) res.degrade_peak = level;
  ++res.degrade_transitions;
}

void VirtualSwitch::maybe_deescalate(const SpscRing<MonitorRecord>& ring,
                                     GracefulCtx& g, RunResult& res) noexcept {
  // The watchdog state is exited only by observed consumer progress
  // (graceful_enqueue's cursor probe), never by occupancy: a stalled
  // consumer leaves the ring full, but a drained-then-stalled one must
  // not bounce back to shedding-free states.
  if (g.state == DegradeState::kNormal || g.state == DegradeState::kWatchdog) {
    return;
  }
  if (ring.size_approx() < g.watermark_slots) {
    g.state = static_cast<DegradeState>(static_cast<std::uint8_t>(g.state) - 1);
    // Skip the probabilistic state on the way down when it is disabled.
    if (g.state == DegradeState::kShedProbabilistic && cfg_.shed_period == 0) {
      g.state = DegradeState::kBackpressure;
    }
    telemetry::instant(telemetry::Stage::kOverload,
                       ladder_exit_name(g.state));
    ++res.deescalations;
  }
}

bool VirtualSwitch::shed_below_psi(const MonitorRecord& rec) const noexcept {
  if (cfg_.psi_source == nullptr || cfg_.record_value == nullptr) {
    return true;  // no Ψ plumbing: behave as plain load shedding
  }
  const double psi = cfg_.psi_source->load(std::memory_order_relaxed);
  // Shed exactly the records the reservoir would reject (admission
  // requires value > Ψ; the published Ψ lags the live one from below).
  return !(cfg_.record_value(rec) > psi);
}

bool VirtualSwitch::try_shed(const MonitorRecord& rec, GracefulCtx& g,
                             RunResult& res) const noexcept {
  if (g.state == DegradeState::kShedBelowPsi && shed_below_psi(rec)) {
    ++res.shed_below_psi;
  } else if (g.state == DegradeState::kShedProbabilistic &&
             cfg_.shed_period != 0 && ++g.tick % cfg_.shed_period == 0) {
    ++res.shed_probabilistic;
  } else {
    return false;
  }
  ++res.records_dropped;
  return true;
}

void VirtualSwitch::graceful_enqueue(const MonitorRecord& rec,
                                     SpscRing<MonitorRecord>& ring,
                                     GracefulCtx& g, RunResult& res) {
  maybe_deescalate(ring, g, res);

  if (g.state == DegradeState::kWatchdog) {
    const std::uint64_t cur = ring.consumer_cursor();
    if (cur == g.last_cursor) {
      // Consumer still frozen: never block behind it.
      ++res.records_dropped;
      ++res.watchdog_drops;
      return;
    }
    // Consumer moved again: resume one level down and fall through.
    g.last_cursor = cur;
    g.frozen_spins = 0;
    g.state = DegradeState::kShedBelowPsi;
    telemetry::instant(telemetry::Stage::kOverload,
                       ladder_exit_name(g.state));
    ++res.deescalations;
  }
  if (try_shed(rec, g, res)) return;

  if (ring.try_push(rec)) return;
  // Full ring: spin (bounded) under a single stall span so the whole wait
  // — however many ladder moves it spans — is one trace event.
  [[maybe_unused]] telemetry::Span stall_span(
      telemetry::Stage::kRingPushStall);
  bool stalled = false;
  std::size_t spins = 0;
  do {
    if (!stalled) {
      stalled = true;
      ++res.backpressure_stalls;
      if (g.state == DegradeState::kNormal) {
        escalate(g, DegradeState::kBackpressure, res);
      }
    }
    std::this_thread::yield();

    // Watchdog probe: a cursor frozen across the whole spin budget means
    // the consumer is stalled, not slow — drop rather than deadlock.
    const std::uint64_t cur = ring.consumer_cursor();
    if (cur != g.last_cursor) {
      g.last_cursor = cur;
      g.frozen_spins = 0;
    } else if (++g.frozen_spins >= cfg_.watchdog_spin_budget) {
      ++res.watchdog_trips;
      escalate(g, DegradeState::kWatchdog, res);
      g.frozen_spins = 0;
      ++res.records_dropped;
      ++res.watchdog_drops;
      return;
    }

    if (++spins >= cfg_.bp_spin_budget &&
        g.state < DegradeState::kShedBelowPsi) {
      spins = 0;
      const DegradeState next =
          (g.state < DegradeState::kShedProbabilistic && cfg_.shed_period != 0)
              ? DegradeState::kShedProbabilistic
              : DegradeState::kShedBelowPsi;
      escalate(g, next, res);
      // The freshly entered shed state applies to this record too —
      // otherwise a full ring with a slow consumer still blocks on it.
      if (try_shed(rec, g, res)) return;
    }
  } while (!ring.try_push(rec));
}

}  // namespace qmax::vswitch
