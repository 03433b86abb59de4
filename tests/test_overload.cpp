// Graceful overload degradation: the three full-ring policies complete
// under overload, the kGraceful ladder escalates and de-escalates, the
// watchdog breaks a stalled-consumer deadlock, and shed-below-Ψ mode
// retains exactly the backpressure run's top q. Each run is a one-PMD
// MultiPmdSwitch.
#include "vswitch/multi_pmd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "qmax/qmax.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace qmax::vswitch;
using qmax::trace::MinSizePacketGenerator;
using qmax::trace::take_packets;

/// The value a record contributes to the reservoir — must match what the
/// switch's shed filter computes (SwitchConfig::record_value).
double record_value(const MonitorRecord& rec) {
  return qmax::common::to_unit_interval(qmax::common::hash64(rec.packet_id));
}

/// Slow reservoir consumer that publishes Ψ, like the bench monitors.
/// The burn is sized so one 64-record drain window dwarfs the producer's
/// spin budget — the ladder must actually climb.
struct SlowMonitor {
  qmax::QMax<std::uint32_t, double> reservoir;
  std::atomic<double> psi_pub{std::numeric_limits<double>::lowest()};
  int burn = 5'000;

  void operator()(std::size_t, const MonitorRecord& rec) {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < burn; ++i) sink = sink + rec.length * i;
    reservoir.add(rec.src_ip, record_value(rec));
    psi_pub.store(reservoir.threshold(), std::memory_order_relaxed);
  }
};

/// Sorted (value, id) pairs of the reservoir's top q, for exact
/// run-to-run comparison.
std::vector<std::pair<double, std::uint32_t>> sorted_query(
    const qmax::QMax<std::uint32_t, double>& r) {
  std::vector<std::pair<double, std::uint32_t>> out;
  for (const auto& e : r.query()) out.emplace_back(e.val, e.id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Overload, AllPoliciesCompleteUnderOverload) {
  MinSizePacketGenerator gen(1'000, 11);
  const auto packets = take_packets(gen, 30'000);
  for (OverloadPolicy policy :
       {OverloadPolicy::kBackpressure, OverloadPolicy::kDrop,
        OverloadPolicy::kGraceful}) {
    SwitchConfig cfg;
    cfg.ring_capacity = 256;  // tiny ring: overload builds immediately
    cfg.policy = policy;
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
    sw.install_default_rules();

    std::atomic<std::uint64_t> received{0};
    const auto run = sw.forward_monitored(
        packets, [&](std::size_t, const MonitorRecord& r) {
          volatile std::uint64_t sink = 0;
          for (int i = 0; i < 300; ++i) sink = sink + r.length * i;
          received.fetch_add(1, std::memory_order_relaxed);
        });
    const RunResult& res = run.per_pmd[0];
    EXPECT_EQ(res.packets, packets.size()) << to_string(DegradeState{});
    EXPECT_EQ(received.load() + res.records_dropped, packets.size())
        << "policy " << static_cast<int>(policy)
        << ": accepted + dropped must account for every packet";
    if (policy == OverloadPolicy::kBackpressure) {
      EXPECT_EQ(res.records_dropped, 0u);
    }
  }
}

TEST(Overload, GracefulLadderEscalatesAndAccounts) {
  SwitchConfig cfg;
  cfg.ring_capacity = 64;
  cfg.policy = OverloadPolicy::kGraceful;
  cfg.bp_spin_budget = 32;
  cfg.shed_period = 4;  // probabilistic state enabled
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 12);
  const auto packets = take_packets(gen, 30'000);

  std::atomic<std::uint64_t> received{0};
  bool first = true;  // monitor thread only
  const auto run = sw.forward_monitored(
      packets, [&](std::size_t, const MonitorRecord& r) {
        // Hold the first record until the PMD must have filled the ring:
        // a per-record spin alone is not slow next to an instrumented PMD.
        if (first) {
          first = false;
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 500; ++i) sink = sink + r.length * i;
        received.fetch_add(1, std::memory_order_relaxed);
      });
  const RunResult& res = run.per_pmd[0];

  EXPECT_EQ(received.load() + res.records_dropped, packets.size());
  EXPECT_GT(res.degrade_transitions, 0u) << "ladder never engaged";
  EXPECT_GE(res.degrade_peak,
            static_cast<std::uint8_t>(DegradeState::kBackpressure));
  // Without Ψ plumbing the shed-below-Ψ state sheds every record, so the
  // breakdown must equal the total drop count.
  EXPECT_EQ(res.records_dropped, res.shed_probabilistic + res.shed_below_psi +
                                     res.watchdog_drops);
}

TEST(Overload, ShedBelowPsiMatchesBackpressureTopQ) {
  // The acceptance criterion: with Ψ plumbing wired and the probabilistic
  // state disabled, a graceful run sheds only records the reservoir was
  // guaranteed to reject (value ≤ published Ψ ≤ live Ψ, Ψ monotone), so
  // its retained top q is *identical* to the backpressure run's.
  MinSizePacketGenerator gen(2'000, 13);
  const auto packets = take_packets(gen, 40'000);
  const std::size_t q = 64;

  SlowMonitor bp_mon{qmax::QMax<std::uint32_t, double>(q, 0.25)};
  bp_mon.burn = 25'000;
  {
    SwitchConfig cfg;
    cfg.ring_capacity = 64;
    cfg.policy = OverloadPolicy::kBackpressure;
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
    sw.install_default_rules();
    sw.forward_monitored(packets, std::ref(bp_mon));
  }

  SlowMonitor gr_mon{qmax::QMax<std::uint32_t, double>(q, 0.25)};
  gr_mon.burn = 25'000;
  RunResult gr_res;
  {
    SwitchConfig cfg;
    cfg.ring_capacity = 64;
    cfg.policy = OverloadPolicy::kGraceful;
    // Each yield is a syscall costing microseconds, so the budget must be
    // small enough that a full-ring stall outlasts it even when yields
    // are slow — otherwise the ladder never climbs past backpressure.
    cfg.bp_spin_budget = 2;
    cfg.shed_period = 0;  // skip probabilistic: only Ψ-safe shedding
    // Watchdog drops are not Ψ-safe: a consumer descheduled for the
    // default budget would lose top records. This test is about
    // shed-below-Ψ; WatchdogBreaksStalledConsumerDeadlock covers the
    // watchdog.
    cfg.watchdog_spin_budget = SIZE_MAX;
    cfg.psi_source = &gr_mon.psi_pub;
    cfg.record_value = &record_value;
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
    sw.install_default_rules();
    gr_res = sw.forward_monitored(packets, std::ref(gr_mon)).per_pmd[0];
  }

  EXPECT_EQ(gr_res.shed_probabilistic, 0u);
  EXPECT_GT(gr_res.shed_below_psi, 0u)
      << "overload never engaged Ψ shedding — test is vacuous";
  EXPECT_EQ(gr_res.watchdog_drops, 0u);
  EXPECT_EQ(sorted_query(gr_mon.reservoir), sorted_query(bp_mon.reservoir))
      << "Ψ-safe shedding must not change the retained top q";

  // Cross-check against the trace oracle: top q of all record values.
  std::vector<double> oracle;
  oracle.reserve(packets.size());
  for (const auto& p : packets) {
    oracle.push_back(record_value(
        MonitorRecord{p.tuple.src_ip, p.length, p.packet_id}));
  }
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(q);
  std::sort(oracle.begin(), oracle.end());
  std::vector<double> got;
  for (const auto& [val, id] : sorted_query(gr_mon.reservoir)) {
    got.push_back(val);
  }
  EXPECT_EQ(got, oracle);
}

TEST(Overload, WatchdogBreaksStalledConsumerDeadlock) {
  // A consumer that freezes entirely would deadlock kBackpressure; the
  // graceful watchdog must detect the frozen cursor and drop instead.
  // Ψ plumbing reports every record above Ψ so shedding cannot bail the
  // PMD out — only the watchdog can.
  static std::atomic<double> never_psi{std::numeric_limits<double>::lowest()};
  SwitchConfig cfg;
  cfg.ring_capacity = 64;
  cfg.policy = OverloadPolicy::kGraceful;
  cfg.bp_spin_budget = 32;
  cfg.shed_period = 0;
  // Under a loaded scheduler each yield can cost milliseconds, so the
  // budget must be small enough that it fits inside one frozen window.
  cfg.watchdog_spin_budget = 100;
  cfg.psi_source = &never_psi;
  cfg.record_value = [](const MonitorRecord&) { return 1.0; };
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 14);
  const auto packets = take_packets(gen, 50'000);

  // Freeze 100 ms per record for the first thirty records. Most of those
  // land inside one pop_batch window, giving the watchdog a multi-second
  // contiguous frozen-cursor stretch even under a loaded scheduler.
  std::atomic<std::uint64_t> received{0};
  const auto run = sw.forward_monitored(
      packets, [&](std::size_t, const MonitorRecord&) {
        if (received.load(std::memory_order_relaxed) < 30) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        received.fetch_add(1, std::memory_order_relaxed);
      });
  const RunResult& res = run.per_pmd[0];

  EXPECT_EQ(res.packets, packets.size());
  EXPECT_GE(res.watchdog_trips, 1u) << "stall never detected";
  EXPECT_GT(res.watchdog_drops, 0u);
  EXPECT_EQ(received.load() + res.records_dropped, packets.size());
  EXPECT_EQ(res.degrade_peak,
            static_cast<std::uint8_t>(DegradeState::kWatchdog));
}

TEST(Overload, GracefulIdleConsumerStaysInNormalState) {
  // A fast consumer must leave the ladder untouched: no transitions, no
  // drops — kGraceful is free when there is no overload.
  SwitchConfig cfg;
  cfg.policy = OverloadPolicy::kGraceful;
  // Default 64k ring.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 15);
  const auto packets = take_packets(gen, 20'000);

  std::atomic<std::uint64_t> received{0};
  const auto run = sw.forward_monitored(
      packets, [&](std::size_t, const MonitorRecord&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });
  const RunResult& res = run.per_pmd[0];
  EXPECT_EQ(received.load(), packets.size());
  EXPECT_EQ(res.records_dropped, 0u);
  EXPECT_EQ(res.degrade_peak,
            static_cast<std::uint8_t>(DegradeState::kNormal));
  EXPECT_EQ(res.degrade_transitions, 0u);
  EXPECT_EQ(res.deescalations, 0u);
}

}  // namespace
