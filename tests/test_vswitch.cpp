// Virtual switch integration tests: the PMD loop, the monitor handoff,
// backpressure coupling, and end-to-end measurement through the switch,
// run on a one-PMD MultiPmdSwitch (the switch shape of Figures 12-17).
#include "vswitch/multi_pmd.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "qmax/qmax.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace qmax::vswitch;
using qmax::trace::MinSizePacketGenerator;
using qmax::trace::PacketRecord;
using qmax::trace::take_packets;

TEST(VirtualSwitch, ForwardsEverythingWithDefaultRules) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1});
  sw.install_default_rules(256);
  MinSizePacketGenerator gen(10'000, 1);
  auto packets = take_packets(gen, 50'000);
  const auto res = sw.forward(packets).per_pmd[0];
  EXPECT_EQ(res.packets, 50'000u);
  EXPECT_EQ(res.forwarded, 50'000u);
  EXPECT_EQ(res.table_misses, 0u);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.datapath_mpps(), 0.0);
}

TEST(VirtualSwitch, MissesWithoutRules) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1});  // no rules installed
  MinSizePacketGenerator gen(100, 2);
  auto packets = take_packets(gen, 1'000);
  const auto res = sw.forward(packets).per_pmd[0];
  EXPECT_EQ(res.table_misses, 1'000u);
  EXPECT_EQ(res.forwarded, 0u);
}

TEST(VirtualSwitch, UpcallInstallsRulesOnFirstPacket) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1});  // no preinstalled rules
  std::uint64_t upcall_count = 0;  // written on the PMD thread
  sw.pmd(0).set_upcall_handler([&](const qmax::trace::FiveTuple& t) {
    ++upcall_count;
    return Action{static_cast<std::uint16_t>(t.src_ip & 0xFF)};
  });
  MinSizePacketGenerator gen(100, 9);  // 100 flows, heavy reuse
  auto packets = take_packets(gen, 10'000);
  const auto res = sw.forward(packets).per_pmd[0];
  EXPECT_EQ(res.forwarded, 10'000u);
  EXPECT_EQ(res.table_misses, 0u);
  // One upcall per distinct 5-tuple, then fast-path hits.
  EXPECT_EQ(res.upcalls, upcall_count);
  EXPECT_LE(upcall_count, 100u);
  EXPECT_GT(upcall_count, 0u);
  const FlowTable& table = sw.pmd(0).table();
  EXPECT_GT(table.emc_hits() + table.classifier_hits(),
            10'000u - upcall_count - 1);
}

TEST(VirtualSwitch, MonitorReceivesEveryPacketInOrder) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 3);
  auto packets = take_packets(gen, 100'000);

  std::uint64_t received = 0;
  std::uint64_t expected_pid = 0;
  bool in_order = true;
  const auto run = sw.forward_monitored(
      packets, [&](std::size_t, const MonitorRecord& r) {
        in_order &= (r.packet_id == expected_pid);
        ++expected_pid;
        ++received;
      });
  const RunResult& res = run.per_pmd[0];
  EXPECT_EQ(res.packets, 100'000u);
  EXPECT_EQ(received, 100'000u);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(res.records_dropped, 0u);
}

TEST(VirtualSwitch, BackpressureThrottlesSlowConsumer) {
  SwitchConfig cfg;
  cfg.ring_capacity = 256;  // tiny ring so pressure builds fast
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 4);
  auto packets = take_packets(gen, 20'000);

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
        // Artificially slow consumer: burn some cycles per record.
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 200; ++i) sink = sink + r.length * i;
        received.fetch_add(1, std::memory_order_relaxed);
      });
  const RunResult& res = run.per_pmd[0];
  EXPECT_EQ(received.load(), 20'000u);  // nothing lost
  EXPECT_GT(res.backpressure_stalls, 0u) << "tiny ring must have filled";
  EXPECT_EQ(res.records_dropped, 0u);
}

TEST(VirtualSwitch, DropModeLosesRecordsButNotPackets) {
  SwitchConfig cfg;
  cfg.ring_capacity = 256;
  cfg.policy = OverloadPolicy::kDrop;
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 5);
  auto packets = take_packets(gen, 50'000);

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
  EXPECT_EQ(res.packets, 50'000u);
  EXPECT_GT(res.records_dropped, 0u);
  EXPECT_EQ(received.load() + res.records_dropped, 50'000u);
}

TEST(VirtualSwitch, QMaxMonitorSeesTopPacketsEndToEnd) {
  // Full pipeline: packets → switch → ring → q-MAX over packet sizes.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 1});
  sw.install_default_rules();
  qmax::trace::CaidaLikeGenerator gen;
  auto packets = take_packets(gen, 50'000);

  qmax::QMax<> reservoir(32, 0.25);
  sw.forward_monitored(packets, [&](std::size_t, const MonitorRecord& r) {
    reservoir.add(r.packet_id, double(r.length));
  });

  // Oracle: the 32 largest packet lengths in the trace.
  std::vector<double> lens;
  for (const auto& p : packets) lens.push_back(double(p.length));
  std::sort(lens.begin(), lens.end(), std::greater<>());
  lens.resize(32);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, lens);
}

TEST(VirtualSwitch, DeliveredRateIsCappedByLine) {
  RunResult res;
  res.packets = 10'000'000;
  res.seconds = 0.1;  // 100 Mpps datapath: impossible on 10G
  const double line = qmax::trace::line_rate_pps(10.0, 46);
  EXPECT_NEAR(res.delivered_mpps(line), 14.88, 0.01);
  res.seconds = 10.0;  // 1 Mpps: below line rate
  EXPECT_NEAR(res.delivered_mpps(line), 1.0, 0.01);
}

}  // namespace
