// Multi-PMD switch: RSS flow affinity, lossless multi-ring monitoring,
// and end-to-end measurement across PMDs.
#include "vswitch/multi_pmd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/timer.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace qmax::vswitch;
using qmax::trace::CaidaLikeGenerator;
using qmax::trace::MinSizePacketGenerator;
using qmax::trace::take_packets;

TEST(MultiPmd, ZeroThreadsClampsToOne) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 0});
  EXPECT_EQ(sw.pmd_count(), 1u);
}

TEST(MultiPmd, RssIsFlowStable) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  CaidaLikeGenerator gen;
  std::map<std::uint64_t, std::size_t> flow_to_pmd;
  for (int i = 0; i < 20'000; ++i) {
    const auto p = gen.next();
    const auto pmd = sw.rss(p);
    ASSERT_LT(pmd, 4u);
    auto [it, fresh] = flow_to_pmd.try_emplace(p.tuple.flow_key(), pmd);
    EXPECT_EQ(it->second, pmd) << "flow moved between PMDs";
  }
  // All PMDs should receive some flows.
  std::set<std::size_t> used;
  for (const auto& [f, pmd] : flow_to_pmd) used.insert(pmd);
  EXPECT_EQ(used.size(), 4u);
}

TEST(MultiPmd, ForwardsEverything) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(10'000, 1);
  const auto packets = take_packets(gen, 60'000);
  const auto res = sw.forward(packets);
  EXPECT_EQ(res.packets, 60'000u);
  std::uint64_t forwarded = 0, misses = 0;
  for (const auto& r : res.per_pmd) {
    forwarded += r.forwarded;
    misses += r.table_misses;
  }
  EXPECT_EQ(forwarded, 60'000u);
  EXPECT_EQ(misses, 0u);
  EXPECT_GT(res.aggregate_mpps(), 0.0);
}

TEST(MultiPmd, MonitorReceivesEveryRecordExactlyOnce) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 2);
  const auto packets = take_packets(gen, 90'000);

  std::set<std::uint64_t> seen;  // monitor thread only: no lock needed
  std::uint64_t count = 0;
  const auto res = sw.forward_monitored(
      packets, [&](std::size_t pmd, const MonitorRecord& r) {
        ASSERT_LT(pmd, 3u);
        EXPECT_TRUE(seen.insert(r.packet_id).second)
            << "duplicate record " << r.packet_id;
        ++count;
      });
  EXPECT_EQ(count, 90'000u);
  EXPECT_EQ(res.packets, 90'000u);
}

TEST(MultiPmd, PerRingOrderIsPreserved) {
  // Every record arrives on ring rss(p), in span order. With 3 and 5
  // PMDs the hashing slice boundaries fall at other points of each ring's
  // stream than with 2, so this catches a slice forwarded out of order as
  // well as a packet forwarded by the wrong PMD.
  MinSizePacketGenerator gen(1'000, 3);
  const auto packets = take_packets(gen, 50'000);
  std::unordered_map<std::uint64_t, std::size_t> pos;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    pos.emplace(packets[k].packet_id, k);
  }
  ASSERT_EQ(pos.size(), packets.size());
  for (const std::size_t pmds : {std::size_t{2}, std::size_t{3},
                                 std::size_t{5}}) {
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = pmds});
    sw.install_default_rules();
    std::vector<std::size_t> next(pmds, 0);  // lowest span index allowed
    std::vector<std::uint64_t> per_ring(pmds, 0);
    std::uint64_t count = 0;
    sw.forward_monitored(
        packets, [&](std::size_t ring, const MonitorRecord& r) {
          const std::size_t k = pos.at(r.packet_id);
          ASSERT_EQ(ring, sw.rss(packets[k])) << "record on the wrong ring";
          ASSERT_GE(k, next[ring]) << "reordering within ring " << ring;
          next[ring] = k + 1;
          ++per_ring[ring];
          ++count;
        });
    EXPECT_EQ(count, packets.size()) << pmds << " PMDs";
    for (std::size_t i = 0; i < pmds; ++i) {
      EXPECT_GT(per_ring[i], 0u) << "ring " << i << " of " << pmds;
    }
  }
}

TEST(MultiPmd, OneSwitchRunsEveryModeBackToBack) {
  // Rings and index lists are owned by the switch and reused across
  // calls of every shape; each call must still deliver every record
  // exactly once and leave nothing behind for the next.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 8);
  const auto packets = take_packets(gen, 45'000);
  for (int round = 0; round < 2; ++round) {
    // A slice of a different length each round moves every slice boundary.
    const auto span = std::span<const qmax::trace::PacketRecord>(packets)
                          .subspan(static_cast<std::size_t>(round) * 1'001);
    std::mutex mu;
    std::set<std::uint64_t> seen;
    std::uint64_t count = 0;
    auto check = [&](std::size_t, const MonitorRecord& r) {
      std::lock_guard<std::mutex> lk(mu);
      EXPECT_TRUE(seen.insert(r.packet_id).second)
          << "record " << r.packet_id << " delivered twice";
      ++count;
    };
    auto expect_all = [&](const MultiRunResult& res, const char* mode) {
      EXPECT_EQ(count, span.size()) << mode << ", round " << round;
      EXPECT_EQ(seen.size(), span.size()) << mode;
      EXPECT_EQ(res.total_drained(), span.size()) << mode;
      EXPECT_EQ(res.packets, span.size()) << mode;
      seen.clear();
      count = 0;
    };
    expect_all(sw.forward_monitored(span, check), "forward_monitored");
    expect_all(sw.forward_sharded(span, check), "forward_sharded");
    expect_all(sw.forward_concurrent(span, 2, check), "forward_concurrent");
    const auto res = sw.forward(span);
    std::uint64_t forwarded = 0;
    for (const auto& r : res.per_pmd) forwarded += r.forwarded;
    EXPECT_EQ(forwarded, span.size()) << "forward, round " << round;
    EXPECT_EQ(res.total_drained(), 0u);
  }
}

TEST(MultiPmd, ConsumerBusySecondsArePositiveAndWithinCallWall) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 9);
  const auto packets = take_packets(gen, 60'000);
  auto burn = [](std::size_t, const MonitorRecord& r) {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 20; ++i) sink = sink + r.length * i;
  };
  auto check = [](const MultiRunResult& res, double wall, std::size_t m,
                  const char* mode) {
    ASSERT_EQ(res.consumer_busy_seconds.size(), m) << mode;
    for (const double s : res.consumer_busy_seconds) {
      EXPECT_GT(s, 0.0) << mode;
      EXPECT_LE(s, wall) << mode;
    }
  };
  qmax::common::Stopwatch sw_wall;
  auto res = sw.forward_monitored(packets, burn);
  check(res, sw_wall.seconds(), 1, "forward_monitored");
  sw_wall.reset();
  res = sw.forward_sharded(packets, burn);
  check(res, sw_wall.seconds(), 3, "forward_sharded");
  sw_wall.reset();
  res = sw.forward_concurrent(packets, 2, burn);
  check(res, sw_wall.seconds(), 2, "forward_concurrent");
}

TEST(MultiPmd, RssDispatchFormulasArePinned) {
  // Default dispatch is finalizer-mix + Lemire fastrange over the flow
  // key; the legacy flag reproduces the historical bare modulo exactly.
  // Pinning both formulas keeps old skew measurements reproducible and
  // catches accidental dispatch changes (which would silently re-home
  // every flow).
  MultiPmdSwitch mixed(MultiPmdConfig{.pmd_threads = 5});
  MultiPmdSwitch legacy(
      MultiPmdConfig{.pmd_threads = 5, .legacy_rss_modulo = true});
  CaidaLikeGenerator gen;
  std::vector<std::size_t> mixed_load(5, 0);
  for (int i = 0; i < 20'000; ++i) {
    const auto p = gen.next();
    const std::uint64_t key = p.tuple.flow_key();
    __extension__ using u128 = unsigned __int128;
    const auto expect_mixed = static_cast<std::size_t>(
        (static_cast<u128>(qmax::common::mix64(key)) * 5) >> 64);
    EXPECT_EQ(mixed.rss(p), expect_mixed);
    EXPECT_EQ(legacy.rss(p), key % 5);
    ++mixed_load[mixed.rss(p)];
  }
  // The mixed dispatch must not starve any PMD on a realistic trace.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GT(mixed_load[i], 20'000u / 20) << "RSS starved PMD " << i;
  }
}

TEST(MultiPmd, SkewAccessorsReportPerPmdSpread) {
  MultiRunResult res;
  res.per_pmd.resize(3);
  res.per_pmd[0].packets = 1000;
  res.per_pmd[0].seconds = 1.0;  // 0.001 Mpps
  res.per_pmd[1].packets = 4000;
  res.per_pmd[1].seconds = 1.0;  // 0.004 Mpps
  res.per_pmd[2].packets = 2000;
  res.per_pmd[2].seconds = 1.0;  // 0.002 Mpps
  EXPECT_DOUBLE_EQ(res.min_pmd_mpps(), 0.001);
  EXPECT_DOUBLE_EQ(res.max_pmd_mpps(), 0.004);
  EXPECT_DOUBLE_EQ(res.pmd_skew(), 4.0);

  MultiRunResult single;
  single.per_pmd.resize(1);
  single.per_pmd[0].packets = 1000;
  single.per_pmd[0].seconds = 1.0;
  EXPECT_DOUBLE_EQ(single.pmd_skew(), 1.0) << "degenerate: one PMD";

  MultiRunResult idle;
  idle.per_pmd.resize(2);
  idle.per_pmd[0].packets = 1000;
  idle.per_pmd[0].seconds = 1.0;
  EXPECT_DOUBLE_EQ(idle.pmd_skew(), 1.0) << "degenerate: idle PMD";

  EXPECT_DOUBLE_EQ(res.modeled_consumer_mpps(), 0.0)
      << "no consumer_busy_seconds recorded";
}

TEST(MultiPmd, ShardedConsumersReceiveEveryRecordExactlyOnce) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 4);
  const auto packets = take_packets(gen, 90'000);

  // One consumer thread per ring: per-shard state needs no lock, the
  // cross-shard duplicate check does.
  std::vector<std::set<std::uint64_t>> seen(3);
  std::vector<std::uint64_t> count(3, 0);
  std::mutex all_mu;
  std::set<std::uint64_t> all;
  const auto res = sw.forward_sharded(
      packets, [&](std::size_t shard, const MonitorRecord& r) {
        ASSERT_LT(shard, 3u);
        EXPECT_TRUE(seen[shard].insert(r.packet_id).second)
            << "duplicate within shard " << shard;
        ++count[shard];
        std::lock_guard<std::mutex> lk(all_mu);
        EXPECT_TRUE(all.insert(r.packet_id).second)
            << "record " << r.packet_id << " seen by two shards";
      });
  EXPECT_EQ(count[0] + count[1] + count[2], 90'000u);
  EXPECT_EQ(res.packets, 90'000u);
  EXPECT_EQ(res.total_drained(), 90'000u);
  ASSERT_EQ(res.consumer_busy_seconds.size(), 3u);
  EXPECT_GT(res.modeled_consumer_mpps(), 0.0);
  // Per-ring consumer telemetry exists for each ring after a sharded run.
  EXPECT_EQ(sw.consumer_count(), 3u);
}

TEST(MultiPmd, ShardedEndToEndMatchesOracle) {
  // The full tentpole pipeline: RSS → per-ring consumer → per-shard
  // reservoir with Ψ-broadcast → merge-on-query == exact global top-q.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  sw.install_default_rules();
  CaidaLikeGenerator gen;
  const auto packets = take_packets(gen, 40'000);

  qmax::ShardedQMax<qmax::QMax<>> reservoir(4, 16, {}, true);
  sw.forward_sharded(packets,
                     [&](std::size_t shard, const MonitorRecord& r) {
                       reservoir.add(shard, r.packet_id, double(r.length));
                     });

  std::vector<double> oracle;
  for (const auto& p : packets) oracle.push_back(double(p.length));
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(16);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, oracle);
}

TEST(MultiPmd, ConcurrentConsumersReceiveEveryRecordExactlyOnce) {
  // 2 consumer threads over 5 rings: consumer j owns rings j and j+2
  // and j+4, so every ring keeps one consumer and nothing is dropped or
  // double-counted.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 5});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 6);
  const auto packets = take_packets(gen, 90'000);

  std::mutex all_mu;
  std::set<std::uint64_t> all;
  std::uint64_t count = 0;
  const auto res = sw.forward_concurrent(
      packets, 2, [&](std::size_t ring, const MonitorRecord& r) {
        ASSERT_LT(ring, 5u);
        std::lock_guard<std::mutex> lk(all_mu);
        EXPECT_TRUE(all.insert(r.packet_id).second)
            << "record " << r.packet_id << " delivered twice";
        ++count;
      });
  EXPECT_EQ(count, 90'000u);
  EXPECT_EQ(res.packets, 90'000u);
  EXPECT_EQ(res.total_drained(), 90'000u);
  ASSERT_EQ(res.consumer_busy_seconds.size(), 2u);
  EXPECT_GT(res.modeled_consumer_mpps(), 0.0);
  EXPECT_EQ(sw.consumer_count(), 2u);
}

TEST(MultiPmd, ConcurrentEndToEndMatchesOracle) {
  // M-consumers-over-one-reservoir: RSS → 4 rings → 3 consumer threads →
  // one ConcurrentQMax through its any-thread add path == exact global
  // top-q, with the consumer count deliberately mismatched to the PMD
  // count (the case forward_sharded cannot express).
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  sw.install_default_rules();
  CaidaLikeGenerator gen;
  const auto packets = take_packets(gen, 40'000);

  qmax::ConcurrentQMax<qmax::QMax<>> reservoir(16, {}, 256);
  sw.forward_concurrent(packets, 3,
                        [&](std::size_t, const MonitorRecord& r) {
                          reservoir.add(r.packet_id, double(r.length));
                        });

  std::vector<double> oracle;
  for (const auto& p : packets) oracle.push_back(double(p.length));
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(16);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, oracle);
  EXPECT_EQ(reservoir.writer_count(), 3u);
}

TEST(MultiPmd, EndToEndTopPacketsAcrossPmds) {
  // One q-MAX fed by all PMD rings must still find the globally largest
  // packets — the exact merge property the OVS experiments rely on.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  sw.install_default_rules();
  CaidaLikeGenerator gen;
  const auto packets = take_packets(gen, 40'000);

  qmax::QMax<> reservoir(16, 0.5);
  sw.forward_monitored(packets,
                       [&](std::size_t, const MonitorRecord& r) {
                         reservoir.add(r.packet_id, double(r.length));
                       });

  std::vector<double> oracle;
  for (const auto& p : packets) oracle.push_back(double(p.length));
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(16);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, oracle);
}

}  // namespace
