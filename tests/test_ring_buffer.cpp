// SPSC ring buffer: single-thread semantics plus a producer/consumer
// stress test for the lock-free handoff.
#include "vswitch/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/synthetic.hpp"
#include "vswitch/multi_pmd.hpp"

namespace {

using qmax::vswitch::SpscRing;

TEST(SpscRing, CapacityRoundsToPowerOfTwo) {
  SpscRing<int> r(100);
  EXPECT_EQ(r.capacity(), 128u);
  SpscRing<int> r2(1);
  EXPECT_EQ(r2.capacity(), 64u);  // floor capacity
}

TEST(SpscRing, ZeroCapacityThrows) {
  // capacity 0 would underflow the index mask; reject it loudly instead.
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
}

TEST(SpscRing, ConsumerCursorTracksPops) {
  SpscRing<int> r(64);
  EXPECT_EQ(r.consumer_cursor(), 0u);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(r.try_push(i));
  EXPECT_EQ(r.consumer_cursor(), 0u);  // pushes don't move the consumer
  int v;
  ASSERT_TRUE(r.try_pop(v));
  EXPECT_EQ(r.consumer_cursor(), 1u);
  int buf[8];
  ASSERT_EQ(r.pop_batch(buf, 8), 8u);
  EXPECT_EQ(r.consumer_cursor(), 9u);
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> r(64);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(r.try_push(i));
  int v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(r.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(r.try_pop(v));
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> r(64);
  for (std::size_t i = 0; i < r.capacity(); ++i) {
    ASSERT_TRUE(r.try_push(int(i)));
  }
  EXPECT_FALSE(r.try_push(-1));
  int v;
  ASSERT_TRUE(r.try_pop(v));
  EXPECT_TRUE(r.try_push(-1));  // one slot freed
}

TEST(SpscRing, WrapAroundManyTimes) {
  SpscRing<std::uint64_t> r(64);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  for (int round = 0; round < 1'000; ++round) {
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(r.try_push(next_push++));
    std::uint64_t v;
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(r.try_pop(v));
      ASSERT_EQ(v, next_pop++);
    }
  }
}

TEST(SpscRing, PopBatch) {
  SpscRing<int> r(64);
  for (int i = 0; i < 30; ++i) r.try_push(i);
  int buf[16];
  std::size_t n = r.pop_batch(buf, 16);
  ASSERT_EQ(n, 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[i], i);
  n = r.pop_batch(buf, 16);
  ASSERT_EQ(n, 14u);
  for (int i = 0; i < 14; ++i) EXPECT_EQ(buf[i], 16 + i);
  EXPECT_EQ(r.pop_batch(buf, 16), 0u);
}

TEST(SpscRing, PushBatchPartialFitReturnsCountThatFit) {
  SpscRing<int> r(64);
  std::vector<int> in(100);
  for (int i = 0; i < 100; ++i) in[static_cast<std::size_t>(i)] = i;
  ASSERT_EQ(r.push_batch(in.data(), 50), 50u);
  // 14 slots left: the prefix that fits goes in, the rest is refused.
  EXPECT_EQ(r.push_batch(in.data() + 50, 50), 14u);
  EXPECT_EQ(r.size_approx(), 64u);
  int v;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(r.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(r.try_pop(v));
}

TEST(SpscRing, PushBatchWrapsAtCapacityBoundary) {
  SpscRing<int> r(64);
  int buf[64];
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(r.try_push(-1));
  ASSERT_EQ(r.pop_batch(buf, 60), 60u);  // head and tail sit at slot 60
  std::vector<int> in(20);
  for (int i = 0; i < 20; ++i) in[static_cast<std::size_t>(i)] = i;
  ASSERT_EQ(r.push_batch(in.data(), 20), 20u);  // slots 60..63, then 0..15
  ASSERT_EQ(r.pop_batch(buf, 64), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(buf[i], i);
}

TEST(SpscRing, PushBatchIsFifoWithPopBatch) {
  SpscRing<std::uint64_t> r(64);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> in(80);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t out[64];
  for (int round = 0; round < 2'000; ++round) {
    const std::size_t want = rng() % in.size();
    for (std::size_t i = 0; i < want; ++i) in[i] = next_push + i;
    next_push += r.push_batch(in.data(), want);
    const std::size_t got = r.pop_batch(out, 1 + rng() % 64);
    for (std::size_t i = 0; i < got; ++i) ASSERT_EQ(out[i], next_pop++);
  }
  while (const std::size_t got = r.pop_batch(out, 64)) {
    for (std::size_t i = 0; i < got; ++i) ASSERT_EQ(out[i], next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, PushBatchOnFullRingReturnsZero) {
  SpscRing<int> r(64);
  for (std::size_t i = 0; i < r.capacity(); ++i) {
    ASSERT_TRUE(r.try_push(int(i)));
  }
  const int more[4] = {-1, -2, -3, -4};
  EXPECT_EQ(r.push_batch(more, 4), 0u);
  EXPECT_EQ(r.consumer_cursor(), 0u);
  int v;
  ASSERT_TRUE(r.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_EQ(r.push_batch(more, 4), 1u);  // one slot freed
}

TEST(SpscRing, DropAccountingExactAtCapacityBoundary) {
  // Interleaved push/pop with rejected pushes counted as drops: accepted
  // pushes must equal pops + remaining occupancy, exactly, across many
  // wraparounds that repeatedly hit the full-ring boundary.
  SpscRing<std::uint32_t> r(64);
  const std::size_t cap = r.capacity();
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t popped = 0;
  std::uint32_t next = 0;
  std::uint32_t expect = 0;
  std::mt19937_64 rng(31);
  for (int round = 0; round < 5'000; ++round) {
    // Push a burst that intentionally overshoots the free space.
    const std::size_t burst = 1 + rng() % (cap + 8);
    for (std::size_t i = 0; i < burst; ++i) {
      if (r.try_push(next)) {
        ++accepted;
        ++next;
      } else {
        ++dropped;  // kDrop-mode accounting: the item is simply lost
      }
    }
    EXPECT_LE(r.size_approx(), cap);
    // Pop a partial drain so occupancy oscillates around the boundary.
    const std::size_t drain = rng() % (cap + 1);
    std::uint32_t v;
    for (std::size_t i = 0; i < drain && r.try_pop(v); ++i) {
      ASSERT_EQ(v, expect) << "dropped pushes must not disturb FIFO order";
      ++expect;
      ++popped;
    }
    ASSERT_EQ(accepted, popped + r.size_approx())
        << "accounting drifted at round " << round;
  }
  EXPECT_GT(dropped, 0u) << "bursts never overflowed — boundary untested";
  // Drain the tail: every accepted item comes out, none of the dropped.
  std::uint32_t v;
  while (r.try_pop(v)) {
    ASSERT_EQ(v, expect);
    ++expect;
    ++popped;
  }
  EXPECT_EQ(accepted, popped);
  EXPECT_EQ(accepted + dropped, static_cast<std::uint64_t>(next) + dropped);
}

TEST(SpscRing, DropAndBackpressureAgreeOnAcceptedRecords) {
  // Switch-level equivalence: under both full-ring policies, the records
  // the consumer receives are exactly records_enqueued() — drop mode
  // loses records but never miscounts them.
  using namespace qmax::vswitch;
  qmax::trace::MinSizePacketGenerator gen(1'000, 6);
  const auto packets = qmax::trace::take_packets(gen, 30'000);
  for (OverloadPolicy policy :
       {OverloadPolicy::kBackpressure, OverloadPolicy::kDrop}) {
    SwitchConfig cfg;
    cfg.ring_capacity = 256;
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
    EXPECT_EQ(received.load(), res.records_enqueued())
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(res.records_drained, res.records_enqueued());
  }
}

TEST(SpscRing, CrossThreadTransferIsLossless) {
  SpscRing<std::uint64_t> r(1 << 10);
  const std::uint64_t total = 2'000'000;
  std::uint64_t sum_consumed = 0;
  std::uint64_t count_consumed = 0;

  std::thread consumer([&] {
    std::uint64_t v;
    std::uint64_t expect = 0;
    while (count_consumed < total) {
      if (r.try_pop(v)) {
        ASSERT_EQ(v, expect) << "out-of-order or corrupted item";
        ++expect;
        sum_consumed += v;
        ++count_consumed;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (std::uint64_t i = 0; i < total; ++i) {
    while (!r.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(count_consumed, total);
  EXPECT_EQ(sum_consumed, total * (total - 1) / 2);
}

}  // namespace
