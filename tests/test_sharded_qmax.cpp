// ShardedQMax correctness pins.
//
// The load-bearing claim of the sharded pipeline is *exactness*: splitting
// a stream across S reservoirs and k-way-merging at query time returns the
// same top q as one reservoir fed the whole stream — with the global-Ψ
// broadcast on or off, via the scalar or the batch path, and under real
// concurrency. q-MAX's guarantee is about the top-q VALUE multiset (ties
// at the boundary may resolve to different ids), so the differentials
// bit-compare descending-sorted values against seed_reference.hpp goldens,
// and pin ids too on a tie-free trace where the top-q item set is unique.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "seed_reference.hpp"

namespace {

using qmax::QMax;
using qmax::ShardedQMax;
using EntryT = QMax<>::EntryT;

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Same adversarial mix as the core differential suite: ties, monotone
/// ramps, NaN poison, zeros, negatives, exact-integer noise.
std::vector<double> adversarial_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix64(s);
    switch (r % 16) {
      case 0: v[i] = static_cast<double>(r % 16) * 0.25; break;
      case 1: v[i] = static_cast<double>(i); break;
      case 2: v[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 3: v[i] = 0.0; break;
      case 4: v[i] = -static_cast<double>(r % 1024); break;
      default: v[i] = static_cast<double>(r % (1ull << 40)); break;
    }
  }
  return v;
}

/// All-distinct values (a shuffled permutation scaled to exact doubles):
/// the top-q *item set* is unique, so ids must match too.
std::vector<double> distinct_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i) * 0.5;
  std::uint64_t s = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[splitmix64(s) % i]);
  }
  return v;
}

/// Deterministic dispatch of item i to a shard — the test's stand-in for
/// RSS. Mixed, so shards see interleaved (not contiguous) substreams.
std::size_t dispatch(std::size_t i, std::size_t shards) {
  std::uint64_t s = 0x5bd1e995u ^ i;
  return splitmix64(s) % shards;
}

std::vector<double> sorted_query_values(const std::vector<EntryT>& out) {
  std::vector<double> v;
  v.reserve(out.size());
  for (const EntryT& e : out) v.push_back(e.val);
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

void expect_same_values(const std::vector<EntryT>& got,
                        const std::vector<EntryT>& want, const char* ctx) {
  const auto g = sorted_query_values(got);
  const auto w = sorted_query_values(want);
  ASSERT_EQ(g.size(), w.size()) << ctx;
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g[i]),
              std::bit_cast<std::uint64_t>(w[i]))
        << ctx << " rank " << i;
  }
}

std::size_t soak_items(std::size_t fallback) {
  if (const char* e = std::getenv("QMAX_SOAK_ITEMS")) {
    const long v = std::atol(e);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// ---------------------------------------------------------------------
// Differentials: merge-on-query vs the single-reservoir seed golden.
// ---------------------------------------------------------------------

TEST(ShardedQMax, MergeMatchesSingleReservoirGolden) {
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    for (const bool bcast : {true, false}) {
      for (const std::size_t q : {1u, 7u, 64u, 100u}) {
        ShardedQMax<QMax<>> sh(shards, q, {}, bcast);
        seedref::QMax<> ref(q, 0.25);
        const auto vals = adversarial_doubles(40'000, 17 * shards + q);
        for (std::size_t i = 0; i < vals.size(); ++i) {
          sh.add(dispatch(i, shards), i, vals[i]);
          ref.add(i, vals[i]);
          if (i % 4999 == 0) {
            expect_same_values(sh.query(), ref.query(), "checkpoint");
          }
        }
        expect_same_values(sh.query(), ref.query(), "final");
        EXPECT_EQ(sh.processed(), ref.processed());
        EXPECT_EQ(sh.shard_count(), shards);
        EXPECT_EQ(sh.q(), q);
      }
    }
  }
}

TEST(ShardedQMax, MergeMatchesGoldenIdsOnTieFreeTrace) {
  const auto vals = distinct_doubles(30'000, 99);
  for (const bool bcast : {true, false}) {
    ShardedQMax<QMax<>> sh(4, 64, {}, bcast);
    seedref::QMax<> ref(64, 0.25);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      sh.add(dispatch(i, 4), i, vals[i]);
      ref.add(i, vals[i]);
    }
    auto got = sh.query();
    auto want = ref.query();
    const auto by_id = [](const EntryT& a, const EntryT& b) {
      return a.id < b.id;
    };
    std::sort(got.begin(), got.end(), by_id);
    std::sort(want.begin(), want.end(), by_id);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "slot " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].val),
                std::bit_cast<std::uint64_t>(want[i].val))
          << "slot " << i;
    }
  }
}

TEST(ShardedQMax, BatchPathMatchesGolden) {
  // Same exactness through add_batch (the batch path the sharded
  // consumers actually use), with randomized run lengths.
  ShardedQMax<QMax<>> sh(4, 128, {}, true);
  seedref::QMax<> ref(128, 0.25);
  const auto vals = adversarial_doubles(60'000, 7);
  // Pre-partition per shard, then feed in randomized interleaved chunks.
  std::vector<std::vector<std::uint64_t>> ids(4);
  std::vector<std::vector<double>> sv(4);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const std::size_t s = dispatch(i, 4);
    ids[s].push_back(i);
    sv[s].push_back(vals[i]);
    ref.add(i, vals[i]);
  }
  std::uint64_t s = 5;
  std::vector<std::size_t> pos(4, 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t sh_i = 0; sh_i < 4; ++sh_i) {
      const std::size_t left = sv[sh_i].size() - pos[sh_i];
      if (left == 0) continue;
      const std::size_t run = std::min<std::size_t>(
          1 + splitmix64(s) % 300, left);
      sh.add_batch(sh_i, ids[sh_i].data() + pos[sh_i],
                   sv[sh_i].data() + pos[sh_i], run);
      pos[sh_i] += run;
      more = true;
    }
  }
  expect_same_values(sh.query(), ref.query(), "batch final");
  EXPECT_EQ(sh.processed(), ref.processed());
}

// ---------------------------------------------------------------------
// Broadcast semantics.
// ---------------------------------------------------------------------

TEST(ShardedQMax, BroadcastTightensOtherShardsAdmission) {
  // Shard 0 sees the heavy prefix and establishes a high Ψ; shard 1 then
  // sees only small values. With the broadcast on, shard 1 folds shard
  // 0's bound and rejects them all; off, shard 1 happily fills up.
  const std::size_t q = 32;
  ShardedQMax<QMax<>> on(2, q, {}, true);
  ShardedQMax<QMax<>> off(2, q, {}, false);
  for (std::size_t i = 0; i < 4'000; ++i) {
    const double v = 1e6 + static_cast<double>(i);
    on.add(0, i, v);
    off.add(0, i, v);
  }
  ASSERT_GT(on.shard_threshold(0), 0.0);
  EXPECT_EQ(on.global_threshold(), on.shard_threshold(0));
  const std::uint64_t before_on = on.admitted();
  const std::uint64_t before_off = off.admitted();
  for (std::size_t i = 0; i < 4'000; ++i) {
    const double v = static_cast<double>(i % 100);  // far below shard 0's Ψ
    on.add(1, 100'000 + i, v);
    off.add(1, 100'000 + i, v);
  }
  EXPECT_EQ(on.admitted(), before_on) << "broadcast should reject all";
  EXPECT_GT(off.admitted(), before_off) << "independent shard must admit";
  EXPECT_GT(on.broadcast_folds(), 0u);
  EXPECT_GT(on.broadcast_publishes(), 0u);
  EXPECT_EQ(off.broadcast_folds(), 0u);
  // Folding never breaks the merge: both agree on the global top q.
  expect_same_values(on.query(), off.query(), "bcast on/off");
  // threshold() reports the tightest bound across the group.
  EXPECT_GE(on.threshold(), on.shard_threshold(1));
  EXPECT_GE(on.shard_threshold(1), on.shard_threshold(0))
      << "shard 1 should have folded shard 0's bound";
}

TEST(ShardedQMax, ResetEqualsFresh) {
  const auto warm = adversarial_doubles(9'000, 555);
  const auto probe = adversarial_doubles(9'000, 556);
  ShardedQMax<QMax<>> dirty(4, 32, {}, true);
  ShardedQMax<QMax<>> fresh(4, 32, {}, true);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    dirty.add(dispatch(i, 4), i, warm[i]);
  }
  dirty.reset();
  EXPECT_EQ(dirty.processed(), 0u);
  EXPECT_EQ(dirty.live_count(), 0u);
  EXPECT_EQ(dirty.broadcast_folds(), 0u);
  EXPECT_EQ(dirty.broadcast_publishes(), 0u);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    dirty.add(dispatch(i, 4), i, probe[i]);
    fresh.add(dispatch(i, 4), i, probe[i]);
  }
  expect_same_values(dirty.query(), fresh.query(), "post-reset");
  EXPECT_EQ(dirty.admitted(), fresh.admitted());
  EXPECT_EQ(dirty.live_count(), fresh.live_count());
}

// ---------------------------------------------------------------------
// Repeated queries: each one merges the shards' current live sets.
// ---------------------------------------------------------------------

TEST(ShardedQMax, RepeatedQueriesAgreeAndFollowNewAdds) {
  ShardedQMax<QMax<>> sh(4, 32, {}, true);
  seedref::QMax<> ref(32, 0.25);
  const auto vals = adversarial_doubles(10'000, 77);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    sh.add(dispatch(i, 4), i, vals[i]);
    ref.add(i, vals[i]);
  }
  const auto first = sh.query();
  expect_same_values(first, ref.query(), "first query");
  expect_same_values(sh.query(), first, "repeated query");
  expect_same_values(sh.query(), first, "repeated query again");
  sh.add(0, 999'999, 1e18);
  ref.add(999'999, 1e18);
  expect_same_values(sh.query(), ref.query(), "query after more adds");
}

// ---------------------------------------------------------------------
// Concurrency: one writer thread per shard, broadcast atomics hot.
// Run under TSan via the sanitize CI leg (-R ShardedQMax).
// ---------------------------------------------------------------------

TEST(ShardedQMax, ConcurrentSoakStaysExact) {
  const std::size_t n = soak_items(400'000);
  const std::size_t kShards = 4;
  const std::size_t q = 256;
  const auto vals = adversarial_doubles(n, 2026);

  // Pre-partition so each thread touches only its own shard's slice.
  std::vector<std::vector<std::uint64_t>> ids(kShards);
  std::vector<std::vector<double>> sv(kShards);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = dispatch(i, kShards);
    ids[s].push_back(i);
    sv[s].push_back(vals[i]);
  }

  ShardedQMax<QMax<>> sh(kShards, q, {}, true);
  std::atomic<int> go{0};
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      go.fetch_add(1, std::memory_order_relaxed);
      while (go.load(std::memory_order_relaxed) <
             static_cast<int>(kShards)) {
      }
      // Mixed scalar / batch adds, like a real consumer draining a ring.
      const std::size_t m = ids[s].size();
      std::size_t i = 0;
      std::uint64_t rng = 31 + s;
      while (i < m) {
        const std::size_t run =
            std::min<std::size_t>(1 + splitmix64(rng) % 64, m - i);
        if (run == 1) {
          sh.add(s, ids[s][i], sv[s][i]);
        } else {
          sh.add_batch(s, ids[s].data() + i, sv[s].data() + i, run);
        }
        i += run;
      }
    });
  }
  for (auto& t : writers) t.join();

  seedref::QMax<> ref(q, 0.25);
  for (std::size_t i = 0; i < n; ++i) ref.add(i, vals[i]);
  expect_same_values(sh.query(), ref.query(), "concurrent soak");
  EXPECT_EQ(sh.processed(), ref.processed());
}

}  // namespace
