// ConcurrentQMax correctness pins.
//
// The load-bearing claim of the lock-free multi-writer pipeline is
// *exactness*: W threads screening against a racy relaxed-atomic Ψ and
// staging through thread-local buffers return the same top q as one
// reservoir fed the whole stream. q-MAX's guarantee is about the top-q
// VALUE multiset (ties at the boundary may resolve to different ids), so
// the differentials bit-compare descending-sorted values against
// seed_reference.hpp goldens, and pin ids too on a tie-free trace where
// the top-q item set is unique. The soak runs under TSan via the sanitize
// CI leg (-R ConcurrentQMax).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "qmax/concurrent.hpp"
#include "qmax/invariants.hpp"
#include "qmax/qmax.hpp"
#include "seed_reference.hpp"

namespace {

using qmax::ConcurrentQMax;
using qmax::QMax;
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

void expect_audit_ok(const qmax::AuditResult& a, const char* ctx) {
  EXPECT_TRUE(a.ok()) << ctx << ": " << a.to_string();
}

// ---------------------------------------------------------------------
// Differentials: multi-writer drain-on-query vs the single-reservoir
// seed golden.
// ---------------------------------------------------------------------

TEST(ConcurrentQMax, MultiWriterMatchesSingleReservoirGolden) {
  for (const std::size_t writers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t q : {1u, 7u, 64u, 100u}) {
      // Small buffers so handoffs, Ψ publishes, and buffer recycling all
      // actually fire at test scale.
      ConcurrentQMax<QMax<>> cq(q, {}, 64);
      seedref::QMax<> ref(q, 0.25);
      const auto vals = adversarial_doubles(40'000, 23 * writers + q);
      for (std::size_t i = 0; i < vals.size(); ++i) ref.add(i, vals[i]);

      // Slice round-robin across writer threads: every thread gets an
      // interleaved (not contiguous) substream, mixed scalar/batch adds.
      std::vector<std::thread> ts;
      ts.reserve(writers);
      std::atomic<int> go{0};
      for (std::size_t wtr = 0; wtr < writers; ++wtr) {
        ts.emplace_back([&, wtr] {
          std::vector<std::uint64_t> ids;
          std::vector<double> slice;
          for (std::size_t i = wtr; i < vals.size(); i += writers) {
            ids.push_back(i);
            slice.push_back(vals[i]);
          }
          go.fetch_add(1, std::memory_order_relaxed);
          while (go.load(std::memory_order_relaxed) <
                 static_cast<int>(writers)) {
          }
          const std::size_t m = ids.size();
          std::size_t i = 0;
          std::uint64_t rng = 91 + wtr;
          while (i < m) {
            const std::size_t run =
                std::min<std::size_t>(1 + splitmix64(rng) % 96, m - i);
            if (run == 1) {
              cq.add(ids[i], slice[i]);
            } else {
              cq.add_batch(ids.data() + i, slice.data() + i, run);
            }
            i += run;
          }
        });
      }
      for (auto& t : ts) t.join();

      expect_same_values(cq.query(), ref.query(), "grid cell");
      EXPECT_EQ(cq.processed(), ref.processed());
      EXPECT_EQ(cq.writer_count(), writers);
      EXPECT_EQ(cq.q(), q);
      expect_audit_ok(qmax::check_invariants(cq), "grid cell post-query");
    }
  }
}

TEST(ConcurrentQMax, MatchesGoldenIdsOnTieFreeTrace) {
  const auto vals = distinct_doubles(30'000, 731);
  ConcurrentQMax<QMax<>> cq(64, {}, 128);
  seedref::QMax<> ref(64, 0.25);
  for (std::size_t i = 0; i < vals.size(); ++i) ref.add(i, vals[i]);

  std::vector<std::thread> ts;
  for (std::size_t wtr = 0; wtr < 4; ++wtr) {
    ts.emplace_back([&, wtr] {
      for (std::size_t i = wtr; i < vals.size(); i += 4) {
        cq.add(i, vals[i]);
      }
    });
  }
  for (auto& t : ts) t.join();

  auto got = cq.query();
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

// ---------------------------------------------------------------------
// Interleaving invariance: deterministic Writer handles on one thread —
// ANY interleaving of writers yields exactly the single-writer multiset.
// ---------------------------------------------------------------------

TEST(ConcurrentQMax, AnyWriterInterleavingMatchesSingleWriter) {
  const std::size_t q = 96;
  const auto vals = adversarial_doubles(25'000, 404);
  seedref::QMax<> ref(q, 0.25);
  for (std::size_t i = 0; i < vals.size(); ++i) ref.add(i, vals[i]);
  const auto want = ref.query();

  // Three schedules over 4 explicit Writer handles: strict round-robin,
  // bursty runs, and a seeded random walk. Same multiset every time.
  for (const std::uint64_t schedule : {0ull, 1ull, 2ull}) {
    ConcurrentQMax<QMax<>> cq(q, {}, 32);
    qmax::ConcurrentQMax<QMax<>>::Writer ws[4] = {
        cq.writer(), cq.writer(), cq.writer(), cq.writer()};
    std::uint64_t rng = 1000 + schedule;
    std::size_t burst_left = 0;
    std::size_t burst_writer = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      std::size_t wtr = 0;
      switch (schedule) {
        case 0: wtr = i % 4; break;
        case 1:
          if (burst_left == 0) {
            burst_left = 1 + splitmix64(rng) % 500;
            burst_writer = splitmix64(rng) % 4;
          }
          --burst_left;
          wtr = burst_writer;
          break;
        default: wtr = splitmix64(rng) % 4; break;
      }
      ws[wtr].add(i, vals[i]);
    }
    expect_same_values(cq.query(), want, "schedule");
    EXPECT_EQ(cq.processed(), vals.size());
    expect_audit_ok(qmax::check_invariants(cq), "schedule post-query");
  }
}

TEST(ConcurrentQMax, SpanBatchPathMatchesGolden) {
  // The entry-span path (what forward_concurrent feeds from ring drains),
  // the pointer path and add(), fed the same runs on the same writer
  // schedule. The two batch paths screen each run against one Ψ snapshot
  // and must agree exactly; add() loads Ψ per item, so only its processed
  // count and its answer must match them.
  using CQ = ConcurrentQMax<QMax<>>;
  const std::size_t q = 128;
  const auto vals = adversarial_doubles(30'000, 55);
  seedref::QMax<> ref(q, 0.25);
  std::vector<std::uint64_t> ids(vals.size());
  std::vector<EntryT> entries;
  entries.reserve(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ref.add(i, vals[i]);
    ids[i] = i;
    entries.push_back(EntryT{i, vals[i]});
  }
  CQ by_add(q, {}, 256);
  CQ by_ptr(q, {}, 256);
  CQ by_span(q, {}, 256);
  CQ::Writer add_w[2] = {by_add.writer(), by_add.writer()};
  CQ::Writer ptr_w[2] = {by_ptr.writer(), by_ptr.writer()};
  CQ::Writer span_w[2] = {by_span.writer(), by_span.writer()};
  std::uint64_t rng = 77;
  std::size_t pos = 0;
  while (pos < entries.size()) {
    const std::size_t run =
        std::min<std::size_t>(1 + splitmix64(rng) % 300, entries.size() - pos);
    const std::size_t w = splitmix64(rng) % 2;
    for (std::size_t i = pos; i < pos + run; ++i) add_w[w].add(ids[i], vals[i]);
    const std::size_t by_ptr_staged =
        ptr_w[w].add_batch(ids.data() + pos, vals.data() + pos, run);
    ASSERT_EQ(span_w[w].add_batch(
                  std::span<const EntryT>(entries.data() + pos, run)),
              by_ptr_staged)
        << "run at " << pos;
    pos += run;
  }
  EXPECT_EQ(by_span.processed(), by_ptr.processed());
  EXPECT_EQ(by_span.screened_out(), by_ptr.screened_out());
  EXPECT_EQ(by_span.buffered(), by_ptr.buffered());
  EXPECT_EQ(by_span.handoffs(), by_ptr.handoffs());
  EXPECT_EQ(by_add.processed(), by_ptr.processed());
  const auto span_answer = by_span.query();
  const auto ptr_answer = by_ptr.query();
  auto by_val_id = [](const EntryT& a, const EntryT& b) {
    return a.val != b.val ? a.val < b.val : a.id < b.id;
  };
  auto sorted = [&](std::vector<EntryT> v) {
    std::sort(v.begin(), v.end(), by_val_id);
    return v;
  };
  EXPECT_EQ(sorted(span_answer), sorted(ptr_answer)) << "span vs pointer batch";
  expect_same_values(by_add.query(), ptr_answer, "add vs pointer batch");
  expect_same_values(span_answer, ref.query(), "span batch");
  EXPECT_EQ(by_span.processed(), ref.processed());
}

// ---------------------------------------------------------------------
// Accounting, invariants, screen semantics.
// ---------------------------------------------------------------------

TEST(ConcurrentQMax, ConservationAndScreenCounters) {
  ConcurrentQMax<QMax<>> cq(32, {}, 16);
  // Heavy ramp first: Ψ rises, later small items get screened out.
  for (std::size_t i = 0; i < 4'000; ++i) {
    cq.add(i, 1e6 + static_cast<double>(i));
  }
  ASSERT_GT(cq.threshold(), 0.0);
  EXPECT_GT(cq.handoffs(), 0u);
  EXPECT_GT(cq.psi_publishes(), 0u);
  const std::uint64_t screened_before = cq.screened_out();
  std::uint64_t staged = 0;
  for (std::size_t i = 0; i < 4'000; ++i) {
    staged += cq.add(100'000 + i, static_cast<double>(i % 100)) ? 1u : 0u;
  }
  EXPECT_EQ(staged, 0u) << "items below the published bound must screen out";
  EXPECT_EQ(cq.screened_out(), screened_before + 4'000);
  // Conservation with in-flight buffers, before any drain.
  EXPECT_EQ(cq.processed(), cq.screened_out() + cq.buffered());
  EXPECT_LE(cq.in_flight(), cq.buffered());
  expect_audit_ok(qmax::check_invariants(cq), "mid-stream");
  cq.flush();
  EXPECT_EQ(cq.in_flight(), 0u);
  EXPECT_LE(cq.admitted(), cq.buffered());
  // The published screen bound never overtakes the core's exact bound.
  EXPECT_LE(cq.threshold(), cq.core().threshold());
  expect_audit_ok(qmax::check_invariants(cq), "post-flush");
}

TEST(ConcurrentQMax, HandoffRecyclesBuffersAndCountsStalls) {
  // Single writer, tiny buffers: every handoff immediately runs
  // maintenance (no contention), so the spare channel should recycle and
  // stalls should stay at the first-allocation count only.
  ConcurrentQMax<QMax<>> cq(8, {}, 4);
  for (std::size_t i = 0; i < 1'000; ++i) {
    cq.add(i, static_cast<double>(1'000 + i));
  }
  EXPECT_GT(cq.handoffs(), 10u);
  // First handoff stalls once (no spare yet); after that the owner's
  // release beats the writer's next fill in this single-threaded run.
  EXPECT_LE(cq.handoff_stalls(), 1u);
  EXPECT_EQ(cq.maintenance_rounds(), cq.handoffs());
  if (qmax::telemetry::kEnabled) {
    EXPECT_EQ(cq.telem().handoff_batches.value(), cq.handoffs());
  }
}

TEST(ConcurrentQMax, ResetEqualsFresh) {
  const auto warm = adversarial_doubles(9'000, 808);
  const auto probe = adversarial_doubles(9'000, 809);
  ConcurrentQMax<QMax<>> dirty(32, {}, 64);
  ConcurrentQMax<QMax<>> fresh(32, {}, 64);
  for (std::size_t i = 0; i < warm.size(); ++i) dirty.add(i, warm[i]);
  dirty.reset();
  EXPECT_EQ(dirty.processed(), 0u);
  EXPECT_EQ(dirty.buffered(), 0u);
  EXPECT_EQ(dirty.in_flight(), 0u);
  EXPECT_EQ(dirty.live_count(), 0u);
  EXPECT_EQ(dirty.handoffs(), 0u);
  EXPECT_EQ(dirty.psi_publishes(), 0u);
  EXPECT_EQ(dirty.threshold(), qmax::kEmptyValue<double>);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    dirty.add(i, probe[i]);
    fresh.add(i, probe[i]);
  }
  expect_same_values(dirty.query(), fresh.query(), "post-reset");
  EXPECT_EQ(dirty.admitted(), fresh.admitted());
  EXPECT_EQ(dirty.live_count(), fresh.live_count());
}

// ---------------------------------------------------------------------
// Concurrency soak: 8 writers hammering one reservoir, Ψ CAS hot,
// buffer exchange hot. Run under TSan via the sanitize CI leg
// (-R ConcurrentQMax) with QMAX_SOAK_ITEMS scaling the stream.
// ---------------------------------------------------------------------

TEST(ConcurrentQMax, ConcurrentSoakStaysExact) {
  const std::size_t n = soak_items(400'000);
  const std::size_t kWriters = 8;
  const std::size_t q = 256;
  const auto vals = adversarial_doubles(n, 2027);

  ConcurrentQMax<QMax<>> cq(q, {}, 128);
  std::atomic<int> go{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t wtr = 0; wtr < kWriters; ++wtr) {
    writers.emplace_back([&, wtr] {
      // Interleaved slice, pre-gathered so the hot loop is pure ingest.
      std::vector<std::uint64_t> ids;
      std::vector<double> slice;
      std::vector<EntryT> entries;
      for (std::size_t i = wtr; i < n; i += kWriters) {
        ids.push_back(i);
        slice.push_back(vals[i]);
        entries.push_back(EntryT{i, vals[i]});
      }
      go.fetch_add(1, std::memory_order_relaxed);
      while (go.load(std::memory_order_relaxed) <
             static_cast<int>(kWriters)) {
      }
      // Mixed scalar / batch / span adds, like a real consumer fleet.
      const std::size_t m = ids.size();
      std::size_t i = 0;
      std::uint64_t rng = 41 + wtr;
      while (i < m) {
        const std::size_t run =
            std::min<std::size_t>(1 + splitmix64(rng) % 64, m - i);
        switch (splitmix64(rng) % 3) {
          case 0:
            for (std::size_t k = 0; k < run; ++k) {
              cq.add(ids[i + k], slice[i + k]);
            }
            break;
          case 1:
            cq.add_batch(ids.data() + i, slice.data() + i, run);
            break;
          default:
            cq.add_batch(std::span<const EntryT>(entries.data() + i, run));
            break;
        }
        i += run;
      }
    });
  }
  for (auto& t : writers) t.join();

  seedref::QMax<> ref(q, 0.25);
  for (std::size_t i = 0; i < n; ++i) ref.add(i, vals[i]);
  expect_same_values(cq.query(), ref.query(), "concurrent soak");
  EXPECT_EQ(cq.processed(), ref.processed());
  EXPECT_EQ(cq.writer_count(), kWriters);
  expect_audit_ok(qmax::check_invariants(cq), "soak post-query");
}

}  // namespace
