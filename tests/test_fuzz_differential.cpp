// Randomized differential fuzzing: interleaved add / query / reset
// operation sequences executed simultaneously against every reservoir and
// the trivially-correct multiset oracle. Any divergence in the returned
// value multisets is a bug in one of the structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/heap_qmax.hpp"
#include "baselines/skiplist_qmax.hpp"
#include "baselines/sorted_qmax.hpp"
#include "common/random.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::QMax;
using qmax::SampledQMax;
using qmax::common::Xoshiro256;

template <typename R>
std::vector<double> snapshot(const R& r) {
  std::vector<double> v;
  for (const auto& e : r.query()) v.push_back(e.val);
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

struct FuzzParam {
  std::uint64_t seed;
  std::size_t q;
  double gamma;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(DifferentialFuzz, AllBackendsAgreeUnderRandomOps) {
  const auto p = GetParam();
  Xoshiro256 rng(p.seed);

  QMax<> deam(p.q, p.gamma);
  AmortizedQMax<> amort(p.q, p.gamma);
  qmax::baselines::HeapQMax<> heap(p.q);
  qmax::baselines::SkipListQMax<> skip(p.q);
  qmax::baselines::SortedQMax<> oracle(p.q);

  std::uint64_t next_id = 0;
  const int ops = 30'000;
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.90) {
      // Value generator mixes scales, ties, negatives and extremes.
      double v;
      const double kind = rng.uniform();
      if (kind < 0.3) v = double(rng.bounded(16));          // ties
      else if (kind < 0.6) v = rng.uniform();               // dense
      else if (kind < 0.8) v = rng.uniform() * 1e12;        // large
      else if (kind < 0.95) v = -rng.uniform() * 1e6;       // negative
      else v = (op % 2 != 0) ? 1e308 : -1e308;              // extremes
      const std::uint64_t id = next_id++;
      deam.add(id, v);
      amort.add(id, v);
      heap.add(id, v);
      skip.add(id, v);
      oracle.add(id, v);
    } else if (dice < 0.995) {
      const auto expect = snapshot(oracle);
      ASSERT_EQ(snapshot(deam), expect) << "QMax diverged at op " << op;
      ASSERT_EQ(snapshot(amort), expect)
          << "AmortizedQMax diverged at op " << op;
      ASSERT_EQ(snapshot(heap), expect) << "Heap diverged at op " << op;
      ASSERT_EQ(snapshot(skip), expect) << "SkipList diverged at op " << op;
    } else {
      deam.reset();
      amort.reset();
      heap.reset();
      skip.reset();
      oracle.reset();
    }
  }
  const auto expect = snapshot(oracle);
  EXPECT_EQ(snapshot(deam), expect);
  EXPECT_EQ(snapshot(amort), expect);
  EXPECT_EQ(snapshot(heap), expect);
  EXPECT_EQ(snapshot(skip), expect);
}

std::vector<FuzzParam> fuzz_grid() {
  std::vector<FuzzParam> g;
  std::uint64_t seed = 1;
  for (std::size_t q : {1ul, 3ul, 17ul, 128ul, 1000ul}) {
    for (double gamma : {0.01, 0.3, 1.5}) {
      g.push_back(FuzzParam{seed++, q, gamma});
    }
  }
  return g;
}

INSTANTIATE_TEST_SUITE_P(Grid, DifferentialFuzz,
                         ::testing::ValuesIn(fuzz_grid()),
                         [](const auto& param_info) {
                           std::string name = "s";
                           name += std::to_string(param_info.param.seed);
                           name += "_q";
                           name += std::to_string(param_info.param.q);
                           name += "_g";
                           name += std::to_string(
                               int(param_info.param.gamma * 100));
                           return name;
                         });

// ---- Batch-vs-scalar differential ------------------------------------
//
// add_batch is specified to be *equivalent* to in-order add() calls — not
// merely to produce an equally valid top q. Twin reservoirs consume the
// same stream, one item at a time vs. through add_batch under a random
// batch-size schedule (including empty batches and batches spanning
// several prefilter blocks and iteration endings); the twins must agree on
// threshold, counters, the exact eviction-callback sequence, and the query
// multiset at every checkpoint.

enum class StreamKind { kRandom, kAllTies, kMonotone, kNanLaced };

struct BatchFuzzParam {
  std::uint64_t seed;
  std::size_t q;
  double gamma;
  std::size_t n;
  StreamKind kind;
};

std::vector<double> make_stream(const BatchFuzzParam& p) {
  Xoshiro256 rng(p.seed);
  std::vector<double> v(p.n);
  switch (p.kind) {
    case StreamKind::kRandom:
      for (auto& x : v) x = rng.uniform();
      break;
    case StreamKind::kAllTies:
      // Ψ reaches the tie value, then `val > Ψ` rejects everything: the
      // prefilter must agree with the scalar comparison on exact ties.
      for (auto& x : v) x = 42.0;
      break;
    case StreamKind::kMonotone:
      // Every item beats Ψ: zero rejections, maximal iteration-boundary
      // traffic inside batches.
      for (std::size_t i = 0; i < p.n; ++i) v[i] = static_cast<double>(i);
      break;
    case StreamKind::kNanLaced:
      for (std::size_t i = 0; i < p.n; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.1) {
          v[i] = std::numeric_limits<double>::quiet_NaN();
        } else if (dice < 0.15) {
          v[i] = qmax::kEmptyValue<double>;
        } else {
          v[i] = rng.uniform();
        }
      }
      break;
  }
  return v;
}

class BatchDifferentialFuzz : public ::testing::TestWithParam<BatchFuzzParam> {
};

TEST_P(BatchDifferentialFuzz, BatchPathMatchesScalarPath) {
  const auto p = GetParam();
  const std::vector<double> stream = make_stream(p);
  Xoshiro256 sched(p.seed ^ 0x9e3779b97f4a7c15ULL);

  QMax<> scalar(p.q, p.gamma);
  QMax<> batched(p.q, p.gamma);
  AmortizedQMax<> am_scalar(p.q, p.gamma);
  AmortizedQMax<> am_batched(p.q, p.gamma);
  // A forced sample size: the auto size stays exact at these q, and the
  // point is to drive the sampled pivot (and its RNG) through both paths.
  constexpr std::size_t kSample = 64;
  SampledQMax<> sa_scalar(p.q, p.gamma, kSample);
  SampledQMax<> sa_batched(p.q, p.gamma, kSample);
  ASSERT_TRUE(sa_batched.sampling_enabled());

  std::vector<qmax::Entry> scalar_evicted, batched_evicted;
  scalar.set_evict_callback(
      [&](const qmax::Entry& e) { scalar_evicted.push_back(e); });
  batched.set_evict_callback(
      [&](const qmax::Entry& e) { batched_evicted.push_back(e); });

  std::vector<std::uint64_t> ids(stream.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;

  std::size_t i = 0;
  std::size_t chunks = 0;
  while (i < stream.size()) {
    // Schedule mixes empty, tiny, ~g-sized and multi-prefilter-block
    // batches (the prefilter scans 512-value blocks).
    std::size_t m;
    const double dice = sched.uniform();
    if (dice < 0.05) m = 0;
    else if (dice < 0.35) m = 1 + sched.bounded(8);
    else if (dice < 0.85) m = 1 + sched.bounded(300);
    else m = 513 + sched.bounded(1500);
    m = std::min(m, stream.size() - i);

    for (std::size_t j = 0; j < m; ++j) {
      scalar.add(ids[i + j], stream[i + j]);
      am_scalar.add(ids[i + j], stream[i + j]);
      sa_scalar.add(ids[i + j], stream[i + j]);
    }
    batched.add_batch(ids.data() + i, stream.data() + i, m);
    am_batched.add_batch(ids.data() + i, stream.data() + i, m);
    sa_batched.add_batch(ids.data() + i, stream.data() + i, m);
    i += m;

    ASSERT_EQ(scalar.threshold(), batched.threshold()) << "at item " << i;
    ASSERT_EQ(scalar.processed(), batched.processed()) << "at item " << i;
    ASSERT_EQ(scalar.admitted(), batched.admitted()) << "at item " << i;
    ASSERT_EQ(scalar.live_count(), batched.live_count()) << "at item " << i;
    ASSERT_EQ(am_scalar.threshold(), am_batched.threshold())
        << "amortized, at item " << i;
    ASSERT_EQ(am_scalar.admitted(), am_batched.admitted())
        << "amortized, at item " << i;
    ASSERT_EQ(sa_scalar.threshold(), sa_batched.threshold())
        << "sampled, at item " << i;
    ASSERT_EQ(sa_scalar.admitted(), sa_batched.admitted())
        << "sampled, at item " << i;
    ASSERT_EQ(sa_scalar.live_count(), sa_batched.live_count())
        << "sampled, at item " << i;
    if (++chunks % 64 == 0) {  // query is O(capacity): sample it
      ASSERT_EQ(snapshot(scalar), snapshot(batched)) << "at item " << i;
      ASSERT_EQ(snapshot(am_scalar), snapshot(am_batched))
          << "amortized, at item " << i;
      ASSERT_EQ(snapshot(sa_scalar), snapshot(sa_batched))
          << "sampled, at item " << i;
    }
  }

  EXPECT_EQ(snapshot(scalar), snapshot(batched));
  EXPECT_EQ(snapshot(am_scalar), snapshot(am_batched));
  EXPECT_EQ(snapshot(sa_scalar), snapshot(sa_batched));
  // The sampled policy's RNG draws must line up too: same pivot passes
  // and the same exact fallbacks on both paths.
  EXPECT_EQ(sa_scalar.sampled_passes(), sa_batched.sampled_passes());
  EXPECT_EQ(sa_scalar.exact_fallbacks(), sa_batched.exact_fallbacks());
  // Exact sequence (order included): the batch path must end iterations at
  // precisely the scalar points with bit-identical array state.
  EXPECT_EQ(scalar_evicted, batched_evicted);
}

std::vector<BatchFuzzParam> batch_fuzz_grid() {
  std::vector<BatchFuzzParam> g;
  std::uint64_t seed = 101;
  for (const StreamKind kind :
       {StreamKind::kRandom, StreamKind::kAllTies, StreamKind::kMonotone,
        StreamKind::kNanLaced}) {
    g.push_back(BatchFuzzParam{seed++, 17, 0.3, 60'000, kind});
    g.push_back(BatchFuzzParam{seed++, 1000, 0.25, 200'000, kind});
  }
  // Acceptance-scale streams: ≥ 1M items through the batch path.
  g.push_back(
      BatchFuzzParam{seed++, 1000, 0.25, 1'000'000, StreamKind::kRandom});
  g.push_back(
      BatchFuzzParam{seed++, 1000, 0.25, 1'000'000, StreamKind::kNanLaced});
  return g;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchDifferentialFuzz, ::testing::ValuesIn(batch_fuzz_grid()),
    [](const auto& param_info) {
      const auto& p = param_info.param;
      std::string name = "s";
      name += std::to_string(p.seed);
      name += "_q";
      name += std::to_string(p.q);
      name += "_n";
      name += std::to_string(p.n / 1000);
      name += "k_k";
      name += std::to_string(static_cast<int>(p.kind));
      return name;
    });

}  // namespace
