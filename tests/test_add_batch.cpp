// Unit tests for the batched ingestion path (add_batch): Ψ-screen
// edge cases on the core reservoir, and scalar-equivalence on every
// variant (amortized, sliding, time-sliding, exp-decay). The heavy
// randomized batch-vs-scalar differential lives in
// test_fuzz_differential.cpp; these tests pin down the named corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/concepts.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/qmax.hpp"
#include "qmax/qmin.hpp"
#include "qmax/sliding.hpp"
#include "qmax/small_domain_window.hpp"
#include "qmax/time_sliding.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::Entry;
using qmax::ExpDecayQMax;
using qmax::QMax;
using qmax::QMin;
using qmax::SlackQMax;
using qmax::SmallDomainWindowMax;
using qmax::TimeSlackQMax;
using qmax::common::Xoshiro256;

static_assert(qmax::BatchReservoir<QMax<>>);
static_assert(qmax::BatchReservoir<AmortizedQMax<>>);

template <typename R>
std::vector<std::pair<double, std::uint64_t>> sorted_query(const R& r) {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (const auto& e : r.query()) out.emplace_back(e.val, e.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> iota_ids(std::size_t n, std::uint64_t base = 0) {
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = base + i;
  return ids;
}

// Feed `vals` to a scalar twin and a batch twin (single add_batch call)
// and require identical observable state.
void expect_twin_equal(std::size_t q, double gamma,
                       const std::vector<double>& vals,
                       std::size_t batch_size = 0) {
  QMax<> scalar(q, gamma);
  QMax<> batched(q, gamma);
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  if (batch_size == 0) batch_size = vals.size();
  for (std::size_t i = 0; i < vals.size(); i += batch_size) {
    const std::size_t m = std::min(batch_size, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
  }
  EXPECT_EQ(scalar.threshold(), batched.threshold());
  EXPECT_EQ(scalar.processed(), batched.processed());
  EXPECT_EQ(scalar.admitted(), batched.admitted());
  EXPECT_EQ(scalar.live_count(), batched.live_count());
  EXPECT_EQ(sorted_query(scalar), sorted_query(batched));
}

TEST(AddBatch, EmptyBatchIsANoOp) {
  QMax<> r(10, 0.25);
  EXPECT_EQ(r.add_batch(nullptr, nullptr, 0), 0u);
  EXPECT_EQ(r.processed(), 0u);
  EXPECT_EQ(r.live_count(), 0u);
}

TEST(AddBatch, BatchStraddlingIterationBoundary) {
  // q=8, γ=0.25 → g=1: every admission ends an iteration, so any batch
  // with >1 survivor straddles a boundary.
  QMax<> probe(8, 0.25);
  std::vector<double> vals;
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) vals.push_back(rng.uniform());
  expect_twin_equal(8, 0.25, vals, 7);
  // Larger g: batch sizes chosen to land mid-iteration and across it.
  expect_twin_equal(100, 0.5, vals, 13);
}

TEST(AddBatch, BatchLargerThanGAndPrefilterBlock) {
  // 5000-item batch ≫ g and ≫ the 512-item prefilter scan block: multiple
  // blocks and many iteration endings inside a single call.
  std::vector<double> vals;
  Xoshiro256 rng(4);
  for (int i = 0; i < 5000; ++i) vals.push_back(rng.uniform());
  expect_twin_equal(50, 0.2, vals);
}

TEST(AddBatch, AllRejectedBatchLeavesStateUntouched) {
  QMax<> r(4, 0.5);
  const std::vector<double> warm = {10, 20, 30, 40, 50, 60, 70, 80};
  const auto warm_ids = iota_ids(warm.size());
  r.add_batch(warm_ids.data(), warm.data(), warm.size());
  ASSERT_GT(r.threshold(), 1.0);
  const auto before_query = sorted_query(r);
  const std::size_t before_live = r.live_count();
  const std::uint64_t before_admitted = r.admitted();

  std::vector<double> low(1000, 0.5);  // all below Ψ
  const auto low_ids = iota_ids(low.size(), 100);
  EXPECT_EQ(r.add_batch(low_ids.data(), low.data(), low.size()), 0u);
  EXPECT_EQ(r.live_count(), before_live);
  EXPECT_EQ(r.admitted(), before_admitted);
  EXPECT_EQ(r.processed(), warm.size() + low.size());
  EXPECT_EQ(sorted_query(r), before_query);
}

TEST(AddBatch, NaNAndEmptyValueInsideBatch) {
  std::vector<double> vals;
  Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    if (i % 7 == 0) {
      vals.push_back(std::nan(""));
    } else if (i % 11 == 0) {
      vals.push_back(qmax::kEmptyValue<double>);
    } else {
      vals.push_back(rng.uniform());
    }
  }
  expect_twin_equal(16, 0.25, vals, 37);
  // All-invalid batch admits nothing.
  QMax<> r(8, 0.25);
  std::vector<double> bad(64, std::nan(""));
  const auto ids = iota_ids(bad.size());
  EXPECT_EQ(r.add_batch(ids.data(), bad.data(), bad.size()), 0u);
  EXPECT_EQ(r.processed(), bad.size());
  EXPECT_EQ(r.live_count(), 0u);
}

TEST(AddBatch, SpanOverloadMatchesPointerOverload) {
  std::vector<double> vals;
  Xoshiro256 rng(6);
  for (int i = 0; i < 1000; ++i) vals.push_back(rng.uniform());
  QMax<> by_ptr(32, 0.3);
  QMax<> by_span(32, 0.3);
  const auto ids = iota_ids(vals.size());
  by_ptr.add_batch(ids.data(), vals.data(), vals.size());
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    entries.push_back(Entry{ids[i], vals[i]});
  }
  by_span.add_batch(std::span<const Entry>(entries));
  EXPECT_EQ(by_ptr.threshold(), by_span.threshold());
  EXPECT_EQ(by_ptr.admitted(), by_span.admitted());
  EXPECT_EQ(sorted_query(by_ptr), sorted_query(by_span));
}

TEST(AddBatch, EvictionCallbackSequenceMatchesScalar) {
  std::vector<double> vals;
  Xoshiro256 rng(7);
  for (int i = 0; i < 3000; ++i) vals.push_back(rng.uniform());
  QMax<> scalar(20, 0.4);
  QMax<> batched(20, 0.4);
  std::vector<Entry> sc_ev, ba_ev;
  scalar.set_evict_callback([&](const Entry& e) { sc_ev.push_back(e); });
  batched.set_evict_callback([&](const Entry& e) { ba_ev.push_back(e); });
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  for (std::size_t i = 0; i < vals.size(); i += 59) {
    const std::size_t m = std::min<std::size_t>(59, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
  }
  EXPECT_EQ(sc_ev, ba_ev);  // exact sequence, not just multiset
}

TEST(AddBatch, AmortizedVariantMatchesScalar) {
  std::vector<double> vals;
  Xoshiro256 rng(8);
  for (int i = 0; i < 4000; ++i) vals.push_back(rng.uniform());
  AmortizedQMax<> scalar(64, 0.3);
  AmortizedQMax<> batched(64, 0.3);
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  for (std::size_t i = 0; i < vals.size(); i += 77) {
    const std::size_t m = std::min<std::size_t>(77, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
  }
  EXPECT_EQ(scalar.threshold(), batched.threshold());
  EXPECT_EQ(scalar.processed(), batched.processed());
  EXPECT_EQ(scalar.admitted(), batched.admitted());
  EXPECT_EQ(sorted_query(scalar), sorted_query(batched));
}

template <typename S>
void feed_window_twins(S& scalar, S& batched, const std::vector<double>& vals,
                       std::size_t batch_size) {
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  for (std::size_t i = 0; i < vals.size(); i += batch_size) {
    const std::size_t m = std::min(batch_size, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
  }
}

TEST(AddBatch, SlidingWindowVariantsMatchScalar) {
  std::vector<double> vals;
  Xoshiro256 rng(9);
  for (int i = 0; i < 6000; ++i) vals.push_back(rng.uniform());
  auto factory = [] { return QMax<>(16, 0.25); };
  struct Cfg {
    std::size_t levels;
    bool lazy;
  };
  for (const Cfg cfg : {Cfg{1, false}, Cfg{2, false}, Cfg{2, true}}) {
    SlackQMax<QMax<>> scalar(
        1000, 0.1, factory,
        {.levels = cfg.levels, .lazy = cfg.lazy});
    SlackQMax<QMax<>> batched(
        1000, 0.1, factory,
        {.levels = cfg.levels, .lazy = cfg.lazy});
    // 97 is coprime to the 100-item finest block: batches straddle block
    // boundaries (and lazy-mode flush points) constantly.
    feed_window_twins(scalar, batched, vals, 97);
    EXPECT_EQ(scalar.processed(), batched.processed());
    EXPECT_EQ(sorted_query(scalar), sorted_query(batched))
        << "levels=" << cfg.levels << " lazy=" << cfg.lazy;
    EXPECT_EQ(scalar.last_coverage(), batched.last_coverage());
  }
}

TEST(AddBatch, TimeSlidingVariantMatchesScalar) {
  Xoshiro256 rng(10);
  std::vector<double> vals;
  std::vector<std::uint64_t> ts;
  std::uint64_t now = 0;
  for (int i = 0; i < 5000; ++i) {
    vals.push_back(rng.uniform());
    now += rng.bounded(5);  // bursts (repeats) and quiet gaps
    ts.push_back(now);
  }
  auto factory = [] { return QMax<>(16, 0.25); };
  TimeSlackQMax<QMax<>> scalar(500, 0.2, factory);
  TimeSlackQMax<QMax<>> batched(500, 0.2, factory);
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    scalar.add(ids[i], vals[i], ts[i]);
  }
  for (std::size_t i = 0; i < vals.size(); i += 83) {
    const std::size_t m = std::min<std::size_t>(83, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, ts.data() + i, m);
  }
  EXPECT_EQ(scalar.processed(), batched.processed());
  EXPECT_EQ(scalar.now(), batched.now());
  EXPECT_EQ(sorted_query(scalar), sorted_query(batched));
  EXPECT_EQ(scalar.last_coverage(), batched.last_coverage());
}

TEST(AddBatch, TimeSlidingRejectsBackwardsTimestampsInBatch) {
  auto factory = [] { return QMax<>(8, 0.25); };
  TimeSlackQMax<QMax<>> w(100, 0.5, factory);
  const std::uint64_t ids[] = {0, 1, 2};
  const double vals[] = {1.0, 2.0, 3.0};
  const std::uint64_t ts[] = {10, 20, 5};  // goes back mid-batch
  EXPECT_THROW(w.add_batch(ids, vals, ts, 3), std::invalid_argument);
  // Like the scalar path, items before the offending one were ingested.
  EXPECT_EQ(w.processed(), 2u);
  EXPECT_EQ(w.now(), 20u);
}

TEST(AddBatch, ExpDecayVariantMatchesScalar) {
  // Invalid weights (zero, negative, inf, NaN) still consume a time index;
  // the decay shift per item must use its absolute arrival position.
  Xoshiro256 rng(11);
  std::vector<double> vals;
  for (int i = 0; i < 4000; ++i) {
    if (i % 13 == 0) {
      vals.push_back(0.0);
    } else if (i % 17 == 0) {
      vals.push_back(std::numeric_limits<double>::infinity());
    } else if (i % 19 == 0) {
      vals.push_back(std::nan(""));
    } else {
      vals.push_back(rng.uniform() * 100.0 + 1e-3);
    }
  }
  ExpDecayQMax<> scalar(32, 0.999, 0.25);
  ExpDecayQMax<> batched(32, 0.999, 0.25);
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  std::size_t i = 0;
  std::size_t step = 1;
  while (i < vals.size()) {  // varying batch sizes, including 1
    const std::size_t m = std::min(step, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
    i += m;
    step = step * 2 % 1023 + 1;
  }
  EXPECT_EQ(scalar.processed(), batched.processed());
  EXPECT_EQ(scalar.inner().threshold(), batched.inner().threshold());
  EXPECT_EQ(scalar.inner().processed(), batched.inner().processed());
  std::vector<std::pair<double, std::uint64_t>> sq, bq;
  for (const auto& e : scalar.query_log()) sq.emplace_back(e.val, e.id);
  for (const auto& e : batched.query_log()) bq.emplace_back(e.val, e.id);
  std::sort(sq.begin(), sq.end());
  std::sort(bq.begin(), bq.end());
  EXPECT_EQ(sq, bq);
}

TEST(AddBatch, TelemetryCountsPrefilterRejections) {
  // Shape holds in every build; non-zero values only with the gate on.
  QMax<> r(4, 0.5);
  const std::vector<double> warm = {10, 20, 30, 40, 50, 60, 70, 80};
  const auto warm_ids = iota_ids(warm.size());
  r.add_batch(warm_ids.data(), warm.data(), warm.size());
  const std::uint64_t rejected_before = r.telem().prefilter_rejected.value();
  std::vector<double> low(100, 0.5);
  const auto low_ids = iota_ids(low.size(), 8);
  r.add_batch(low_ids.data(), low.data(), low.size());
  if constexpr (qmax::telemetry::kEnabled) {
    EXPECT_EQ(r.telem().batch_calls.value(), 2u);
    // All 100 low items are screened out by the Ψ comparison.
    EXPECT_EQ(r.telem().prefilter_rejected.value(), rejected_before + 100);
    EXPECT_EQ(r.telem().batch_survivors.count(), 2u);
  } else {
    EXPECT_EQ(r.telem().batch_calls.value(), 0u);
  }
}

}  // namespace

TEST(AddBatch, QMinVariantMatchesScalar) {
  std::vector<double> vals;
  Xoshiro256 rng(12);
  for (int i = 0; i < 4000; ++i) vals.push_back(rng.uniform());
  // A few adversarial values: NaN is rejected on both paths, negatives
  // and zeros exercise the sign flip around -0.0.
  vals[100] = std::numeric_limits<double>::quiet_NaN();
  vals[200] = 0.0;
  vals[300] = -0.0;
  vals[400] = -vals[401];
  QMin<QMax<>> scalar(64, 0.25);
  QMin<QMax<>> batched(64, 0.25);
  const auto ids = iota_ids(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) scalar.add(ids[i], vals[i]);
  for (std::size_t i = 0; i < vals.size(); i += 613) {
    const std::size_t m = std::min<std::size_t>(613, vals.size() - i);
    batched.add_batch(ids.data() + i, vals.data() + i, m);
  }
  EXPECT_EQ(scalar.threshold(), batched.threshold());
  EXPECT_EQ(scalar.inner().processed(), batched.inner().processed());
  EXPECT_EQ(scalar.inner().admitted(), batched.inner().admitted());
  EXPECT_EQ(scalar.live_count(), batched.live_count());
  EXPECT_EQ(sorted_query(scalar), sorted_query(batched));
}

TEST(AddBatch, SmallDomainWindowVariantMatchesScalar) {
  Xoshiro256 rng(13);
  std::vector<std::uint64_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(rng.bounded(50));
    vals.push_back(rng.uniform());
  }
  SmallDomainWindowMax<double> scalar(50, 400, 0.25);
  SmallDomainWindowMax<double> batched(50, 400, 0.25);
  for (std::size_t i = 0; i < keys.size(); ++i) scalar.add(keys[i], vals[i]);
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    const std::size_t m = std::min<std::size_t>(97, keys.size() - i);
    batched.add_batch(keys.data() + i, vals.data() + i, m);
  }
  EXPECT_EQ(scalar.processed(), batched.processed());
  for (const std::size_t q : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}}) {
    auto lhs = scalar.query(q);
    auto rhs = batched.query(q);
    auto by_key = [](const auto& a, const auto& b) { return a.id < b.id; };
    std::sort(lhs.begin(), lhs.end(), by_key);
    std::sort(rhs.begin(), rhs.end(), by_key);
    ASSERT_EQ(lhs.size(), rhs.size()) << "q=" << q;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].id, rhs[i].id);
      EXPECT_EQ(lhs[i].val, rhs[i].val);
    }
  }
}

TEST(AddBatch, SmallDomainWindowBatchThrowsLikeScalar) {
  SmallDomainWindowMax<double> w(8, 100, 0.5);
  const std::uint64_t keys[3] = {1, 2, 99};  // third is out of domain
  const double vals[3] = {0.1, 0.2, 0.3};
  EXPECT_THROW(w.add_batch(keys, vals, 3), std::out_of_range);
  // The preceding in-domain items were ingested, exactly like scalar adds.
  EXPECT_EQ(w.processed(), 2u);
}
