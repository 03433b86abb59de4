// Unit tests for the deamortized q-MAX reservoir (Algorithm 1) and the
// amortized variant.
#include "qmax/qmax.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/random.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/qmin.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::Entry;
using qmax::QMax;
using qmax::QMin;
using qmax::common::Xoshiro256;

std::vector<double> top_q_oracle(std::vector<double> vals, std::size_t q) {
  std::sort(vals.begin(), vals.end(), std::greater<>());
  if (vals.size() > q) vals.resize(q);
  return vals;
}

template <typename R>
std::vector<double> queried_values(const R& r) {
  std::vector<double> out;
  for (const auto& e : r.query()) out.push_back(e.val);
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

TEST(QMax, RejectsInvalidParameters) {
  EXPECT_THROW(QMax<>(0, 0.25), std::invalid_argument);
  EXPECT_THROW(QMax<>(10, 0.0), std::invalid_argument);
  EXPECT_THROW(QMax<>(10, -1.0), std::invalid_argument);
}

TEST(QMax, CapacityMatchesTheorem1) {
  // Space is q + 2g = q(1 + γ) up to rounding of g = ⌈qγ/2⌉.
  QMax<> r(1000, 0.5);
  EXPECT_EQ(r.capacity(), 1000 + 2 * 250);
  QMax<> tiny(10, 0.01);  // g clamps to 1
  EXPECT_EQ(tiny.capacity(), 12);
}

TEST(QMax, ShortStreamReturnsEverything) {
  QMax<> r(100, 0.25);
  for (int i = 0; i < 7; ++i) r.add(i, i * 1.5);
  auto vals = queried_values(r);
  EXPECT_EQ(vals.size(), 7u);
  EXPECT_DOUBLE_EQ(vals.front(), 9.0);
  EXPECT_DOUBLE_EQ(vals.back(), 0.0);
}

TEST(QMax, ExactTopQOnRandomStream) {
  const std::size_t q = 64;
  QMax<> r(q, 0.25);
  Xoshiro256 rng(42);
  std::vector<double> all;
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.uniform() * 1e6;
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(QMax, ExactTopQOnAscendingStream) {
  // Ascending values: every single item is admitted (worst-case update
  // pattern — the selection machinery runs continuously).
  const std::size_t q = 50;
  QMax<> r(q, 0.1);
  std::vector<double> all;
  for (int i = 0; i < 10'000; ++i) {
    all.push_back(i);
    r.add(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(QMax, ExactTopQOnDescendingStream) {
  // Descending values: after the warmup, nothing beats Ψ.
  const std::size_t q = 50;
  QMax<> r(q, 0.1);
  std::vector<double> all;
  for (int i = 10'000; i > 0; --i) {
    all.push_back(i);
    r.add(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(QMax, ConstantStream) {
  const std::size_t q = 32;
  QMax<> r(q, 0.5);
  for (int i = 0; i < 5'000; ++i) r.add(i, 3.25);
  auto vals = queried_values(r);
  EXPECT_EQ(vals.size(), q);
  for (double v : vals) EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(QMax, SawtoothStream) {
  const std::size_t q = 77;
  QMax<> r(q, 0.3);
  std::vector<double> all;
  for (int i = 0; i < 30'000; ++i) {
    const double v = static_cast<double>(i % 997);
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(QMax, ThresholdIsMonotoneAndSound) {
  const std::size_t q = 128;
  QMax<> r(q, 0.25);
  Xoshiro256 rng(1);
  std::vector<double> all;
  double last_psi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < 50'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
    const double psi = r.threshold();
    EXPECT_GE(psi, last_psi) << "threshold must be monotone";
    last_psi = psi;
  }
  // Ψ never exceeds the true q-th largest (otherwise top-q items could be
  // rejected at the door).
  auto oracle = top_q_oracle(all, q);
  EXPECT_LE(r.threshold(), oracle.back());
}

TEST(QMax, ReturnedIdsComeFromTheStream) {
  const std::size_t q = 40;
  QMax<> r(q, 0.2);
  Xoshiro256 rng(9);
  std::map<std::uint64_t, double> stream;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const double v = rng.uniform() * 100;
    stream[i] = v;
    r.add(i, v);
  }
  for (const auto& e : r.query()) {
    auto it = stream.find(e.id);
    ASSERT_NE(it, stream.end());
    EXPECT_DOUBLE_EQ(it->second, e.val);
  }
}

TEST(QMax, EvictionConservation) {
  // Every admitted item is either still live or was reported evicted
  // exactly once — the side-table contract PBA and LRFU rely on.
  const std::size_t q = 64;
  QMax<> r(q, 0.5);
  std::uint64_t evicted = 0;
  r.set_evict_callback([&](const Entry&) { ++evicted; });
  Xoshiro256 rng(5);
  std::uint64_t admitted = 0;
  for (int i = 0; i < 30'000; ++i) {
    if (r.add(static_cast<std::uint64_t>(i), rng.uniform())) ++admitted;
  }
  EXPECT_EQ(admitted, r.admitted());
  EXPECT_EQ(admitted, evicted + r.live_count());
}

TEST(QMax, ResetRestoresFreshState) {
  QMax<> r(16, 0.25);
  Xoshiro256 rng(2);
  for (int i = 0; i < 1'000; ++i) r.add(i, rng.uniform());
  r.reset();
  EXPECT_EQ(r.live_count(), 0u);
  EXPECT_EQ(r.processed(), 0u);
  EXPECT_EQ(r.threshold(), qmax::kEmptyValue<double>);
  std::vector<double> all;
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, 16));
}

TEST(QMax, ResetClearsLateSelections) {
  // budget_factor = 0 gives the selection no per-step allowance, so every
  // iteration ends with the synchronous safety net — a guaranteed way to
  // accumulate late_selections, which reset() must clear along with the
  // rest of the state.
  QMax<> r(64, QMax<>::Options{.gamma = 0.5, .budget_factor = 0});
  for (int i = 0; i < 10'000; ++i) {
    r.add(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  ASSERT_GT(r.late_selections(), 0u);
  r.reset();
  EXPECT_EQ(r.late_selections(), 0u);
  EXPECT_EQ(r.admitted(), 0u);
}

TEST(QMax, RejectsNaN) {
  QMax<> r(4, 0.25);
  EXPECT_FALSE(r.add(1, std::numeric_limits<double>::quiet_NaN()));
  r.add(2, 1.0);
  EXPECT_EQ(r.query().size(), 1u);
}

TEST(QMax, AcceptsInfinities) {
  QMax<> r(3, 0.5);
  r.add(1, std::numeric_limits<double>::infinity());
  r.add(2, -1e308);
  r.add(3, 0.0);
  auto vals = queried_values(r);
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_TRUE(std::isinf(vals.front()));
}

TEST(QMax, QOneTinyGamma) {
  QMax<> r(1, 0.001);
  Xoshiro256 rng(77);
  double best = -1;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform();
    best = std::max(best, v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  auto res = r.query();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_DOUBLE_EQ(res[0].val, best);
}

TEST(QMax, DeamortizedSelectionFinishesOnTime) {
  // The per-step budget must complete the selection within each iteration
  // on benign streams; late_selections() counts the safety-net firings.
  QMax<> r(10'000, 0.05);
  Xoshiro256 rng(123);
  for (int i = 0; i < 500'000; ++i) {
    r.add(static_cast<std::uint64_t>(i), rng.uniform());
  }
  EXPECT_EQ(r.late_selections(), 0u);
}

// The same guarantee at the paper's scale (q = 10^6). Each cell is a
// uniform stream on which median-of-3 pivots ran late: the first late
// selection fired at item 1,037,757 (γ = 0.025, seed 1) and 4,554,341
// (γ = 0.05, seed 6). Sampled first pivots finish these on time.
void expect_no_late_selection(double gamma, std::uint64_t seed,
                              std::size_t items) {
  QMax<> r(1'000'000, gamma);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> ids(1 << 16);
  std::vector<double> vals(ids.size());
  for (std::size_t base = 0; base < items; base += ids.size()) {
    const std::size_t n = std::min(ids.size(), items - base);
    for (std::size_t j = 0; j < n; ++j) {
      ids[j] = base + j;
      vals[j] = rng.uniform();
    }
    r.add_batch(ids.data(), vals.data(), n);
  }
  EXPECT_EQ(r.late_selections(), 0u) << "gamma " << gamma << " seed " << seed;
}

TEST(QMax, DeamortizedSelectionFinishesOnTimeAtPaperScaleSmallGamma) {
  expect_no_late_selection(0.025, 1, 2'000'000);
}

TEST(QMax, DeamortizedSelectionFinishesOnTimeAtPaperScale) {
  expect_no_late_selection(0.05, 6, 5'000'000);
}

TEST(QMax, StepsPerAddCountsTheIterationEnd) {
  // With no per-step budget the selection never advances inside an
  // iteration, so every selection runs synchronously in the admission that
  // ends it. That admission must record the work: at least one pass over
  // the q + g candidates.
  if constexpr (!qmax::telemetry::kEnabled) {
    GTEST_SKIP() << "steps_per_add is an instrumented-build histogram";
  }
  const std::size_t q = 4096;
  QMax<> r(q, {.gamma = 0.25, .budget_factor = 0});
  for (std::size_t i = 0; i < 20 * q; ++i) {
    r.add(i, static_cast<double>(i));
  }
  EXPECT_GT(r.late_selections(), 0u);
  EXPECT_GE(r.telem().steps_per_add.max(), q);
}

TEST(QMax, StepsPerAddCountsTheEvictionWalk) {
  // At the default budget every selection finishes inside its iteration,
  // yet the admission that ends one still walks the g loser slots. That
  // walk is part of the admission's work and must reach the histogram.
  if constexpr (!qmax::telemetry::kEnabled) {
    GTEST_SKIP() << "steps_per_add is an instrumented-build histogram";
  }
  const std::size_t q = 4096;
  const std::size_t g = 512;  // ⌈qγ/2⌉ at γ = 0.25
  QMax<> r(q, 0.25);
  Xoshiro256 rng(21);
  for (std::size_t i = 0; i < 20 * q; ++i) r.add(i, rng.uniform());
  EXPECT_EQ(r.late_selections(), 0u);
  EXPECT_GE(r.telem().steps_per_add.max(), g);
}

TEST(QMax, LargeGammaLargerThanOne) {
  const std::size_t q = 25;
  QMax<> r(q, 2.0);  // γ = 200%, the paper's largest setting
  Xoshiro256 rng(4);
  std::vector<double> all;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(AmortizedQMax, MatchesOracle) {
  const std::size_t q = 100;
  AmortizedQMax<> r(q, 0.25);
  Xoshiro256 rng(8);
  std::vector<double> all;
  for (int i = 0; i < 25'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(r), top_q_oracle(all, q));
}

TEST(AmortizedQMax, AgreesWithDeamortized) {
  const std::size_t q = 33;
  AmortizedQMax<> a(q, 0.4);
  QMax<> d(q, 0.4);
  Xoshiro256 rng(15);
  for (int i = 0; i < 40'000; ++i) {
    const double v = std::floor(rng.uniform() * 5000.0);
    a.add(static_cast<std::uint64_t>(i), v);
    d.add(static_cast<std::uint64_t>(i), v);
  }
  EXPECT_EQ(queried_values(a), queried_values(d));
}

TEST(QMin, TracksSmallest) {
  QMin<QMax<>> r(64, 0.25);
  Xoshiro256 rng(21);
  std::vector<double> all;
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.uniform();
    all.push_back(v);
    r.add(static_cast<std::uint64_t>(i), v);
  }
  std::sort(all.begin(), all.end());
  all.resize(64);
  std::vector<double> got;
  for (const auto& e : r.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, all);
}

TEST(QMin, ThresholdBoundsAdmission) {
  QMin<QMax<>> r(8, 0.5);
  for (int i = 0; i < 1'000; ++i) {
    r.add(static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  // After 1000 ascending values the 8 smallest are 0..7; the admission
  // bound must be sound (no smaller than the true 8th smallest).
  EXPECT_LE(r.threshold(), 1000.0);
  auto vals = r.query();
  ASSERT_EQ(vals.size(), 8u);
  for (const auto& e : vals) EXPECT_LT(e.val, 8.0);
}

}  // namespace
