// Trace-replay differential suite for the ReservoirCore refactor.
//
// Two complementary pins on "the refactor changed nothing":
//
//  1. Live differentials against seed_reference.hpp — frozen copies of the
//     pre-refactor implementations. Every add()/access() return value, the
//     full Ψ trajectory (bit-compared), periodic query results, and the
//     bookkeeping counters must match item by item, on adversarial traces
//     (NaN-laced, heavily tied, monotone-increasing, duplicate-keyed).
//  2. Burned-in behavior hashes ("goldens") recorded from the seed build:
//     a FNV-1a fold over every externally observable event of a scripted
//     run. These freeze today's behavior against drift in *both* the
//     production code and the reference copies. Regenerate with
//     QMAX_PRINT_GOLDENS=1 ./qmax_tests --gtest_filter='CoreDifferential.Golden*'
//     only when a behavior change is intentional.
//
// The suite also owns the canonical reset() contract (PR 1 fixed
// QMax::reset() forgetting late_selections_; this generalizes that audit):
// for every variant, a reset() instance must be behaviorally
// indistinguishable from a freshly constructed one on any subsequent trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "cache/lrfu_exact.hpp"
#include "cache/lrfu_qmax.hpp"
#include "cache/lrfu_qmax_deamortized.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/qmax.hpp"
#include "qmax/qmin.hpp"
#include "qmax/sampled_qmax.hpp"
#include "qmax/sharded.hpp"
#include "qmax/sliding.hpp"
#include "qmax/small_domain_window.hpp"
#include "qmax/time_sliding.hpp"
#include "seed_reference.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::ExpDecayQMax;
using qmax::QMax;
using qmax::QMin;
using qmax::SlackQMax;
using qmax::SmallDomainWindowMax;
using qmax::TimeSlackQMax;

// ---------------------------------------------------------------------
// Deterministic trace machinery (no std::rand, no platform RNG).
// ---------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Adversarial double-valued trace: uniform noise, heavy ties (values
/// quantized to 16 levels), monotone ramps (every selection must keep up
/// with a rising Ψ), NaN poison, zeros and negatives. All values are exact
/// small integers scaled by powers of two, so arithmetic is reproducible
/// bit-for-bit on any IEEE-754 platform.
std::vector<double> adversarial_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix64(s);
    switch (r % 16) {
      case 0:  // tie-heavy plateau
        v[i] = static_cast<double>(r % 16) * 0.25;
        break;
      case 1:  // monotone ramp segment
        v[i] = static_cast<double>(i);
        break;
      case 2:
        v[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 3:
        v[i] = 0.0;
        break;
      case 4:
        v[i] = -static_cast<double>(r % 1024);
        break;
      default:  // exact-integer uniform noise
        v[i] = static_cast<double>(r % (1ull << 40));
        break;
    }
  }
  return v;
}

/// Positive finite weights for the decay/cache variants (their admission
/// guard drops non-positive values before anything interesting happens).
std::vector<double> positive_weights(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(splitmix64(s) % 65536 + 1);
  }
  return v;
}

/// Skewed key stream for the caches: ~80% of references hit a hot set.
std::vector<std::uint64_t> skewed_keys(std::size_t n, std::uint64_t seed,
                                       std::uint64_t hot, std::uint64_t cold) {
  std::vector<std::uint64_t> k(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix64(s);
    k[i] = (r % 5 != 0) ? (r >> 32) % hot : hot + (r >> 32) % cold;
  }
  return k;
}

// ---------------------------------------------------------------------
// Behavior hashing (FNV-1a over every observable event).
// ---------------------------------------------------------------------

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void b(bool x) { u64(x ? 1 : 0); }
  void d(double x) { u64(std::bit_cast<std::uint64_t>(x)); }
};

template <typename EntryT>
void hash_query(Hasher& hh, std::vector<EntryT> out) {
  std::sort(out.begin(), out.end(), [](const EntryT& a, const EntryT& b) {
    if (a.val != b.val) return a.val < b.val;
    return a.id < b.id;
  });
  hh.u64(out.size());
  for (const EntryT& e : out) {
    hh.u64(static_cast<std::uint64_t>(e.id));
    if constexpr (std::is_floating_point_v<decltype(e.val)>) {
      hh.d(e.val);
    } else {
      hh.u64(static_cast<std::uint64_t>(e.val));
    }
  }
}

// ---------------------------------------------------------------------
// Per-variant drive functions: run a scripted trace, fold every
// observable into a hash. Reused by the golden tests (hash vs constant)
// and the reset-equals-fresh tests (hash(reset) vs hash(fresh)).
// ---------------------------------------------------------------------

template <typename R>
std::uint64_t drive_reservoir(R& r, const std::vector<double>& vals) {
  Hasher hh;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    hh.b(r.add(i, vals[i]));
    hh.d(r.threshold());
    if (i % 509 == 0) hash_query(hh, r.query());
  }
  hash_query(hh, r.query());
  hh.u64(r.processed());
  hh.u64(r.live_count());
  return hh.h;
}

template <typename R>
std::uint64_t drive_qmin(R& r, const std::vector<double>& vals) {
  Hasher hh;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    hh.b(r.add(i, vals[i]));
    hh.d(r.threshold());
    if (i % 509 == 0) hash_query(hh, r.query());
  }
  hash_query(hh, r.query());
  hh.u64(r.live_count());
  return hh.h;
}

template <typename W>
std::uint64_t drive_window(W& w, const std::vector<double>& vals) {
  Hasher hh;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    w.add(i, vals[i]);
    if (i % 701 == 0) {
      hash_query(hh, w.query());
      hh.u64(w.last_coverage());
    }
  }
  hash_query(hh, w.query());
  hh.u64(w.last_coverage());
  hh.u64(w.live_count());
  return hh.h;
}

template <typename W>
std::uint64_t drive_time_window(W& w, const std::vector<double>& vals,
                                std::uint64_t seed) {
  Hasher hh;
  std::uint64_t s = seed;
  std::uint64_t now = 0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    now += (i % 97 == 0) ? 400 : splitmix64(s) % 3;
    hh.b(w.add(i, vals[i], now));
    if (i % 701 == 0) {
      hash_query(hh, w.query());
      hh.u64(w.last_coverage());
    }
  }
  hash_query(hh, w.query());
  hh.u64(w.live_count());
  hh.u64(w.now());
  return hh.h;
}

template <typename W>
std::uint64_t drive_small_domain(W& w, const std::vector<double>& vals,
                                 std::uint64_t domain) {
  Hasher hh;
  std::uint64_t s = 77;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    w.add(splitmix64(s) % domain, vals[i]);
    if (i % 701 == 0) hash_query(hh, w.query(8));
  }
  hash_query(hh, w.query(8));
  hh.u64(w.processed());
  return hh.h;
}

template <typename C>
std::uint64_t drive_cache(C& c, const std::vector<std::uint64_t>& keys) {
  Hasher hh;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hh.b(c.access(keys[i]));
    if (i % 701 == 0) hh.u64(c.size());
  }
  hh.u64(c.size());
  hh.u64(c.hits());
  return hh.h;
}

std::uint64_t drive_exp_decay(ExpDecayQMax<>& r,
                              const std::vector<double>& vals) {
  Hasher hh;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    hh.b(r.add(i, vals[i]));
    if (i % 701 == 0) hash_query(hh, r.query_log());
  }
  hash_query(hh, r.query_log());
  hh.u64(r.processed());
  hh.u64(r.live_count());
  return hh.h;
}

// ---------------------------------------------------------------------
// Part 1 — live differentials vs. the frozen seed implementations.
// ---------------------------------------------------------------------

TEST(CoreDifferential, QMaxMatchesSeedReferenceOnAdversarialTraces) {
  struct Config {
    std::size_t q;
    double gamma;
    unsigned budget;
  };
  for (const Config cfg : {Config{64, 0.25, 4}, Config{100, 1.0, 4},
                           Config{7, 0.05, 4}, Config{64, 0.25, 0},
                           Config{1, 2.0, 4}}) {
    QMax<> neu(cfg.q, QMax<>::Options{.gamma = cfg.gamma,
                                      .budget_factor = cfg.budget});
    seedref::QMax<> ref(cfg.q, cfg.gamma, cfg.budget);
    const auto vals = adversarial_doubles(40'000, 11 + cfg.q);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      ASSERT_EQ(neu.add(i, vals[i]), ref.add(i, vals[i]))
          << "q=" << cfg.q << " step " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(neu.threshold()),
                std::bit_cast<std::uint64_t>(ref.threshold()))
          << "q=" << cfg.q << " step " << i;
      if (i % 997 == 0) {
        Hasher a, b;
        hash_query(a, neu.query());
        hash_query(b, ref.query());
        ASSERT_EQ(a.h, b.h) << "q=" << cfg.q << " step " << i;
      }
    }
    EXPECT_EQ(neu.processed(), ref.processed());
    EXPECT_EQ(neu.admitted(), ref.admitted());
    EXPECT_EQ(neu.live_count(), ref.live_count());
    EXPECT_EQ(neu.late_selections(), ref.late_selections());
    Hasher a, b;
    hash_query(a, neu.query());
    hash_query(b, ref.query());
    EXPECT_EQ(a.h, b.h);
  }
}

TEST(CoreDifferential, QMaxBatchMatchesSeedReferenceScalar) {
  // The batched path must be indistinguishable from the *seed* scalar
  // implementation, not merely from today's scalar path.
  QMax<> neu(128, 0.25);
  seedref::QMax<> ref(128, 0.25);
  const auto vals = adversarial_doubles(60'000, 99);
  std::vector<std::uint64_t> ids(vals.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;

  std::uint64_t s = 5;
  std::size_t i = 0;
  while (i < vals.size()) {
    const std::size_t run =
        std::min<std::size_t>(1 + splitmix64(s) % 300, vals.size() - i);
    std::size_t ref_admitted = 0;
    for (std::size_t j = i; j < i + run; ++j) {
      ref_admitted += static_cast<std::size_t>(ref.add(ids[j], vals[j]));
    }
    ASSERT_EQ(neu.add_batch(ids.data() + i, vals.data() + i, run),
              ref_admitted)
        << "batch at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(neu.threshold()),
              std::bit_cast<std::uint64_t>(ref.threshold()))
        << "batch at " << i;
    i += run;
  }
  EXPECT_EQ(neu.processed(), ref.processed());
  EXPECT_EQ(neu.admitted(), ref.admitted());
  Hasher a, b;
  hash_query(a, neu.query());
  hash_query(b, ref.query());
  EXPECT_EQ(a.h, b.h);
}

TEST(CoreDifferential, AmortizedMatchesSeedReferenceOnAdversarialTraces) {
  for (const auto& [q, gamma] : std::vector<std::pair<std::size_t, double>>{
           {64, 0.25}, {100, 1.0}, {7, 0.05}, {1, 2.0}}) {
    AmortizedQMax<> neu(q, gamma);
    seedref::AmortizedQMax<> ref(q, gamma);
    const auto vals = adversarial_doubles(40'000, 23 + q);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      ASSERT_EQ(neu.add(i, vals[i]), ref.add(i, vals[i]))
          << "q=" << q << " step " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(neu.threshold()),
                std::bit_cast<std::uint64_t>(ref.threshold()))
          << "q=" << q << " step " << i;
      if (i % 997 == 0) {
        Hasher a, b;
        hash_query(a, neu.query());
        hash_query(b, ref.query());
        ASSERT_EQ(a.h, b.h) << "q=" << q << " step " << i;
      }
    }
    EXPECT_EQ(neu.processed(), ref.processed());
    EXPECT_EQ(neu.admitted(), ref.admitted());
    EXPECT_EQ(neu.live_count(), ref.live_count());
  }
}

TEST(CoreDifferential, ExpDecayMatchesSeedReference) {
  ExpDecayQMax<> neu(32, 0.9, 0.25);
  seedref::ExpDecayQMax<> ref(32, 0.9, 0.25);
  // Positive weights with invalid values mixed in: both sides must agree
  // on which items consume a time index without being admitted.
  auto vals = positive_weights(30'000, 41);
  std::uint64_t s = 17;
  for (auto& v : vals) {
    switch (splitmix64(s) % 32) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = 0.0; break;
      case 2: v = -1.0; break;
      case 3: v = std::numeric_limits<double>::infinity(); break;
      default: break;
    }
  }
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(neu.add(i, vals[i]), ref.add(i, vals[i])) << "step " << i;
    if (i % 997 == 0) {
      Hasher a, b;
      hash_query(a, neu.query_log());
      hash_query(b, ref.query_log());
      ASSERT_EQ(a.h, b.h) << "step " << i;
    }
  }
  EXPECT_EQ(neu.processed(), ref.processed());
  Hasher a, b;
  hash_query(a, neu.query_log());
  hash_query(b, ref.query_log());
  EXPECT_EQ(a.h, b.h);
}

TEST(CoreDifferential, LrfuAmortizedMatchesSeedReference) {
  qmax::cache::LrfuQMaxCache<> neu(64, 0.99, 0.25);
  seedref::LrfuQMaxCache<> ref(64, 0.99, 0.25);
  const auto keys = skewed_keys(40'000, 7, 48, 4096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(neu.access(keys[i]), ref.access(keys[i])) << "step " << i;
    if (i % 499 == 0) {
      ASSERT_EQ(neu.size(), ref.size()) << "step " << i;
    }
  }
  EXPECT_EQ(neu.hits(), ref.hits());
  auto a = neu.ranked_keys();
  auto b = ref.ranked_keys();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].second),
              std::bit_cast<std::uint64_t>(b[i].second))
        << "rank " << i;
  }
}

TEST(CoreDifferential, LrfuDeamortizedMatchesSeedReference) {
  qmax::cache::LrfuQMaxCacheDeamortized<> neu(64, 0.99, 0.25);
  seedref::LrfuQMaxCacheDeamortized<> ref(64, 0.99, 0.25);
  const auto keys = skewed_keys(40'000, 13, 48, 4096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(neu.access(keys[i]), ref.access(keys[i])) << "step " << i;
    if (i % 499 == 0) {
      ASSERT_EQ(neu.size(), ref.size()) << "step " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(neu.score(keys[i])),
                std::bit_cast<std::uint64_t>(ref.score(keys[i])))
          << "step " << i;
    }
  }
  EXPECT_EQ(neu.hits(), ref.hits());
  EXPECT_EQ(neu.size(), ref.size());
}

// ---------------------------------------------------------------------
// Part 2 — burned-in behavior hashes recorded from the seed build.
// ---------------------------------------------------------------------

constexpr bool kPrintGoldens =
#ifdef QMAX_PRINT_GOLDENS_COMPILED
    true;
#else
    false;
#endif

void expect_golden(const char* name, std::uint64_t got,
                   std::uint64_t expected) {
  if (kPrintGoldens || std::getenv("QMAX_PRINT_GOLDENS") != nullptr) {
    printf("GOLDEN %s = 0x%016llxull\n", name,
           static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, expected)
      << name
      << ": behavior diverged from the recorded seed golden. If this "
         "change is intentional, regenerate with QMAX_PRINT_GOLDENS=1.";
}

TEST(CoreDifferential, GoldenQMax) {
  QMax<> r(64, 0.25);
  const auto vals = adversarial_doubles(20'000, 2024);
  expect_golden("qmax_q64_g25", drive_reservoir(r, vals),
                0x68dc42ac0da28aeeull);

  QMax<> tiny(3, 0.5);
  expect_golden("qmax_q3_g50", drive_reservoir(tiny, vals),
                0x13cd8ad089108707ull);
}

TEST(CoreDifferential, GoldenAmortized) {
  AmortizedQMax<> r(64, 0.25);
  const auto vals = adversarial_doubles(20'000, 2025);
  expect_golden("amortized_q64_g25", drive_reservoir(r, vals),
                0x9710e8b661b27d1bull);
}

TEST(CoreDifferential, GoldenQMin) {
  QMin<QMax<>> r(64, 0.25);
  const auto vals = adversarial_doubles(20'000, 2026);
  expect_golden("qmin_q64_g25", drive_qmin(r, vals), 0x82cecb0a057ad740ull);
}

TEST(CoreDifferential, GoldenSlackWindows) {
  const auto vals = adversarial_doubles(30'000, 2027);
  {
    auto w = qmax::make_basic_slack_qmax<QMax<>>(
        4096, 0.125, [] { return QMax<>(16, 0.5); });
    expect_golden("slack_basic", drive_window(w, vals),
                  0x6d74561d29a116a9ull);
  }
  {
    auto w = qmax::make_hier_slack_qmax<QMax<>>(
        4096, 0.125, 3, [] { return QMax<>(16, 0.5); });
    expect_golden("slack_hier3", drive_window(w, vals),
                  0x1253a23d249db767ull);
  }
  {
    auto w = qmax::make_lazy_slack_qmax<QMax<>>(
        4096, 0.125, 3, [] { return QMax<>(16, 0.5); });
    expect_golden("slack_lazy3", drive_window(w, vals),
                  0xf9d64b162b0caa7full);
  }
}

TEST(CoreDifferential, GoldenTimeSlack) {
  TimeSlackQMax<QMax<>> w(1000, 0.25, [] { return QMax<>(16, 0.5); });
  const auto vals = adversarial_doubles(20'000, 2028);
  expect_golden("time_slack", drive_time_window(w, vals, 3),
                0x8ec4e0790e8e3b64ull);
}

TEST(CoreDifferential, GoldenSmallDomainWindow) {
  SmallDomainWindowMax<double> w(256, 5000, 0.1);
  const auto vals = adversarial_doubles(20'000, 2029);
  expect_golden("small_domain", drive_small_domain(w, vals, 256),
                0x171360ff516f5b43ull);
}

TEST(CoreDifferential, GoldenExpDecay) {
  // Decay 0.5 keeps the log-domain shift at exact multiples of log(2);
  // the libm calls (log/exp) are identical on both sides of the refactor,
  // so this hash is stable wherever the tier-1 suite runs.
  ExpDecayQMax<> r(32, 0.5, 0.25);
  const auto vals = positive_weights(20'000, 2030);
  expect_golden("exp_decay", drive_exp_decay(r, vals),
                0x72e88c96a7e7b34eull);
}

TEST(CoreDifferential, GoldenLrfuCaches) {
  const auto keys = skewed_keys(30'000, 2031, 48, 4096);
  {
    qmax::cache::LrfuQMaxCache<> c(64, 0.99, 0.25);
    expect_golden("lrfu_amortized", drive_cache(c, keys),
                  0x183f5e75eac4e665ull);
  }
  {
    qmax::cache::LrfuQMaxCacheDeamortized<> c(64, 0.99, 0.25);
    expect_golden("lrfu_deamortized", drive_cache(c, keys),
                  0xf4fdd2335bbec290ull);
  }
  {
    qmax::cache::LrfuCache<> c(64, 0.99);
    expect_golden("lrfu_exact", drive_cache(c, keys),
                  0xaba37cababc001c8ull);
  }
}

// ---------------------------------------------------------------------
// Part 3 — canonical reset(): a reset instance must equal a fresh one.
// ---------------------------------------------------------------------

// Drive `dirty` through a warm-up trace, reset it, then compare its full
// observable behavior on a second trace against a never-used instance.
template <typename Make, typename Drive>
void expect_reset_equals_fresh(Make make, Drive drive) {
  auto dirty = make();
  auto fresh = make();
  const auto warmup = adversarial_doubles(9'000, 555);
  (void)drive(dirty, warmup);
  dirty.reset();
  const auto probe = adversarial_doubles(9'000, 556);
  EXPECT_EQ(drive(dirty, probe), drive(fresh, probe))
      << "reset() state differs from a freshly constructed instance";
}

TEST(CoreDifferential, ResetEqualsFreshQMax) {
  expect_reset_equals_fresh(
      [] { return QMax<>(32, 0.25); },
      [](QMax<>& r, const std::vector<double>& v) {
        Hasher hh;
        hh.u64(drive_reservoir(r, v));
        hh.u64(r.admitted());
        hh.u64(r.late_selections());
        return hh.h;
      });
  // budget_factor = 0 starves the selection so late_selections_ becomes
  // nonzero — the exact field the PR 1 bug left dangling across reset().
  expect_reset_equals_fresh(
      [] { return QMax<>(32, QMax<>::Options{.gamma = 0.5,
                                             .budget_factor = 0}); },
      [](QMax<>& r, const std::vector<double>& v) {
        Hasher hh;
        hh.u64(drive_reservoir(r, v));
        hh.u64(r.admitted());
        hh.u64(r.late_selections());
        return hh.h;
      });
}

TEST(CoreDifferential, ResetEqualsFreshAmortized) {
  expect_reset_equals_fresh(
      [] { return AmortizedQMax<>(32, 0.25); },
      [](AmortizedQMax<>& r, const std::vector<double>& v) {
        Hasher hh;
        hh.u64(drive_reservoir(r, v));
        hh.u64(r.admitted());
        return hh.h;
      });
}

TEST(CoreDifferential, ResetEqualsFreshQMin) {
  expect_reset_equals_fresh(
      [] { return QMin<QMax<>>(32, 0.25); },
      [](QMin<QMax<>>& r, const std::vector<double>& v) {
        return drive_qmin(r, v);
      });
}

TEST(CoreDifferential, ResetEqualsFreshExpDecay) {
  expect_reset_equals_fresh(
      [] { return ExpDecayQMax<>(32, 0.9, 0.25); },
      [](ExpDecayQMax<>& r, const std::vector<double>& v) {
        std::vector<double> pos(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
          pos[i] = std::abs(v[i]) + 1.0;
        }
        return drive_exp_decay(r, pos);
      });
}

TEST(CoreDifferential, ResetEqualsFreshSlackWindows) {
  for (std::size_t levels : {std::size_t{1}, std::size_t{3}}) {
    for (bool lazy : {false, true}) {
      if (lazy && levels == 1) continue;
      expect_reset_equals_fresh(
          [&] {
            return SlackQMax<QMax<>>(
                2048, 0.125, [] { return QMax<>(8, 0.5); },
                typename SlackQMax<QMax<>>::Options{.levels = levels,
                                                    .lazy = lazy});
          },
          [](SlackQMax<QMax<>>& w, const std::vector<double>& v) {
            return drive_window(w, v);
          });
    }
  }
}

TEST(CoreDifferential, ResetEqualsFreshTimeSlack) {
  expect_reset_equals_fresh(
      [] {
        return TimeSlackQMax<QMax<>>(1000, 0.25,
                                     [] { return QMax<>(8, 0.5); });
      },
      [](TimeSlackQMax<QMax<>>& w, const std::vector<double>& v) {
        return drive_time_window(w, v, 9);
      });
}

TEST(CoreDifferential, ResetEqualsFreshSmallDomain) {
  expect_reset_equals_fresh(
      [] { return SmallDomainWindowMax<double>(128, 3000, 0.1); },
      [](SmallDomainWindowMax<double>& w, const std::vector<double>& v) {
        return drive_small_domain(w, v, 128);
      });
}

TEST(CoreDifferential, ResetEqualsFreshLrfuCaches) {
  const auto drive_keys = [](auto& c, const std::vector<double>& v) {
    std::vector<std::uint64_t> keys(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      keys[i] = std::bit_cast<std::uint64_t>(v[i]) % 512;
    }
    return drive_cache(c, keys);
  };
  expect_reset_equals_fresh(
      [] { return qmax::cache::LrfuQMaxCache<>(32, 0.99, 0.25); },
      drive_keys);
  expect_reset_equals_fresh(
      [] { return qmax::cache::LrfuQMaxCacheDeamortized<>(32, 0.99, 0.25); },
      drive_keys);
  expect_reset_equals_fresh([] { return qmax::cache::LrfuCache<>(32, 0.99); },
                            drive_keys);
}

// State added after the ReservoirCore refactor that reset() must also
// clear: the sampled policy's RNG stream and pass/fallback counters, and
// the externally folded Ψ floor, here reached through the batch path.
// (ResetEqualsFreshGovernorAndFloor keeps the name it had while
// ReservoirCore also carried an adaptive batch-screen governor.)

TEST(CoreDifferential, ResetEqualsFreshSampled) {
  expect_reset_equals_fresh(
      [] { return qmax::SampledQMax<>(128, 0.5, 48); },
      [](qmax::SampledQMax<>& r, const std::vector<double>& v) {
        Hasher hh;
        hh.u64(drive_reservoir(r, v));
        // The RNG must restart from the seed and the counters from zero,
        // or the pass/fallback trajectory diverges from a fresh instance.
        hh.u64(r.sampled_passes());
        hh.u64(r.exact_fallbacks());
        return hh.h;
      });
}

TEST(CoreDifferential, ResetEqualsFreshGovernorAndFloor) {
  expect_reset_equals_fresh(
      [] { return QMax<>(32, 0.25); },
      [](QMax<>& r, const std::vector<double>& v) {
        // A mid-trace floor fold leaves ext_floor_ raised and the batch
        // path then screens against it; both must vanish on reset.
        r.raise_threshold_floor(0.75);
        Hasher hh;
        std::vector<std::uint64_t> ids(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) ids[i] = i;
        constexpr std::size_t kChunk = 256;
        for (std::size_t lo = 0; lo < v.size(); lo += kChunk) {
          const std::size_t n = std::min(kChunk, v.size() - lo);
          hh.u64(r.add_batch(ids.data() + lo, v.data() + lo, n));
          hh.d(r.threshold());
        }
        hash_query(hh, r.query());
        hh.u64(r.admitted());
        hh.d(r.external_floor());
        return hh.h;
      });
}

TEST(CoreDifferential, ResetEqualsFreshSharded) {
  expect_reset_equals_fresh(
      [] {
        return qmax::ShardedQMax<>(4, 32,
                                   typename qmax::ShardedQMax<>::Options{
                                       .gamma = 0.25},
                                   true);
      },
      [](qmax::ShardedQMax<>& r, const std::vector<double>& v) {
        Hasher hh;
        for (std::size_t i = 0; i < v.size(); ++i) {
          hh.b(r.add(i % 4, i, v[i]));
        }
        hash_query(hh, r.query());
        hh.d(r.global_threshold());
        hh.u64(r.processed());
        return hh.h;
      });
}

}  // namespace
