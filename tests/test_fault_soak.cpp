// Fault soak: long streams with faults firing, audited with
// check_invariants() after every maintenance phase. Allocation failures
// come from the armed kAllocFail site; poisoned values (NaN) and backward
// timestamps are fed in by the tests themselves, through the same add()
// calls a faulty producer would make.
//
// Soak length: 1M items by default, overridable via QMAX_SOAK_ITEMS
// (CI's sanitizer legs slow each item ~10x, so they may shorten it).
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <stdexcept>

#include "qmax/amortized_qmax.hpp"
#include "qmax/invariants.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sliding.hpp"
#include "qmax/time_sliding.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::AuditResult;
using qmax::check_invariants;
using qmax::MonotoneAuditor;
using qmax::QMax;
using qmax::SlackQMax;
using qmax::TimeSlackQMax;
namespace fault = qmax::fault;

std::uint64_t soak_items() {
  if (const char* e = std::getenv("QMAX_SOAK_ITEMS")) {
    const auto v = std::strtoull(e, nullptr, 10);
    if (v > 0) return v;
  }
  return 1'000'000;
}

/// Disarm everything on scope exit so one test's schedule never leaks
/// into the next (or into gtest's own allocations).
struct FaultQuiesce {
  ~FaultQuiesce() { fault::disarm_all(); }
};

constexpr double kPoison = std::numeric_limits<double>::quiet_NaN();

TEST(FaultSoak, DisarmedHooksAreInert) {
  fault::disarm_all();
  EXPECT_FALSE(fault::should_fire(fault::Site::kAllocFail));
  fault::maybe_fail_alloc();  // must not throw
  fault::maybe_crash();       // must not throw
  EXPECT_EQ(fault::torn_write(), fault::TornWrite::kNone);
  EXPECT_FALSE(fault::net_connect_fails());
  EXPECT_FALSE(fault::net_read_fails());
  EXPECT_FALSE(fault::net_write_fails());
}

TEST(FaultSoak, QMaxSurvivesValueCorruptionSoak) {
  const std::uint64_t items = soak_items();

  QMax<std::uint64_t, double> r(64, 0.25);
  const std::uint64_t g = (r.capacity() - r.q()) / 2;
  ASSERT_GE(g, 1u);

  // Poison roughly 1% of all adds for the whole stream; the admission
  // guard must reject every poisoned value and the audits must stay
  // clean at every maintenance boundary.
  MonotoneAuditor<QMax<std::uint64_t, double>> mono;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::uint64_t poisoned = 0;
  std::uint64_t phases = 0;
  std::uint64_t last_phase = 0;
  for (std::uint64_t i = 0; i < items; ++i) {
    const double v = dist(rng);
    const bool poison = i % 97 == 0;
    poisoned += poison;
    r.add(i, poison ? kPoison : v);
    // A maintenance phase completes every g admissions (one full
    // scratch fill + eviction); audit whenever we cross one.
    const std::uint64_t phase = r.admitted() / g;
    if (phase != last_phase) {
      last_phase = phase;
      ++phases;
      const AuditResult a = mono.observe(r);
      ASSERT_TRUE(a.ok()) << "item " << i << ":\n" << a.to_string();
    }
  }
  EXPECT_GT(phases, 10u) << "soak never reached the maintenance path";
  EXPECT_GT(poisoned, items / 200)
      << "no input was poisoned — soak is vacuous";
  // Poisoned adds are counted as processed but never admitted.
  EXPECT_EQ(r.processed(), items);
  const AuditResult final_audit = mono.observe(r);
  EXPECT_TRUE(final_audit.ok()) << final_audit.to_string();
}

TEST(FaultSoak, QMaxSurvivesAllocFailDuringQuery) {
  FaultQuiesce quiesce;

  QMax<std::uint32_t, double> r(32, 0.5);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (std::uint32_t i = 0; i < 10'000; ++i) r.add(i, dist(rng));
  ASSERT_TRUE(check_invariants(r).ok());

  // Every allocation attempt fails: query() (which copies the top q out)
  // must either succeed without allocating or propagate bad_alloc with
  // the reservoir untouched — never corrupt state.
  fault::arm(fault::Site::kAllocFail, {.period = 1});
  std::uint64_t threw = 0;
  for (int round = 0; round < 8; ++round) {
    try {
      const auto top = r.query();
      EXPECT_LE(top.size(), r.q());
    } catch (const std::bad_alloc&) {
      ++threw;
    }
    const AuditResult a = check_invariants(r);
    ASSERT_TRUE(a.ok()) << "round " << round << ":\n" << a.to_string();
  }
  fault::disarm(fault::Site::kAllocFail);

  // Construction under allocation failure must throw cleanly too.
  fault::arm(fault::Site::kAllocFail, {.period = 1});
  EXPECT_THROW((QMax<std::uint32_t, double>(1024, 0.25)), std::bad_alloc);
  fault::disarm(fault::Site::kAllocFail);

  // And the survivor still works after the faults stop.
  for (std::uint32_t i = 0; i < 1'000; ++i) r.add(i, dist(rng));
  EXPECT_TRUE(check_invariants(r).ok());
  (void)threw;  // how many rounds threw is schedule-dependent; any split is fine
}

TEST(FaultSoak, AmortizedSurvivesCorruptionAndAllocFail) {
  const std::uint64_t items = std::min<std::uint64_t>(soak_items(), 200'000);

  AmortizedQMax<> r(64, 0.25);
  MonotoneAuditor<AmortizedQMax<>> mono;
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::uint64_t poisoned = 0;
  std::uint64_t last_admitted = 0;
  for (std::uint64_t i = 0; i < items; ++i) {
    const double v = dist(rng);
    const bool poison = i % 89 == 0;
    poisoned += poison;
    r.add(static_cast<std::uint32_t>(i), poison ? kPoison : v);
    // Maintenance ran iff the live set shrank back to q.
    if (r.admitted() != last_admitted && r.live_count() == r.q()) {
      last_admitted = r.admitted();
      const AuditResult a = mono.observe(r);
      ASSERT_TRUE(a.ok()) << "item " << i << ":\n" << a.to_string();
    }
  }
  EXPECT_GT(poisoned, 0u);
  EXPECT_TRUE(mono.observe(r).ok());
}

TEST(FaultSoak, SlackWindowSurvivesCorruptionSoak) {
  const std::uint64_t items = std::min<std::uint64_t>(soak_items(), 300'000);

  SlackQMax<QMax<>> sw(2'000, 0.1, [] { return QMax<>(16, 0.5); },
                       {.levels = 2, .lazy = true});
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::uint64_t poisoned = 0;
  for (std::uint64_t i = 0; i < items; ++i) {
    const double v = dist(rng);
    const bool poison = i % 101 == 0;
    poisoned += poison;
    sw.add(static_cast<std::uint32_t>(i), poison ? kPoison : v);
    if (i % 10'007 == 0) {
      const AuditResult a = check_invariants(sw);
      ASSERT_TRUE(a.ok()) << "item " << i << ":\n" << a.to_string();
    }
  }
  EXPECT_GT(poisoned, 0u);
  EXPECT_TRUE(check_invariants(sw).ok());
}

TEST(FaultSoak, TimeSlackRejectsSkewedClockWithoutCorruption) {
  TimeSlackQMax<QMax<>> sw(1'000, 0.25, [] { return QMax<>(8, 0.5); });
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(0.0, 1.0);

  // Warm up past the skew so a skewed timestamp really goes backwards.
  std::uint64_t now = 0;
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    now += rng() % 3;
    sw.add(i, dist(rng), now);
  }
  ASSERT_TRUE(check_invariants(sw).ok());

  // Every 50th item arrives 5000 time units in the past.
  constexpr std::uint64_t kSkew = 5'000;
  std::uint64_t rejected = 0;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    now += 1 + rng() % 3;
    const std::uint64_t ts =
        i % 50 != 0 ? now : (now >= kSkew ? now - kSkew : 0);
    try {
      sw.add(i, dist(rng), ts);
    } catch (const std::invalid_argument&) {
      ++rejected;  // monotonicity guard fired on the skewed timestamp
      const AuditResult a = check_invariants(sw);
      ASSERT_TRUE(a.ok()) << "after rejected skew at item " << i << ":\n"
                          << a.to_string();
    }
  }
  EXPECT_GT(rejected, 0u) << "clock skew never tripped the guard";
  // The structure keeps answering queries after every rejection.
  (void)sw.query();
  EXPECT_TRUE(check_invariants(sw).ok());
}

}  // namespace
