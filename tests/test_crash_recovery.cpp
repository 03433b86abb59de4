// Kill-restore-replay: the durability loop closed end to end. Each cell
// drives one reservoir composition with periodic checkpoints, kills it
// at an injected fault (mid-maintenance crash, crash inside persist
// between temp-write and rename, or a torn snapshot write), restores the
// latest durable epoch into a fresh object, replays the stream tail, and
// asserts the final query() answer is the exact value multiset an
// uninterrupted golden run produces. The faults come from the
// kCrashPoint and kSnapshotTornWrite sites, which only these tests arm.
#include "durability/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/lrfu_qmax.hpp"
#include "cache/lrfu_qmax_deamortized.hpp"
#include "common/fault.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/invariants.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"
#include "qmax/sharded.hpp"
#include "qmax/sliding.hpp"
#include "qmax/time_sliding.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::ConcurrentQMax;
using qmax::ExpDecayQMax;
using qmax::QMax;
using qmax::SampledQMax;
using qmax::ShardedQMax;
using qmax::SlackQMax;
using qmax::TimeSlackQMax;
using qmax::cache::LrfuQMaxCache;
using qmax::cache::LrfuQMaxCacheDeamortized;
namespace durability = qmax::durability;
namespace fault = qmax::fault;

constexpr std::uint64_t kItems = 6'000;
constexpr std::uint64_t kCheckpointEvery = 512;

enum class Kill {
  kMaintenanceCrash,  // InjectedCrash from a maintenance-phase site
  kPersistCrash,      // InjectedCrash between temp-write and rename
  kTornShortWrite,    // snapshot truncated to half, still renamed
  kTornCorruptByte,   // one payload byte flipped, still renamed
  kTornDropRename,    // temp written and fsynced, rename never happens
};

[[nodiscard]] double val_at(std::uint64_t i) {
  const double phi = 0.6180339887498949;
  const double x = static_cast<double>(i + 1) * phi;
  return x - static_cast<double>(static_cast<std::uint64_t>(x));
}

[[nodiscard]] std::uint64_t key_at(std::uint64_t i) {
  return (i % 7 != 0) ? (i * i + 3) % 97 : 1'000'000 + i;
}

template <typename R>
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
fingerprint(const R& r) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& e : r.query()) {
    out.emplace_back(static_cast<std::uint64_t>(e.id),
                     std::bit_cast<std::uint64_t>(e.val));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct ScopedDir {
  explicit ScopedDir(const std::string& leaf) {
    path = std::filesystem::path(testing::TempDir()) / leaf;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

struct FaultQuiesce {
  ~FaultQuiesce() { fault::disarm_all(); }
};

/// Fire the crash point exactly once, at its `hit`-th armed encounter.
void arm_crash_at_hit(std::uint64_t hit) {
  constexpr std::uint64_t kHuge = 1u << 30;
  fault::arm(fault::Site::kCrashPoint,
             {.period = kHuge, .phase = kHuge - hit, .limit = 1});
}

/// One grid cell. `make` builds a fresh, identically configured object
/// (heap so crash recovery can discard the dead one in place), `feed`
/// applies stream item i, `pos` reports how many items a restored object
/// already consumed, `print` fingerprints the final answer.
template <typename MakePtr, typename Feed, typename Pos, typename Print>
void run_kill_restore_replay(const std::string& cell, MakePtr make,
                             Feed feed, Pos pos, Print print, Kill kill,
                             std::uint64_t crash_hit) {
  SCOPED_TRACE(cell);
  FaultQuiesce quiesce;

  auto golden = make();
  for (std::uint64_t i = 0; i < kItems; ++i) feed(*golden, i);
  const auto want = print(*golden);

  ScopedDir dir(cell);
  std::optional<durability::SnapshotStore> store;
  store.emplace(dir.path, "cell", 4);
  auto obj = make();

  const bool torn = kill == Kill::kTornShortWrite ||
                    kill == Kill::kTornCorruptByte ||
                    kill == Kill::kTornDropRename;
  if (kill == Kill::kMaintenanceCrash) arm_crash_at_hit(crash_hit);
  if (torn) {
    // Every second persist is sabotaged; the cell kills the process
    // right after the first sabotage so the newest on-disk state is the
    // damaged one and recovery must cope with it.
    const auto mode = static_cast<std::uint64_t>(
        kill == Kill::kTornShortWrite    ? 0
        : kill == Kill::kTornCorruptByte ? 1
                                         : 2);
    fault::arm(fault::Site::kSnapshotTornWrite,
               {.period = 2, .phase = 1, .magnitude = mode});
  }

  const std::uint64_t rejections_before =
      durability::store_counters().restore_rejections.load();
  bool killed = false;
  std::uint64_t checkpoints = 0;

  auto recover = [&] {
    killed = true;
    fault::disarm_all();
    obj = make();                       // the dead process's heap is gone
    store.emplace(dir.path, "cell", 4); // recovery re-opens the stream
    (void)durability::warm_restart(*store, *obj);
    const std::uint64_t at = pos(*obj);
    EXPECT_LE(at, kItems);
    return at;
  };

  std::uint64_t i = 0;
  while (i < kItems) {
    try {
      feed(*obj, i);
      ++i;
      if (i % kCheckpointEvery == 0) {
        ++checkpoints;
        if (kill == Kill::kPersistCrash && checkpoints == 3) {
          fault::arm(fault::Site::kCrashPoint, {.period = 1, .limit = 1});
        }
        const std::uint64_t fires_before =
            fault::fires(fault::Site::kSnapshotTornWrite);
        durability::checkpoint(*store, *obj);
        if (torn && !killed &&
            fault::fires(fault::Site::kSnapshotTornWrite) > fires_before) {
          i = recover();  // kill immediately after the sabotaged persist
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    } catch (const fault::InjectedCrash&) {
      i = recover();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  EXPECT_TRUE(killed) << "fault never fired; the cell tested nothing";
  if (kill == Kill::kMaintenanceCrash || kill == Kill::kPersistCrash) {
    EXPECT_EQ(fault::fires(fault::Site::kCrashPoint), 1u);
  }
  if (kill == Kill::kTornShortWrite || kill == Kill::kTornCorruptByte) {
    // The newest epoch was damaged, so recovery must have rejected it
    // before falling back.
    EXPECT_GT(durability::store_counters().restore_rejections.load(),
              rejections_before);
  }
  EXPECT_EQ(print(*obj), want)
      << "restored+replayed answer diverged from the uninterrupted run";
}

constexpr Kill kAllKills[] = {Kill::kMaintenanceCrash, Kill::kPersistCrash,
                              Kill::kTornShortWrite, Kill::kTornCorruptByte,
                              Kill::kTornDropRename};

[[nodiscard]] std::string kill_name(Kill k) {
  switch (k) {
    case Kill::kMaintenanceCrash: return "maintenance_crash";
    case Kill::kPersistCrash: return "persist_crash";
    case Kill::kTornShortWrite: return "torn_short_write";
    case Kill::kTornCorruptByte: return "torn_corrupt_byte";
    case Kill::kTornDropRename: return "torn_drop_rename";
  }
  return "?";
}

template <typename MakePtr>
void reservoir_grid(const std::string& variant, MakePtr make,
                    std::uint64_t crash_hit) {
  using T = typename decltype(make())::element_type;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        variant + "/" + kill_name(kill), make,
        [](T& r, std::uint64_t i) { r.add(i, val_at(i)); },
        [](const T& r) { return r.processed(); },
        [](const T& r) { return fingerprint(r); }, kill, crash_hit);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, QMax) {
  reservoir_grid("qmax", [] { return std::make_unique<QMax<>>(64, 0.25); },
                 12);
}

TEST(CrashRecovery, QMaxTinyGamma) {
  reservoir_grid("qmax_tiny_gamma",
                 [] { return std::make_unique<QMax<>>(64, 0.05); }, 20);
}

TEST(CrashRecovery, AmortizedQMax) {
  reservoir_grid("amortized",
                 [] { return std::make_unique<AmortizedQMax<>>(64, 0.25); },
                 6);
}

TEST(CrashRecovery, SampledQMax) {
  reservoir_grid("sampled",
                 [] { return std::make_unique<SampledQMax<>>(256, 0.5, 64); },
                 3);
}

TEST(CrashRecovery, ExpDecayQMax) {
  reservoir_grid(
      "exp_decay",
      [] { return std::make_unique<ExpDecayQMax<>>(64, 0.999, 0.25); }, 8);
}

TEST(CrashRecovery, SlackQMaxLazy) {
  using SW = SlackQMax<QMax<>>;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "slack_lazy/" + kill_name(kill),
        [] {
          return std::make_unique<SW>(
              512, 0.1, [] { return QMax<>(32, 0.25); },
              typename SW::Options{.levels = 2, .lazy = true});
        },
        [](SW& r, std::uint64_t i) { r.add(i, val_at(i)); },
        [](const SW& r) { return r.processed(); },
        [](const SW& r) { return fingerprint(r); }, kill, 20);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, TimeSlackQMax) {
  using TW = TimeSlackQMax<QMax<>>;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "time_slack/" + kill_name(kill),
        [] {
          return std::make_unique<TW>(256, 0.125,
                                      [] { return QMax<>(32, 0.25); });
        },
        [](TW& r, std::uint64_t i) { r.add(i, val_at(i), i / 4); },
        [](const TW& r) { return r.processed(); },
        [](const TW& r) { return fingerprint(r); }, kill, 20);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, ShardedQMax) {
  using SH = ShardedQMax<>;
  static constexpr std::size_t kShards = 4;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "sharded/" + kill_name(kill),
        [] {
          return std::make_unique<SH>(kShards, 64,
                                      typename SH::Options{.gamma = 0.25},
                                      true);
        },
        [](SH& r, std::uint64_t i) { r.add(i % kShards, i, val_at(i)); },
        [](const SH& r) { return r.processed(); },
        [](const SH& r) { return fingerprint(r); }, kill, 25);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, ConcurrentQMax) {
  using CQ = ConcurrentQMax<>;
  // Tiny buffers so checkpoints land with staged items in flight; the
  // quiesced snapshot drains them, and processed() (base counters folded
  // on restore) tells the replay where to resume.
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "concurrent/" + kill_name(kill),
        [] {
          return std::make_unique<CQ>(64, typename CQ::Options{.gamma = 0.25},
                                      48);
        },
        [](CQ& r, std::uint64_t i) { r.add(i, val_at(i)); },
        [](const CQ& r) { return r.processed(); },
        [](const CQ& r) { return fingerprint(r); }, kill, 25);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, LrfuQMaxCache) {
  using C = LrfuQMaxCache<>;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "lrfu/" + kill_name(kill),
        [] { return std::make_unique<C>(64, 0.99, 0.25); },
        [](C& c, std::uint64_t i) { c.access(key_at(i)); },
        [](const C& c) { return c.accesses(); },
        [](const C& c) {
          auto ranked = const_cast<C&>(c).ranked_keys();
          return std::tuple(c.hits(), c.accesses(), ranked);
        },
        kill, 20);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecovery, LrfuQMaxCacheDeamortized) {
  using C = LrfuQMaxCacheDeamortized<>;
  for (const Kill kill : kAllKills) {
    run_kill_restore_replay(
        "lrfu_deamortized/" + kill_name(kill),
        [] { return std::make_unique<C>(64, 0.99, 0.25); },
        [](C& c, std::uint64_t i) { c.access(key_at(i)); },
        [](const C& c) { return c.accesses(); },
        [](const C& c) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> cached;
          for (std::uint64_t k = 0; k < 97; ++k) {
            if (c.contains(k)) {
              cached.emplace_back(k,
                                  std::bit_cast<std::uint64_t>(c.score(k)));
            }
          }
          return std::tuple(c.hits(), c.accesses(), c.size(), cached);
        },
        kill, 20);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
