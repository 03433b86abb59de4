// Snapshot/restore round-trips for every reservoir composition, plus the
// epoch store's crash-consistency contract: restored state fed the
// identical remaining stream must be bit-identical to an uninterrupted
// run, damaged epochs must be rejected with fallback to older ones, and
// old-format images must still load through the migration shim.
#include "durability/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/lrfu_qmax.hpp"
#include "cache/lrfu_qmax_deamortized.hpp"
#include "crc64_reference.hpp"
#include "durability/snapshot.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/invariants.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"
#include "qmax/sharded.hpp"
#include "qmax/sliding.hpp"
#include "qmax/time_sliding.hpp"
#include "telemetry/registry.hpp"

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

constexpr std::uint64_t kItems = 6'000;
constexpr std::uint64_t kCut = kItems / 2;  // checkpoint position

/// Deterministic, well-spread value stream (no RNG: every call site must
/// regenerate the identical tail without sharing generator state).
[[nodiscard]] double val_at(std::uint64_t i) {
  const double phi = 0.6180339887498949;
  const double x = static_cast<double>(i + 1) * phi;
  return x - static_cast<double>(static_cast<std::uint64_t>(x));
}

/// Skewed key stream for the caches: ~97 hot keys plus a long tail.
[[nodiscard]] std::uint64_t key_at(std::uint64_t i) {
  return (i % 7 != 0) ? (i * i + 3) % 97 : 1'000'000 + i;
}

/// Bit-exact fingerprint of a reservoir's answer: the (id, value-bits)
/// multiset, sorted. Value bits — not doubles — so −0/NaN land exactly.
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

/// Unique scratch directory per test, removed on scope exit.
struct ScopedDir {
  ScopedDir() {
    path = std::filesystem::path(testing::TempDir()) /
           ("qmax_durability_" +
            std::string(
                testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

/// Pins the bytes snapshot() builds in its one buffer: a second snapshot
/// taken right away is identical (ConcurrentQMax drains on the count
/// pass, so neither the write pass nor a later save finds more to drain),
/// the payload is exactly what a plain Writer pass over `src` appends,
/// and the header declares that payload's size and bytewise CRC-64.
template <typename R>
void expect_image_bytes_pinned(R& src, const std::vector<std::byte>& image) {
  EXPECT_EQ(durability::snapshot(src), image)
      << "a second snapshot differs from the first";

  std::vector<std::byte> payload;
  durability::Writer w(payload);
  src.serialize_state(w, durability::kFormatVersion);
  ASSERT_EQ(image.size(), durability::kHeaderSize + payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         image.begin() + durability::kHeaderSize))
      << "image payload differs from a plain Writer pass";
  std::uint64_t declared = 0;
  std::uint64_t crc = 0;
  std::memcpy(&declared, image.data() + 16, sizeof declared);
  std::memcpy(&crc, image.data() + 24, sizeof crc);
  EXPECT_EQ(declared, payload.size());
  EXPECT_EQ(crc, crcref::crc64_bytewise(payload.data(), payload.size()));
}

/// The core contract: golden runs uninterrupted; src checkpoints at kCut
/// and keeps going; restored rehydrates from the image and replays only
/// the tail. All three must agree bit-for-bit.
template <typename Make, typename Drive, typename Print>
void expect_restore_equals_fresh(Make make, Drive drive, Print print) {
  auto golden = make();
  drive(golden, 0, kItems);

  auto src = make();
  drive(src, 0, kCut);
  const std::vector<std::byte> image = durability::snapshot(src);
  expect_image_bytes_pinned(src, image);

  auto restored = make();
  durability::restore(restored, image);
  drive(restored, kCut, kItems);
  drive(src, kCut, kItems);

  EXPECT_EQ(print(restored), print(golden)) << "restored diverged from golden";
  EXPECT_EQ(print(src), print(golden)) << "snapshot() perturbed the source";
}

template <typename R>
void drive_reservoir(R& r, std::uint64_t lo, std::uint64_t hi) {
  for (std::uint64_t i = lo; i < hi; ++i) r.add(i, val_at(i));
}

TEST(SnapshotRoundTrip, QMax) {
  expect_restore_equals_fresh([] { return QMax<>(64, 0.25); },
                              drive_reservoir<QMax<>>,
                              [](const QMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, QMaxTinyGamma) {
  // γ small enough that the checkpoint lands mid-iteration with a
  // selection in flight — the restored IncrementalSelect must resume it.
  expect_restore_equals_fresh(
      [] { return QMax<>(64, 0.05); }, drive_reservoir<QMax<>>,
      [](const QMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, QMaxImageSpansCrcChunks) {
  // A payload of about 80 KB: several of the Writer's checksum chunks,
  // so the pinned bytewise CRC checks the running CRC across chunk
  // boundaries (the other cells' images fit in one chunk).
  expect_restore_equals_fresh(
      [] { return QMax<>(4096, 0.25); }, drive_reservoir<QMax<>>,
      [](const QMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, AmortizedQMax) {
  expect_restore_equals_fresh(
      [] { return AmortizedQMax<>(64, 0.25); },
      drive_reservoir<AmortizedQMax<>>,
      [](const AmortizedQMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, SampledQMax) {
  // The sampled policy's RNG travels in the image: the restored replica
  // must draw the same pivots the uninterrupted run draws.
  expect_restore_equals_fresh(
      [] { return SampledQMax<>(256, 0.5, 64); },
      drive_reservoir<SampledQMax<>>,
      [](const SampledQMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, QMaxViaAddBatch) {
  constexpr std::size_t kChunk = 128;
  expect_restore_equals_fresh(
      [] { return QMax<>(64, 0.25); },
      [](QMax<>& r, std::uint64_t lo, std::uint64_t hi) {
        std::vector<std::uint64_t> ids;
        std::vector<double> vals;
        for (std::uint64_t i = lo; i < hi;) {
          ids.clear();
          vals.clear();
          for (; i < hi && ids.size() < kChunk; ++i) {
            ids.push_back(i);
            vals.push_back(val_at(i));
          }
          r.add_batch(ids.data(), vals.data(), ids.size());
        }
      },
      [](const QMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, SlackQMaxAllModes) {
  using SW = SlackQMax<QMax<>>;
  const auto drive = [](SW& r, std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) r.add(i, val_at(i));
  };
  const auto print = [](const SW& r) { return fingerprint(r); };
  for (const auto& [levels, lazy] :
       {std::pair<std::size_t, bool>{1, false}, {2, false}, {2, true}}) {
    SCOPED_TRACE("levels=" + std::to_string(levels) +
                 " lazy=" + std::to_string(lazy));
    expect_restore_equals_fresh(
        [&] {
          return SW(512, 0.1, [] { return QMax<>(32, 0.25); },
                    {.levels = levels, .lazy = lazy});
        },
        drive, print);
  }
}

TEST(SnapshotRoundTrip, TimeSlackQMax) {
  using TW = TimeSlackQMax<QMax<>>;
  expect_restore_equals_fresh(
      [] { return TW(256, 0.125, [] { return QMax<>(32, 0.25); }); },
      [](TW& r, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) r.add(i, val_at(i), i / 4);
      },
      [](const TW& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, ExpDecayQMax) {
  expect_restore_equals_fresh(
      [] { return ExpDecayQMax<>(64, 0.999, 0.25); },
      [](ExpDecayQMax<>& r, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) r.add(i, val_at(i));
      },
      [](const ExpDecayQMax<>& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, ShardedQMax) {
  using SH = ShardedQMax<>;
  static constexpr std::size_t kShards = 4;
  expect_restore_equals_fresh(
      [] { return SH(kShards, 64, {.gamma = 0.25}, true); },
      [](SH& r, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          r.add(i % kShards, i, val_at(i));
        }
      },
      [](const SH& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, ConcurrentQMax) {
  using CQ = ConcurrentQMax<>;
  // Tiny buffers: the kCut checkpoint lands with both handed-off and
  // partially-filled buffers in flight; save must drain them (quiesced
  // snapshot) and the restored replica must continue exactly.
  expect_restore_equals_fresh(
      [] { return CQ(64, {.gamma = 0.25}, 48); },
      [](CQ& r, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) r.add(i, val_at(i));
      },
      [](const CQ& r) { return fingerprint(r); });
}

TEST(SnapshotRoundTrip, ConcurrentQMaxBufferedItemsSurvive) {
  // Nothing has been handed off yet — every staged item lives only in
  // the writer's partial buffer. The quiesced snapshot must carry them.
  ConcurrentQMax<> src(8, {.gamma = 0.25}, 1u << 20);
  for (std::uint64_t i = 0; i < 8; ++i) {
    src.add(i, 1e6 + static_cast<double>(i));
  }
  ASSERT_EQ(src.handoffs(), 0u);
  ASSERT_EQ(src.in_flight(), 8u);
  const std::vector<std::byte> image = durability::snapshot(src);
  ConcurrentQMax<> restored(8, {.gamma = 0.25}, 1u << 20);
  durability::restore(restored, image);
  EXPECT_EQ(restored.processed(), 8u);
  EXPECT_EQ(restored.in_flight(), 0u);
  EXPECT_EQ(fingerprint(restored), fingerprint(src));
  EXPECT_EQ(restored.query().size(), 8u);
}

TEST(SnapshotRoundTrip, LrfuQMaxCache) {
  expect_restore_equals_fresh(
      [] { return LrfuQMaxCache<>(64, 0.99, 0.25); },
      [](LrfuQMaxCache<>& c, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) c.access(key_at(i));
      },
      [](const LrfuQMaxCache<>& c) {
        std::vector<std::pair<std::uint64_t, double>> ranked =
            const_cast<LrfuQMaxCache<>&>(c).ranked_keys();
        return std::tuple(c.hits(), c.accesses(), ranked);
      });
}

TEST(SnapshotRoundTrip, LrfuQMaxCacheDeamortized) {
  expect_restore_equals_fresh(
      [] { return LrfuQMaxCacheDeamortized<>(64, 0.99, 0.25); },
      [](LrfuQMaxCacheDeamortized<>& c, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) c.access(key_at(i));
      },
      [](const LrfuQMaxCacheDeamortized<>& c) {
        // No ranked_keys here: fingerprint the cached-key set with exact
        // log-domain scores over the whole key universe.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cached;
        for (std::uint64_t k = 0; k < 97; ++k) {
          if (c.contains(k)) {
            cached.emplace_back(k, std::bit_cast<std::uint64_t>(c.score(k)));
          }
        }
        return std::tuple(c.hits(), c.accesses(), c.size(), cached);
      });
}

TEST(SnapshotImage, RejectsVariantTagMismatch) {
  QMax<> writer(64, 0.25);
  drive_reservoir(writer, 0, 1'000);
  const auto image = durability::snapshot(writer);
  AmortizedQMax<> other(64, 0.25);
  EXPECT_THROW(durability::restore(other, image), durability::SnapshotError);
}

TEST(SnapshotImage, RejectsConfigMismatch) {
  QMax<> writer(64, 0.25);
  drive_reservoir(writer, 0, 1'000);
  const auto image = durability::snapshot(writer);
  QMax<> smaller(32, 0.25);
  EXPECT_THROW(durability::restore(smaller, image),
               durability::SnapshotError);
}

TEST(SnapshotImage, RejectsDamage) {
  QMax<> writer(64, 0.25);
  drive_reservoir(writer, 0, 1'000);
  const auto image = durability::snapshot(writer);
  QMax<> reader(64, 0.25);

  {  // truncated mid-payload → size check
    auto torn = image;
    torn.resize(torn.size() - 7);
    EXPECT_THROW(durability::restore(reader, torn),
                 durability::SnapshotError);
  }
  {  // shorter than the header
    auto torn = image;
    torn.resize(durability::kHeaderSize / 2);
    EXPECT_THROW(durability::restore(reader, torn),
                 durability::SnapshotError);
  }
  {  // flipped payload byte → checksum
    auto bad = image;
    bad[durability::kHeaderSize + bad.size() / 2] ^= std::byte{0x01};
    EXPECT_THROW(durability::restore(reader, bad),
                 durability::SnapshotError);
  }
  {  // bad magic
    auto bad = image;
    bad[0] ^= std::byte{0xFF};
    EXPECT_THROW(durability::restore(reader, bad),
                 durability::SnapshotError);
  }
  {  // trailing garbage inside the declared payload → expect_end
    auto bloated = image;
    bloated.push_back(std::byte{0xAB});
    const std::uint64_t size = bloated.size() - durability::kHeaderSize;
    const std::uint64_t crc = durability::crc64(
        bloated.data() + durability::kHeaderSize, size);
    std::memcpy(bloated.data() + 16, &size, sizeof size);
    std::memcpy(bloated.data() + 24, &crc, sizeof crc);
    EXPECT_THROW(durability::restore(reader, bloated),
                 durability::SnapshotError);
  }
}

TEST(SnapshotImage, V1ImageLoadsThroughMigrationShim) {
  QMax<> writer(64, 0.25);
  drive_reservoir(writer, 0, 2'000);
  const auto v1 = durability::snapshot(writer, 1);
  QMax<> restored(64, 0.25);
  durability::restore(restored, v1);
  drive_reservoir(restored, 2'000, kItems);
  drive_reservoir(writer, 2'000, kItems);
  EXPECT_EQ(fingerprint(restored), fingerprint(writer));
  const auto audit = qmax::check_invariants(restored);
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

TEST(SnapshotImage, V2ImageLoadsThroughMigrationShim) {
  // A v2 QMax payload ends with the retired screen-governor block: mode
  // byte, two u64 window counters, u64 switch count. The shim must skip
  // it whatever it holds, so set a non-default state (screen on, a
  // half-full window, flips recorded) and re-seal the image.
  constexpr std::size_t kGovernorBytes = 1 + 3 * 8;
  QMax<> writer(64, 0.25);
  drive_reservoir(writer, 0, 2'000);
  auto v2 = durability::snapshot(writer, 2);
  const auto v3 = durability::snapshot(writer);
  ASSERT_EQ(v2.size(), v3.size() + kGovernorBytes);

  std::byte* block = v2.data() + v2.size() - kGovernorBytes;
  const std::byte defaults[kGovernorBytes] = {};
  ASSERT_EQ(std::memcmp(block, defaults, kGovernorBytes), 0)
      << "a minted v2 image carries the governor's reset defaults";
  const std::uint64_t items = 700;
  const std::uint64_t rejected = 650;
  const std::uint64_t switches = 3;
  block[0] = std::byte{1};
  std::memcpy(block + 1, &items, sizeof items);
  std::memcpy(block + 9, &rejected, sizeof rejected);
  std::memcpy(block + 17, &switches, sizeof switches);
  const std::uint64_t crc = durability::crc64(
      v2.data() + durability::kHeaderSize, v2.size() - durability::kHeaderSize);
  std::memcpy(v2.data() + 24, &crc, sizeof crc);

  QMax<> restored(64, 0.25);
  durability::restore(restored, v2);
  drive_reservoir(restored, 2'000, kItems);
  drive_reservoir(writer, 2'000, kItems);
  EXPECT_EQ(fingerprint(restored), fingerprint(writer));
  const auto audit = qmax::check_invariants(restored);
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

TEST(SnapshotImage, RejectsFutureVersion) {
  QMax<> writer(64, 0.25);
  EXPECT_THROW((void)durability::snapshot(writer,
                                          durability::kFormatVersion + 1),
               durability::SnapshotError);
}

TEST(SnapshotStore, EpochNumberingAndRetention) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 3);
  QMax<> r(64, 0.25);
  for (int e = 0; e < 7; ++e) {
    drive_reservoir(r, static_cast<std::uint64_t>(e) * 500,
                    static_cast<std::uint64_t>(e + 1) * 500);
    EXPECT_EQ(durability::checkpoint(store, r), static_cast<std::uint64_t>(e));
  }
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_EQ(store.latest_epoch(), 6u);

  // A new store over the same directory adopts the stream and continues
  // the numbering after the highest surviving epoch.
  durability::SnapshotStore adopted(dir.path, "res", 3);
  EXPECT_EQ(durability::checkpoint(adopted, r), 7u);
}

TEST(SnapshotStore, StreamsAreIndependent) {
  ScopedDir dir;
  durability::SnapshotStore a(dir.path, "alpha", 2);
  durability::SnapshotStore b(dir.path, "beta", 2);
  QMax<> r(16, 0.25);
  drive_reservoir(r, 0, 200);
  EXPECT_EQ(durability::checkpoint(a, r), 0u);
  EXPECT_EQ(durability::checkpoint(b, r), 0u);
  EXPECT_EQ(durability::checkpoint(a, r), 1u);
  EXPECT_EQ(a.epochs().size(), 2u);
  EXPECT_EQ(b.epochs().size(), 1u);
}

TEST(SnapshotStore, WarmRestartPicksNewestEpoch) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 4);
  QMax<> r(64, 0.25);
  drive_reservoir(r, 0, 1'000);
  durability::checkpoint(store, r);
  drive_reservoir(r, 1'000, kCut);
  durability::checkpoint(store, r);

  QMax<> revived(64, 0.25);
  const auto epoch = durability::warm_restart(store, revived);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 1u);
  drive_reservoir(revived, kCut, kItems);
  drive_reservoir(r, kCut, kItems);
  EXPECT_EQ(fingerprint(revived), fingerprint(r));
}

TEST(SnapshotStore, WarmRestartFallsBackPastDamage) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 4);
  QMax<> r(64, 0.25);
  drive_reservoir(r, 0, kCut);
  durability::checkpoint(store, r);  // epoch 0: good
  drive_reservoir(r, kCut, kCut + 500);
  durability::checkpoint(store, r);  // epoch 1: will be damaged

  // Flip one payload byte of the newest epoch on disk.
  const auto p = store.epoch_path(1);
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(durability::kHeaderSize + 11));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(durability::kHeaderSize + 11));
  byte = static_cast<char>(byte ^ 0x20);
  f.write(&byte, 1);
  f.close();

  const auto rejections_before = durability::store_counters()
                                     .restore_rejections.load();
  QMax<> revived(64, 0.25);
  const auto epoch = durability::warm_restart(store, revived);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 0u) << "damaged epoch 1 must be skipped";
  EXPECT_GT(durability::store_counters().restore_rejections.load(),
            rejections_before);

  drive_reservoir(revived, kCut, kItems);
  QMax<> golden(64, 0.25);
  drive_reservoir(golden, 0, kItems);
  EXPECT_EQ(fingerprint(revived), fingerprint(golden));
}

TEST(SnapshotStore, UnreadableNewestEpochFallsBack) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 4);
  QMax<> r(64, 0.25);
  drive_reservoir(r, 0, kCut);
  ASSERT_EQ(durability::checkpoint(store, r), 0u);

  // A directory squats on epoch 1's file name: open(2) and fstat(2)
  // succeed, read(2) fails with EISDIR. The file inside keeps the
  // directory's st_size above zero on every filesystem, so load_epoch
  // gets as far as read().
  std::filesystem::create_directory(store.epoch_path(1));
  std::ofstream(store.epoch_path(1) / "squatter") << "x";
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 1}));

  std::vector<std::byte> image;
  try {
    (void)store.load_epoch(1, image);
    ADD_FAILURE() << "load_epoch read a directory as an image";
  } catch (const durability::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("snapshot store read"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos) << what;
  }

  const auto rejections_before =
      durability::store_counters().restore_rejections.load();
  QMax<> revived(64, 0.25);
  const auto epoch = durability::warm_restart(store, revived);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 0u) << "unreadable epoch 1 must be skipped";
  EXPECT_EQ(durability::store_counters().restore_rejections.load() -
                rejections_before,
            1u);
  EXPECT_EQ(fingerprint(revived), fingerprint(r));
}

TEST(SnapshotStore, WarmRestartWithNothingDurableResetsFresh) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 2);
  QMax<> r(64, 0.25);
  drive_reservoir(r, 0, 1'000);
  EXPECT_EQ(durability::warm_restart(store, r), std::nullopt);
  EXPECT_EQ(r.processed(), 0u) << "must come back reset";
}

TEST(SnapshotStore, OrphanedTempFilesAreInvisible) {
  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 2);
  QMax<> r(64, 0.25);
  drive_reservoir(r, 0, 1'000);
  durability::checkpoint(store, r);
  // Fabricate the crash-between-write-and-rename residue.
  std::ofstream(store.epoch_path(9).string() + ".tmp") << "half-written";
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{0}));
  durability::SnapshotStore adopted(dir.path, "res", 2);
  EXPECT_EQ(durability::checkpoint(adopted, r), 1u)
      << "orphan must not advance the epoch counter";
}

TEST(SnapshotStore, CountersExportThroughRegistry) {
  qmax::telemetry::Registry reg;
  std::vector<qmax::telemetry::Registration> regs;
  durability::register_store_metrics(reg, "durability", regs);

  ScopedDir dir;
  durability::SnapshotStore store(dir.path, "res", 2);
  QMax<> r(16, 0.25);
  drive_reservoir(r, 0, 200);
  durability::checkpoint(store, r);

  bool saw_written = false;
  for (const auto& s : reg.collect()) {
    if (s.name == "durability.snapshots_written") {
      saw_written = true;
      EXPECT_GE(s.counter, 1u);
    }
  }
  EXPECT_TRUE(saw_written);
  EXPECT_GT(durability::store_counters().snapshot_bytes.load(), 0u);
}

}  // namespace
