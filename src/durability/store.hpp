// Epoch-numbered, crash-consistent snapshot store + warm restart.
//
// Discipline (the classic temp-file protocol, as used by cortx-motr's BE
// log segments and every journaling store since):
//
//   1. write the full image to <name>.e<epoch>.qsnap.tmp
//   2. fsync the temp file (data durable before it becomes visible)
//   3. rename(2) onto <name>.e<epoch>.qsnap — atomic on POSIX: readers
//      see either the whole previous state or the whole new file, never
//      a prefix
//   4. fsync the directory (the rename itself durable)
//   5. prune epochs older than the newest K
//
// A crash at any point leaves either (a) no new file — the previous
// epoch is intact, (b) a .tmp orphan — invisible to recovery, which only
// scans final names, or (c) a fully renamed epoch. A torn *final* file
// can only appear on filesystems that reorder data writes past the
// rename barrier — and even then the header's size/CRC validation
// rejects it and recovery falls back one epoch. The fault-injection
// torn-write site fabricates exactly these states (short write, flipped
// payload byte, dropped rename) so the rejection logic is soak-tested.
//
// warm_restart() walks epochs newest-first: load, validate framing +
// checksum, apply, run the caller's validator (check_invariants by
// default where an overload exists); the first epoch that passes wins,
// everything damaged is counted in restore_rejections. Counters are
// process-wide relaxed atomics, registered into the telemetry Registry
// via register_store_metrics for QMAX_METRICS_OUT blobs.
//
// Env knobs: QMAX_SNAPSHOT_DIR (default directory for operators; the
// library itself takes an explicit dir), QMAX_SNAPSHOT_EPOCHS (retention
// K, default 3).
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.hpp"
#include "durability/snapshot.hpp"
#include "telemetry/registry.hpp"

namespace qmax::durability {

/// Process-wide durability counters (relaxed atomics: persist may run on
/// a background thread while other stores persist concurrently).
struct StoreCounters {
  std::atomic<std::uint64_t> snapshots_written{0};
  std::atomic<std::uint64_t> snapshot_bytes{0};
  std::atomic<std::uint64_t> restores{0};            // epochs accepted
  std::atomic<std::uint64_t> restore_rejections{0};  // epochs rejected

  void reset() noexcept {
    snapshots_written.store(0, std::memory_order_relaxed);
    snapshot_bytes.store(0, std::memory_order_relaxed);
    restores.store(0, std::memory_order_relaxed);
    restore_rejections.store(0, std::memory_order_relaxed);
  }
};

[[nodiscard]] inline StoreCounters& store_counters() {
  static StoreCounters c;
  return c;
}

/// Register the durability counters under `prefix.` (always-on: these
/// are plain atomics, not gated instruments).
inline void register_store_metrics(telemetry::Registry& reg,
                                   const std::string& prefix,
                                   std::vector<telemetry::Registration>& out) {
  auto& c = store_counters();
  auto counter = [&](const char* name, std::atomic<std::uint64_t>& v) {
    out.push_back(reg.add_counter(
        prefix + "." + name,
        [&v] { return v.load(std::memory_order_relaxed); }));
  };
  counter("snapshots_written", c.snapshots_written);
  counter("snapshot_bytes", c.snapshot_bytes);
  counter("restores", c.restores);
  counter("restore_rejections", c.restore_rejections);
}

/// QMAX_SNAPSHOT_DIR, or empty when unset (callers choose their own
/// default; the apps treat empty as "durability off").
[[nodiscard]] inline std::filesystem::path snapshot_dir_from_env() {
  const char* v = std::getenv("QMAX_SNAPSHOT_DIR");
  return v == nullptr ? std::filesystem::path{} : std::filesystem::path{v};
}

/// QMAX_SNAPSHOT_EPOCHS clamped to ≥ 1, default 3.
[[nodiscard]] inline std::size_t snapshot_epochs_from_env() {
  const char* v = std::getenv("QMAX_SNAPSHOT_EPOCHS");
  if (v == nullptr || *v == '\0') return 3;
  const long n = std::strtol(v, nullptr, 10);
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

/// One named snapshot stream inside a directory: files
/// `<name>.e<8-digit-epoch>.qsnap`, monotonically numbered, newest K
/// retained. Not thread-safe per instance (one checkpointer per stream);
/// distinct instances over distinct names coexist freely.
class SnapshotStore {
 public:
  /// `retain` = 0 takes QMAX_SNAPSHOT_EPOCHS (default 3). The directory
  /// is created on first persist; an existing stream is adopted —
  /// numbering continues after the highest epoch found.
  SnapshotStore(std::filesystem::path dir, std::string name,
                std::size_t retain = 0)
      : dir_(std::move(dir)),
        name_(std::move(name)),
        retain_(retain != 0 ? retain : snapshot_epochs_from_env()) {
    for (const std::uint64_t e : epochs()) {
      if (e + 1 > next_epoch_) next_epoch_ = e + 1;
    }
  }

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t retain() const noexcept { return retain_; }

  [[nodiscard]] std::filesystem::path epoch_path(std::uint64_t epoch) const {
    char leaf[64];
    std::snprintf(leaf, sizeof leaf, "%s.e%08llu.qsnap", name_.c_str(),
                  static_cast<unsigned long long>(epoch));
    return dir_ / leaf;
  }

  /// Epochs currently on disk, ascending. Orphaned .tmp files are
  /// invisible (recovery must never read one).
  [[nodiscard]] std::vector<std::uint64_t> epochs() const {
    std::vector<std::uint64_t> out;
    std::error_code ec;
    const std::string prefix = name_ + ".e";
    for (std::filesystem::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::string leaf = it->path().filename().string();
      if (leaf.size() != prefix.size() + 8 + 6) continue;
      if (leaf.compare(0, prefix.size(), prefix) != 0) continue;
      if (leaf.compare(leaf.size() - 6, 6, ".qsnap") != 0) continue;
      const std::string digits = leaf.substr(prefix.size(), 8);
      if (digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::optional<std::uint64_t> latest_epoch() const {
    const auto all = epochs();
    if (all.empty()) return std::nullopt;
    return all.back();
  }

  /// Durably persist one image as the next epoch (temp + fsync + rename
  /// + dir fsync), then prune old epochs. Returns the epoch number.
  /// Throws SnapshotError on I/O failure. Hosts the torn-write and
  /// crash-point fault sites.
  std::uint64_t persist(std::span<const std::byte> image) {
    [[maybe_unused]] telemetry::Span trace_span(
        telemetry::Stage::kSnapshotWrite);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) fail("create_directories", ec.message().c_str());

    const std::uint64_t epoch = next_epoch_++;
    const std::filesystem::path final_path = epoch_path(epoch);
    std::filesystem::path tmp_path = final_path;
    tmp_path += ".tmp";

    const fault::TornWrite torn = fault::torn_write();
    write_file(tmp_path, image, torn);

    // Crash-at-site: data durable in the temp file, rename not yet done —
    // recovery must fall back to the previous epoch (the .tmp orphan is
    // invisible). The torn-write kDropRename mode is the silent version
    // of the same state (persist "succeeds" but the epoch never appears).
    fault::maybe_crash();
    if (torn != fault::TornWrite::kDropRename) {
      if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        fail("rename", std::strerror(errno));
      }
      fsync_dir();
    }

    store_counters().snapshots_written.fetch_add(1,
                                                 std::memory_order_relaxed);
    store_counters().snapshot_bytes.fetch_add(image.size(),
                                              std::memory_order_relaxed);
    prune();
    return epoch;
  }

  /// Read one epoch's raw image. Returns false if the file is missing;
  /// throws SnapshotError on read failure.
  [[nodiscard]] bool load_epoch(std::uint64_t epoch,
                                std::vector<std::byte>& out) const {
    const std::filesystem::path p = epoch_path(epoch);
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return false;
      fail("open", std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int e = errno;
      ::close(fd);
      fail("fstat", std::strerror(e));
    }
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < out.size()) {
      const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        const int e = errno;
        ::close(fd);
        fail("read", n < 0 ? std::strerror(e) : "unexpected EOF");
      }
      got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
  }

 private:
  [[noreturn]] void fail(const char* op, const char* why) const {
    throw SnapshotError(std::string("snapshot store ") + op + " (" +
                        dir_.string() + "/" + name_ + "): " + why);
  }

  /// Write + fsync one file, applying the armed torn-write sabotage:
  /// kShortWrite truncates the image to half, kCorruptByte flips one
  /// payload byte. Both still fsync and (in persist) rename — producing
  /// exactly the damaged-but-visible epochs restore must reject.
  void write_file(const std::filesystem::path& p,
                  std::span<const std::byte> image,
                  fault::TornWrite torn) const {
    const int fd =
        ::open(p.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail("open", std::strerror(errno));

    std::vector<std::byte> damaged;
    std::span<const std::byte> data = image;
    if (torn == fault::TornWrite::kShortWrite) {
      data = image.subspan(0, image.size() / 2);
    } else if (torn == fault::TornWrite::kCorruptByte && !image.empty()) {
      damaged.assign(image.begin(), image.end());
      const std::size_t at =
          damaged.size() > kHeaderSize
              ? kHeaderSize + (damaged.size() - kHeaderSize) / 2
              : damaged.size() / 2;
      damaged[at] ^= std::byte{0x40};
      data = damaged;
    }

    std::size_t put = 0;
    while (put < data.size()) {
      const ssize_t n = ::write(fd, data.data() + put, data.size() - put);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        const int e = errno;
        ::close(fd);
        fail("write", std::strerror(e));
      }
      put += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      const int e = errno;
      ::close(fd);
      fail("fsync", std::strerror(e));
    }
    ::close(fd);
  }

  void fsync_dir() const {
    const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);  // best-effort: some filesystems reject dir fsync
      ::close(fd);
    }
  }

  void prune() const {
    const auto all = epochs();
    if (all.size() <= retain_) return;
    std::error_code ec;
    for (std::size_t i = 0; i + retain_ < all.size(); ++i) {
      std::filesystem::remove(epoch_path(all[i]), ec);
    }
  }

  std::filesystem::path dir_;
  std::string name_;
  std::size_t retain_;
  std::uint64_t next_epoch_ = 0;
};

/// Serialize `obj` and durably persist it as the next epoch.
template <typename T>
std::uint64_t checkpoint(SnapshotStore& store, const T& obj,
                         std::uint32_t version = kFormatVersion) {
  const std::vector<std::byte> image = snapshot(obj, version);
  return store.persist(image);
}

/// Restore `obj` from the newest epoch that survives framing validation,
/// payload application, AND `validate(obj)`. Damaged or rejected epochs
/// count into restore_rejections and recovery falls back one epoch at a
/// time. Returns the accepted epoch, or nullopt (with `obj` reset to
/// fresh) when nothing durable was usable.
template <typename T, typename Validate>
std::optional<std::uint64_t> warm_restart(SnapshotStore& store, T& obj,
                                          Validate&& validate) {
  [[maybe_unused]] telemetry::Span trace_span(telemetry::Stage::kRestore);
  const std::vector<std::uint64_t> all = store.epochs();
  std::vector<std::byte> image;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    bool ok = false;
    try {
      if (store.load_epoch(*it, image)) {
        restore(obj, image);
        ok = validate(obj);
      }
    } catch (const SnapshotError&) {
      ok = false;
    }
    if (ok) {
      store_counters().restores.fetch_add(1, std::memory_order_relaxed);
      return *it;
    }
    // A failed restore may have half-applied: return to a known state
    // before trying the next-older epoch.
    obj.reset();
    store_counters().restore_rejections.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  obj.reset();
  return std::nullopt;
}

/// warm_restart with the default validator: check_invariants(obj).ok()
/// where an audit overload is visible (include qmax/invariants.hpp
/// first), unconditional acceptance otherwise — framing, checksum, and
/// config guards still apply either way.
template <typename T>
std::optional<std::uint64_t> warm_restart(SnapshotStore& store, T& obj) {
  return warm_restart(store, obj, [](T& o) {
    if constexpr (requires { check_invariants(o); }) {
      return check_invariants(o).ok();
    } else {
      (void)o;
      return true;
    }
  });
}

}  // namespace qmax::durability
