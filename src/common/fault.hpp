// Fault-injection harness, compiled into every build.
//
// A process-wide table holds one schedule per named site. Every site
// starts disarmed, and only a test's call to arm() starts one firing:
// no production code arms a site, and no environment variable or option
// does either. A disarmed hook costs one acquire load and a not-taken
// branch; the table is constant-initialised, so there is no static-init
// guard. Every site sits on a cold path (construction, the end of a
// maintenance pass, a snapshot persist, a socket call), never on a
// per-item or per-pop path.
//
// Sites are the failure modes the robustness layer exercises:
//
//   kAllocFail     — constructors / query-path reservoir creation throw
//                    std::bad_alloc (QMax, AmortizedQMax, SpscRing, and
//                    everything built from them: SlackQMax blocks,
//                    TimeSlackQMax blocks, merge reservoirs).
//   kCrashPoint    — maintenance and snapshot-persist paths abort by
//                    throwing InjectedCrash mid-operation, simulating
//                    process death at that instruction; the crash-recovery
//                    harness catches it, discards the object, and restores
//                    the latest durable epoch.
//   kSnapshotTornWrite — the snapshot store's file write is sabotaged: a
//                    short write, a corrupted payload byte, or a crash
//                    between temp-write and rename (mode selected by the
//                    schedule's magnitude % 3); restore must detect and
//                    reject the damaged epoch.
//   kNetConnect    — transport connect() attempts fail as if the peer
//                    refused; drives the agent's reconnect/backoff path.
//   kNetRead       — a transport read reports the connection reset
//                    mid-stream (after whatever bytes already arrived),
//                    so frame reassembly sees arbitrary truncation points.
//   kNetWrite      — a transport flush reports the connection reset
//                    before draining its buffer; the sender must treat
//                    the session as lost and the receiver must cope with
//                    a partial frame.
//
// Faults a caller can produce itself have no site: a poisoned value is a
// NaN (or the reserved empty value) passed to add(), a skewed clock is a
// backward timestamp, and a stalled consumer is one that stops popping.
//
// Schedules are deterministic: a site fires either periodically
// ((hit + phase) % period == 0) or pseudo-randomly from a seeded hash of
// the hit index — both reproducible run-to-run, both bounded by `limit`.
// Hit counters are relaxed atomics so multi-threaded sites stay race-free
// under TSan; arming/disarming is intended to happen while the structures
// under test are quiescent.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <new>

namespace qmax::fault {

/// Named injection points. Each site has an independent schedule and
/// independent hit/fire counters.
enum class Site : unsigned {
  kAllocFail = 0,
  kCrashPoint,
  kSnapshotTornWrite,
  kNetConnect,
  kNetRead,
  kNetWrite,
};
inline constexpr unsigned kSiteCount = 6;

/// Thrown by maybe_crash() to simulate process death at an injected site.
/// Deliberately NOT derived from std::exception: production catch(...)-free
/// error paths never intercept it by accident, only the recovery harness's
/// explicit catch does.
struct InjectedCrash {
  Site site;
};

/// How a torn snapshot write is sabotaged. Selected from the armed
/// schedule's magnitude % 3 so one site covers all three failure shapes.
enum class TornWrite : int {
  kNone = -1,
  kShortWrite = 0,   // only half the payload reaches the file
  kCorruptByte = 1,  // one payload byte is flipped after writing
  kDropRename = 2,   // temp file written, crash before rename
};

/// When a site fires. Exactly one of `period` / `probability` is used:
/// period > 0 selects the modular schedule, otherwise `probability` with
/// the seeded hash. Both are pure functions of the hit index, so a run is
/// reproducible from (seed, schedule) alone.
struct Schedule {
  std::uint64_t period = 0;       // fire when (hit + phase) % period == 0
  std::uint64_t phase = 0;
  double probability = 0.0;       // used when period == 0
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t magnitude = 1'000;  // torn-write mode: magnitude % 3
};

namespace detail {

/// splitmix64 finalizer: uncorrelated 64-bit hash of the hit index.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct SiteState {
  std::atomic<std::uint64_t> hits{0};   // counted only while armed
  std::atomic<std::uint64_t> fires{0};
  std::atomic<bool> armed{false};
  Schedule sched{};  // written only while disarmed
};

inline constinit std::array<SiteState, kSiteCount> sites{};

[[nodiscard]] inline SiteState& site(Site s) noexcept {
  return sites[static_cast<unsigned>(s)];
}

}  // namespace detail

/// Install a schedule and start firing. Call while the structures under
/// test are quiescent (no concurrent should_fire on this site).
inline void arm(Site s, const Schedule& sched) {
  auto& st = detail::site(s);
  st.armed.store(false, std::memory_order_release);
  st.sched = sched;
  st.hits.store(0, std::memory_order_relaxed);
  st.fires.store(0, std::memory_order_relaxed);
  st.armed.store(true, std::memory_order_release);
}

inline void disarm(Site s) {
  detail::site(s).armed.store(false, std::memory_order_release);
}

inline void disarm_all() {
  for (unsigned i = 0; i < kSiteCount; ++i) disarm(static_cast<Site>(i));
}

/// Hits observed at this site since it was armed.
[[nodiscard]] inline std::uint64_t hits(Site s) noexcept {
  return detail::site(s).hits.load(std::memory_order_relaxed);
}

/// Faults actually injected at this site since it was armed.
[[nodiscard]] inline std::uint64_t fires(Site s) noexcept {
  return detail::site(s).fires.load(std::memory_order_relaxed);
}

/// One injection-point evaluation: counts the hit and decides from the
/// schedule. The limit check is best-effort under concurrency (a burst of
/// racing hits may overshoot by the thread count) — fine for testing.
[[nodiscard]] inline bool should_fire(Site s) noexcept {
  auto& st = detail::site(s);
  if (!st.armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t h = st.hits.fetch_add(1, std::memory_order_relaxed);
  const Schedule& sc = st.sched;
  bool fire;
  if (sc.period > 0) {
    fire = (h + sc.phase) % sc.period == 0;
  } else if (sc.probability > 0.0) {
    const double u =
        static_cast<double>(detail::mix(sc.seed ^ h) >> 11) * 0x1.0p-53;
    fire = u < sc.probability;
  } else {
    fire = false;
  }
  if (!fire) return false;
  if (st.fires.load(std::memory_order_relaxed) >= sc.limit) return false;
  st.fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// Allocation-failure injection point: throws std::bad_alloc when armed
/// and due, exactly what a failed `new` would raise mid-construction.
inline void maybe_fail_alloc() {
  if (should_fire(Site::kAllocFail)) throw std::bad_alloc{};
}

/// Crash injection point: throws InjectedCrash when armed and due. Placed
/// mid-maintenance and mid-persist so recovery is exercised at the worst
/// moments — in-memory state half-mutated, snapshot half-written.
inline void maybe_crash() {
  if (should_fire(Site::kCrashPoint)) {
    throw InjectedCrash{Site::kCrashPoint};
  }
}

/// Torn-write injection point: which sabotage (if any) the snapshot
/// store should apply to the write it is about to perform.
[[nodiscard]] inline TornWrite torn_write() noexcept {
  if (!should_fire(Site::kSnapshotTornWrite)) return TornWrite::kNone;
  const auto m = detail::site(Site::kSnapshotTornWrite).sched.magnitude;
  return static_cast<TornWrite>(m % 3);
}

/// Transport injection points: true means "pretend this connect / read /
/// write hit a connection failure" (net/transport.hpp maps each onto the
/// matching error path).
[[nodiscard]] inline bool net_connect_fails() noexcept {
  return should_fire(Site::kNetConnect);
}
[[nodiscard]] inline bool net_read_fails() noexcept {
  return should_fire(Site::kNetRead);
}
[[nodiscard]] inline bool net_write_fails() noexcept {
  return should_fire(Site::kNetWrite);
}

}  // namespace qmax::fault
