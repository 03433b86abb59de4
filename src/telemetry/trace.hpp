// Flight-recorder tracing: per-thread event rings + per-stage latency
// histograms, live under the QMAX_TELEMETRY gate (counters.hpp):
//
//   ON  — every instrumented stage (span.hpp) appends one fixed-size
//         Event to the calling thread's ring and records the span's
//         duration into that thread's per-stage Histogram. The ring is a
//         bounded overwrite-oldest buffer of kRingEvents events (a flight
//         recorder: the last events survive, the distant past is
//         discarded), so steady-state tracing never allocates and never
//         blocks.
//   OFF — span.hpp's Span is an empty type and instant() is an inline
//         no-op; nothing in this header is instantiated on any hot path
//         and the tracing layer compiles to nothing (static_asserted in
//         tests/test_telemetry.cpp).
//
// Threading contract. Each ThreadRecorder is written by exactly one
// thread (acquired through a thread_local handle). Export — collecting
// events or merging stage histograms — requires the recording threads to
// be quiescent (joined or barriered), the same contract as the rest of
// the telemetry layer and the bench harness's end-of-run export point.
// The registry mutex only guards recorder acquisition/release, which
// happens at thread start/exit, never per event.
//
// Recorder reuse. Thread-heavy hosts (the multi-PMD switch, the fault
// soak) spawn many short-lived threads; allocating a ring per thread
// forever would grow without bound. A recorder returned on thread exit
// parks on a free list and the next thread reuses it (its events are
// retained — they are part of the flight record), so the population is
// bounded by the peak number of concurrent traced threads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/histogram.hpp"

namespace qmax::telemetry {

/// The span taxonomy: every instrumented hot-path stage. Kept stable —
/// stage names are the keys of the exported stage-latency histograms and
/// of the Chrome trace events, and bench_snapshot.py / the CI regression
/// gate match on them.
enum class Stage : std::uint8_t {
  kAdd = 0,         // ReservoirCore::add (scalar admission)
  kAddBatch,        // screened/entry batch ingestion
  kMaintenance,     // ParityEngine iteration end / amortized maintain()
  kSampledPivot,    // SampledMaintenance: sample + pivot-partition attempt
  kExactFallback,   // SampledMaintenance: exact pass after a slack miss
  kPartitionTop,    // core::partition_top (the one selection primitive)
  kPsiPublish,      // shard pushes a new local Ψ into the broadcast
  kPsiFold,         // shard folds the broadcast Ψ into its gate
  kMergeQuery,      // ShardedQMax merge-on-query
  kRingPushStall,   // PMD spinning on a full monitor ring
  kRingDrain,       // consumer processing one non-empty ring pop
  kOverload,        // overload-ladder transitions (instant events)
  kSnapshotWrite,   // durability: serialize + atomic persist of an epoch
  kRestore,         // durability: validate + load of a snapshot epoch
  kNetFrame,        // net: encode/decode + reassembly of one wire frame
  kNetMerge,        // net: controller merging one agent REPORT
  kBufferHandoff,   // concurrent: maintenance owner ingesting one buffer
  kPsiCas,          // concurrent: CAS-max publish of the tightened Ψ
  kCount
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

[[nodiscard]] constexpr const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kAdd: return "add";
    case Stage::kAddBatch: return "add_batch";
    case Stage::kMaintenance: return "maintenance";
    case Stage::kSampledPivot: return "sampled_pivot";
    case Stage::kExactFallback: return "exact_fallback";
    case Stage::kPartitionTop: return "partition_top";
    case Stage::kPsiPublish: return "psi_publish";
    case Stage::kPsiFold: return "psi_fold";
    case Stage::kMergeQuery: return "merge_query";
    case Stage::kRingPushStall: return "ring_push_stall";
    case Stage::kRingDrain: return "ring_drain";
    case Stage::kOverload: return "overload";
    case Stage::kSnapshotWrite: return "snapshot_write";
    case Stage::kRestore: return "restore";
    case Stage::kNetFrame: return "net_frame";
    case Stage::kNetMerge: return "net_merge";
    case Stage::kBufferHandoff: return "buffer_handoff";
    case Stage::kPsiCas: return "psi_cas";
    case Stage::kCount: break;
  }
  return "?";
}

#if QMAX_TELEMETRY_ENABLED

/// Events retained per thread (32 B each: a 256 KiB ring per traced
/// thread). A power of two, so the ring index is a mask.
inline constexpr std::size_t kRingEvents = 8192;

/// One recorded event. `name` must have static storage duration (stage
/// names and the ladder-transition literals qualify); dur_ns == 0 marks
/// an instant event, anything else a completed span.
struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   // start, relative to the trace epoch
  std::uint64_t dur_ns = 0;  // 0 = instant
  Stage stage = Stage::kCount;
};

namespace trace_detail {

/// The process-wide trace epoch: timestamps are steady-clock nanoseconds
/// since the first call (forced early via TraceRegistry's constructor so
/// all threads share one anchor).
[[nodiscard]] inline std::chrono::steady_clock::time_point epoch() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace trace_detail

/// Nanoseconds since the trace epoch.
[[nodiscard]] inline std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_detail::epoch())
          .count());
}

/// One thread's flight record: an overwrite-oldest event ring plus one
/// latency histogram per stage. Single writer; see the header comment for
/// the export contract.
class ThreadRecorder {
 public:
  explicit ThreadRecorder(std::uint32_t tid) : buf_(kRingEvents), tid_(tid) {}

  ThreadRecorder(const ThreadRecorder&) = delete;
  ThreadRecorder& operator=(const ThreadRecorder&) = delete;

  void span(Stage s, const char* name, std::uint64_t t0_ns,
            std::uint64_t t1_ns) noexcept {
    const std::uint64_t dur = t1_ns - t0_ns;
    stage_ns_[static_cast<std::size_t>(s)].record(dur);
    // A zero-duration span (sub-tick work) still counts in the histogram
    // but is recorded as a 1ns event so exports keep span semantics.
    push(Event{name, t0_ns, dur == 0 ? 1 : dur, s});
  }

  void instant(Stage s, const char* name) noexcept {
    push(Event{name, trace_now_ns(), 0, s});
  }

  /// Append the retained events, oldest first, to `out`.
  void collect(std::vector<Event>& out) const {
    const std::uint64_t end = head_;
    const std::uint64_t begin = end > kRingEvents ? end - kRingEvents : 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      out.push_back(buf_[i & (kRingEvents - 1)]);
    }
  }

  [[nodiscard]] const Histogram& stage_hist(Stage s) const noexcept {
    return stage_ns_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return head_;
  }

  void reset() noexcept {
    head_ = 0;
    for (auto& h : stage_ns_) h.reset();
  }

 private:
  void push(const Event& e) noexcept {
    buf_[head_ & (kRingEvents - 1)] = e;
    ++head_;
  }

  std::vector<Event> buf_;
  std::uint64_t head_ = 0;  // total events ever pushed
  std::uint32_t tid_;
  Histogram stage_ns_[kStageCount];
};

/// Owns every ThreadRecorder in the process. Recorders outlive their
/// threads (export happens after joins); exited threads' recorders are
/// reused by later threads via the free list.
class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    static TraceRegistry reg;
    return reg;
  }

  TraceRegistry(const TraceRegistry&) = delete;
  TraceRegistry& operator=(const TraceRegistry&) = delete;

  [[nodiscard]] ThreadRecorder* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ThreadRecorder* r = free_.back();
      free_.pop_back();
      return r;
    }
    all_.push_back(std::make_unique<ThreadRecorder>(next_tid_++));
    return all_.back().get();
  }

  void release(ThreadRecorder* r) {
    if (r == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(r);
  }

  /// Every retained event across all recorders, unsorted (the exporter
  /// sorts). Recording threads must be quiescent.
  [[nodiscard]] std::vector<Event> collect_events() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Event> out;
    for (const auto& r : all_) r->collect(out);
    return out;
  }

  /// Stage histogram merged across every recorder.
  [[nodiscard]] Histogram merged_stage(Stage s) const {
    std::lock_guard<std::mutex> lock(mu_);
    Histogram h;
    for (const auto& r : all_) h.merge(r->stage_hist(s));
    return h;
  }

  /// Visit each recorder (export only; recording threads quiescent).
  template <typename Fn>
  void for_each_recorder(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : all_) fn(*r);
  }

  [[nodiscard]] std::size_t recorder_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return all_.size();
  }

  /// Drop all retained events and stage histograms (tests).
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : all_) r->reset();
  }

 private:
  TraceRegistry() {
    // Anchor timestamps before any thread records.
    [[maybe_unused]] const auto anchor = trace_detail::epoch();
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRecorder>> all_;
  std::vector<ThreadRecorder*> free_;
  std::uint32_t next_tid_ = 1;
};

namespace trace_detail {

/// RAII thread_local handle: acquires a recorder on the thread's first
/// span, returns it to the reuse pool at thread exit. Meyers-singleton
/// ordering guarantees the registry outlives every handle.
struct TlsHandle {
  ThreadRecorder* rec;
  TlsHandle() : rec(TraceRegistry::instance().acquire()) {}
  ~TlsHandle() { TraceRegistry::instance().release(rec); }
};

}  // namespace trace_detail

[[nodiscard]] inline ThreadRecorder& recorder() noexcept {
  thread_local trace_detail::TlsHandle handle;
  return *handle.rec;
}

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace qmax::telemetry
