// Benchmark-side tracing for qmax_e2e: spans recorded around the calls the
// benchmark makes into the library, kept in memory and written at exit.
//
// Every span has a name, a start, an end and the span that caused it. A
// lane is one logical thread (lane 0 = the benchmark's main thread, lane
// 1 + c = measurement consumer c); each lane has exactly one writer at a
// time, so recording takes no lock. Per-call spans (one per ring drain or
// add_batch call) are kept only up to a fixed cap per lane; beyond it they
// still count toward every total and fold into a log-linear histogram,
// so memory stays bounded while the self-time table stays exact.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Duration histogram with 32 linear sub-buckets per power of two, so a
/// bucket is at most ~3% wide.
class Histogram {
 public:
  void record(std::int64_t ns) noexcept {
    const auto v = static_cast<std::uint64_t>(ns < 1 ? 1 : ns);
    ++buckets_[index(v)];
    ++count_;
  }

  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Non-empty buckets as a JSON array of [lower_ns, count] pairs.
  void write_json(std::FILE* f) const {
    std::fputc('[', f);
    bool first = true;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      std::fprintf(f, "%s[%llu,%llu]", first ? "" : ",",
                   static_cast<unsigned long long>(lower(i)),
                   static_cast<unsigned long long>(buckets_[i]));
      first = false;
    }
    std::fputc(']', f);
  }

 private:
  static constexpr std::size_t kSub = 32;  // sub-buckets per octave
  static constexpr int kSubBits = 5;

  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // e >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub +
           static_cast<std::size_t>(sub);
  }
  [[nodiscard]] static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }

  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

/// Span names, each owned by one layer of the system (or by the
/// benchmark itself for the rep and loop spans).
enum class Name : std::uint8_t {
  kRep,          // bench: one timed repetition
  kSetup,        // bench: switch + reservoir construction
  kIngest,       // bench: the direct workloads' add_batch loop
  kForward,      // vswitch: MultiPmdSwitch::forward_*
  kDrain,        // monitor: one consumer callback (one ring drain)
  kStage,        // monitor: records -> (id, value) arrays
  kAddBatch,     // qmax: add_batch
  kQuery,        // qmax: query
  kSnapshot,     // durability: snapshot
  kRestore,      // durability: restore
  kCheck,        // bench: oracle comparison (excluded from every wall)
  kCount_,
};

inline constexpr std::size_t kNames = static_cast<std::size_t>(Name::kCount_);

[[nodiscard]] constexpr const char* span_name(Name n) noexcept {
  constexpr const char* kTable[kNames] = {
      "bench.rep",        "bench.setup",   "bench.ingest",
      "vswitch.forward",  "monitor.drain", "monitor.stage",
      "qmax.add_batch",   "qmax.query",    "durability.snapshot",
      "durability.restore", "bench.check"};
  return kTable[static_cast<std::size_t>(n)];
}

/// Where a span sits: its lane and its index there (-1 once folded).
struct SpanRef {
  Name name = Name::kRep;
  std::int32_t index = -1;
  std::uint16_t lane = 0;
  bool valid = false;
};

class Tracer {
 public:
  Tracer(std::size_t lanes, std::size_t leaf_cap)
      : lanes_(lanes), leaf_cap_(leaf_cap), t0_(now_ns()) {}

  /// Open a span that is always kept (a rep, a forward call, a query...).
  SpanRef open(std::size_t lane, Name name, SpanRef parent = {}) {
    Lane& l = lanes_[lane];
    l.spans.push_back(Span{name, parent, now_ns(), 0});
    return SpanRef{name, static_cast<std::int32_t>(l.spans.size() - 1),
                   static_cast<std::uint16_t>(lane), true};
  }

  void close(const SpanRef& ref) {
    Span& s = lanes_[ref.lane].spans[static_cast<std::size_t>(ref.index)];
    s.end = now_ns();
    account(ref.lane, s.name, s.parent, s.end - s.start);
  }

  /// Record a finished per-call span; kept while the lane is under its
  /// cap, otherwise folded into the totals and histogram only.
  SpanRef leaf(std::size_t lane, Name name, std::int64_t start,
               std::int64_t end, SpanRef parent) {
    Lane& l = lanes_[lane];
    account(lane, name, parent, end - start);
    SpanRef ref{name, -1, static_cast<std::uint16_t>(lane), true};
    if (l.leaves_kept < leaf_cap_) {
      ++l.leaves_kept;
      l.spans.push_back(Span{name, parent, start, end});
      ref.index = static_cast<std::int32_t>(l.spans.size() - 1);
    } else {
      ++l.stats[static_cast<std::size_t>(name)].folded;
    }
    return ref;
  }

  /// Durations of every span with this name, across lanes.
  [[nodiscard]] Histogram histogram(Name name) const {
    Histogram h;
    for (const Lane& l : lanes_) h.merge(l.stats[static_cast<std::size_t>(name)].hist);
    return h;
  }

  /// Per-name totals: time inside the span, and self time — that minus the
  /// time its children on the same lane cover. Children on another lane
  /// run in parallel with their parent and are not subtracted.
  void print_self_time(std::FILE* f) const {
    std::fprintf(f, "%-22s %10s %12s %12s %10s\n", "span", "count", "total_s",
                 "self_s", "folded");
    for (std::size_t n = 0; n < kNames; ++n) {
      Stat sum;
      for (const Lane& l : lanes_) {
        const Stat& s = l.stats[n];
        sum.count += s.count;
        sum.total_ns += s.total_ns;
        sum.child_ns += s.child_ns;
        sum.folded += s.folded;
      }
      if (sum.count == 0) continue;
      std::fprintf(f, "%-22s %10llu %12.6f %12.6f %10llu\n",
                   span_name(static_cast<Name>(n)),
                   static_cast<unsigned long long>(sum.count),
                   static_cast<double>(sum.total_ns) * 1e-9,
                   static_cast<double>(sum.total_ns - sum.child_ns) * 1e-9,
                   static_cast<unsigned long long>(sum.folded));
    }
  }

  /// Chrome-trace JSON ("X" complete events, one tid per lane); the
  /// folded spans' histograms ride along under "foldedSpans".
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      const auto& spans = lanes_[lane].spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%zu:%zu\"",
                     first ? "" : ",", span_name(s.name), lane,
                     static_cast<double>(s.start - t0_) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, lane, i);
        if (s.parent.valid) {
          if (s.parent.index >= 0) {
            std::fprintf(f, ",\"parent\":\"%u:%d\"", s.parent.lane,
                         s.parent.index);
          } else {
            std::fprintf(f, ",\"parent\":\"%s (folded)\"",
                         span_name(s.parent.name));
          }
        }
        std::fputs("}}", f);
        first = false;
      }
    }
    std::fputs("\n],\"foldedSpans\":{", f);
    first = true;
    for (std::size_t n = 0; n < kNames; ++n) {
      const Histogram h = histogram(static_cast<Name>(n));
      if (h.count() == 0) continue;
      std::fprintf(f, "%s\n\"%s\":", first ? "" : ",",
                   span_name(static_cast<Name>(n)));
      h.write_json(f);
      first = false;
    }
    std::fputs("\n}}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    Name name;
    SpanRef parent;
    std::int64_t start;
    std::int64_t end;
  };
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;  // covered by same-lane children
    std::uint64_t folded = 0;
    Histogram hist;
  };
  struct Lane {
    std::vector<Span> spans;
    std::array<Stat, kNames> stats;
    std::size_t leaves_kept = 0;
  };

  void account(std::size_t lane, Name name, const SpanRef& parent,
               std::int64_t dur) {
    Stat& s = lanes_[lane].stats[static_cast<std::size_t>(name)];
    ++s.count;
    s.total_ns += dur;
    s.hist.record(dur);
    if (parent.valid && parent.lane == lane) {
      lanes_[lane].stats[static_cast<std::size_t>(parent.name)].child_ns += dur;
    }
  }

  std::vector<Lane> lanes_;
  std::size_t leaf_cap_;
  std::int64_t t0_;
};

}  // namespace e2e
