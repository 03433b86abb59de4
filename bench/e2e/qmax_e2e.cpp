// qmax_e2e: wall-clock end-to-end benchmark of the q-MAX measurement
// pipeline, with a benchmark-side layer budget.
//
// One process runs one workload. Inputs are generated from --seed before
// anything is timed; then one discarded warm-up repetition runs, followed
// by timed repetitions until --seconds have passed. Each repetition builds
// the program afresh (the timed set-up) and streams every input through
// it. Every duration is taken by this file around public calls into the
// library:
//   vswitch     MultiPmdSwitch::forward_{monitored,sharded,concurrent}
//   monitor     the consumer callback below (records -> id/value arrays)
//   qmax        add_batch, query
//   durability  snapshot, restore
// Every answer is checked against an exact oracle computed in set-up.
//
// Untraced runs (--trace 0) report the end-to-end metrics and time no
// single add_batch call. Traced runs (--trace 1) alternate untraced and
// traced repetitions and report the per-layer budget, including the
// tracing overhead between the two.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (one value per metric, see Metrics); the line before it adds
// the median, quartiles and sample count of each.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "durability/snapshot.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "trace/synthetic.hpp"
#include "tracer.hpp"
#include "vswitch/multi_pmd.hpp"

namespace {

using e2e::Name;
using e2e::now_ns;
using e2e::SpanRef;
using qmax::vswitch::MonitorRecord;
using qmax::vswitch::MultiPmdConfig;
using qmax::vswitch::MultiPmdSwitch;
using qmax::vswitch::MultiRunResult;

using Q = qmax::QMax<std::uint64_t, double>;
using Sharded = qmax::ShardedQMax<Q>;
using Concurrent = qmax::ConcurrentQMax<Q>;
using Entry = Q::EntryT;

constexpr std::size_t kBatch = 64;        // add_batch size = ring pop size
constexpr std::size_t kIdTable = 4096;    // direct workloads' flow-key pool
constexpr std::size_t kPmds = 2;
constexpr std::size_t kFlows = 1'000'000;
constexpr std::size_t kTraceLeafCap = 4096;  // kept per-call spans per lane

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string chrome_trace;
  bool smoke = false;
};

enum class Kind { kOvs1c, kOvsSharded, kOvsConcurrent, kPolled, kAscending };

struct Spec {
  const char* name;
  Kind kind;
  std::size_t items;  // packets or stream items per repetition
  std::size_t q;
  double gamma;
  std::size_t polls;  // query points: the stream is cut into this many
                      // segments and the reservoir queried after each
  bool snapshot_each_poll;  // otherwise one snapshot, after the last
};

// Repetitions are short (30 ms on adversarial_ascending, 0.25 s in epochs
// of 30 ms on the switch workloads; reservoir_polled, which needs a stream
// much longer than q = 10^6, about 2 s in segments of 0.1 s), so a run
// holds many of each piece and finds its fastest (see BestTimes). The
// switch workloads keep the
// stream 20 times q, as 20 M packets with q = 10^6 would, so after the
// first epoch the Psi screen rejects most records. Queries land at several
// points of each repetition because a query's cost depends on how far the
// current maintenance iteration has progressed.
constexpr Spec kSpecs[] = {
    {"ovs_1c", Kind::kOvs1c, 4'000'000, 200'000, 0.25, 8, false},
    {"ovs_2c_sharded", Kind::kOvsSharded, 4'000'000, 200'000, 0.25, 8, false},
    {"ovs_2c_concurrent", Kind::kOvsConcurrent, 4'000'000, 200'000, 0.25, 8,
     false},
    {"reservoir_polled", Kind::kPolled, 16'000'000, 1'000'000, 0.05, 16, true},
    {"adversarial_ascending", Kind::kAscending, 1'000'000, 100'000, 0.25, 1,
     false},
};

/// The smoke-test size: the stream and q scaled together, which keeps the
/// ratio stream/q that sets the admission rate.
[[nodiscard]] Spec scaled(const Spec& s, double scale) {
  Spec out = s;
  const auto items = static_cast<std::size_t>(static_cast<double>(s.items) * scale);
  out.items = std::max<std::size_t>(16 * 1024, items / 1024 * 1024);
  out.q = std::max<std::size_t>(64, static_cast<std::size_t>(
                                        static_cast<double>(s.q) * scale));
  return out;
}

// ------------------------------------------------------------- statistics

struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles; the quartiles follow Python's
/// statistics.quantiles(n=4) (exclusive method) so they compare directly.
[[nodiscard]] Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.p25 = s.p75 = v[0];
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.p25 = quartile(1);
  s.p75 = quartile(3);
  return s;
}

/// Fastest duration seen at each point of a repetition (an epoch, a stream
/// segment, a query), over a run's repetitions. The host's neighbours slow
/// whole stretches of a run, by up to 40% for minutes at a time, but those
/// stretches hold moments of full speed tens of milliseconds long; the
/// fastest of many short pieces of work finds them and follows the code.
class BestTimes {
 public:
  void add(std::size_t point, std::int64_t ns) {
    if (point >= best_.size()) best_.resize(point + 1, kNone);
    best_[point] = std::min(best_[point], ns);
  }
  /// Seconds of a repetition assembled from every point's fastest piece.
  [[nodiscard]] double sum_s() const {
    std::int64_t ns = 0;
    for (const std::int64_t b : best_) ns += b == kNone ? 0 : b;
    return static_cast<double>(ns) * 1e-9;
  }
  /// The median over points of each point's fastest time, in ms.
  [[nodiscard]] double median_ms() const {
    std::vector<double> ms;
    for (const std::int64_t b : best_) {
      if (b != kNone) ms.push_back(static_cast<double>(b) * 1e-6);
    }
    return summarize(ms).median;
  }

 private:
  static constexpr std::int64_t kNone = INT64_MAX;
  std::vector<std::int64_t> best_;
};

/// Named metric series in emission order. A run reports a metric's median
/// over its samples, unless report() set another value (see BestTimes).
class Metrics {
 public:
  void add(const std::string& name, const char* unit, double v) {
    series(name, unit).samples.push_back(v);
  }
  /// The value a run reports instead of the samples' median.
  void report(const std::string& name, const char* unit, double v) {
    series(name, unit).value = v;
  }
  /// Declare a metric that may get no sample (reported as 0).
  void declare(const std::string& name, const char* unit) { series(name, unit); }

  void write_detail(std::FILE* f) const {
    std::fputc('{', f);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Series& e = entries_[i];
      const Summary s = summarize(e.samples);
      std::fprintf(f,
                   "%s\"%s\":{\"value\":%.17g,\"median\":%.17g,\"p25\":%.17g,"
                   "\"p75\":%.17g,\"n\":%zu,\"unit\":\"%s\"}",
                   i == 0 ? "" : ",", e.name.c_str(), e.value.value_or(s.median),
                   s.median, s.p25, s.p75, s.n, e.unit);
    }
    std::fputc('}', f);
  }
  void write_values(std::FILE* f) const {
    std::fputc('{', f);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Series& e = entries_[i];
      std::fprintf(f, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                   i == 0 ? "" : ",", e.name.c_str(),
                   e.value.value_or(summarize(e.samples).median), e.unit);
    }
    std::fputc('}', f);
  }

 private:
  struct Series {
    std::string name;
    const char* unit;
    std::vector<double> samples;
    std::optional<double> value;
  };
  Series& series(const std::string& name, const char* unit) {
    for (auto& e : entries_) {
      if (e.name == name) return e;
    }
    entries_.push_back(Series{name, unit, {}, std::nullopt});
    return entries_.back();
  }
  std::vector<Series> entries_;
};

// ----------------------------------------------------------------- oracle

[[nodiscard]] std::uint64_t fingerprint_of(double v) noexcept {
  return qmax::common::mix64(std::bit_cast<std::uint64_t>(v));
}

/// The exact top-q value multiset of a stream (or stream prefix).
struct Oracle {
  std::size_t size = 0;          // |top q| = min(q, stream length)
  double kth = 0.0;              // smallest value in the top q
  std::uint64_t fingerprint = 0; // order-independent sum over the top q
  std::vector<double> sorted;    // the top q ascending
};

/// Keeps the q largest of `vals` (nth_element + sort) and describes them.
[[nodiscard]] Oracle make_oracle(std::vector<double>& vals, std::size_t q) {
  const std::size_t take = std::min(q, vals.size());
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(take - 1),
                   vals.end(), std::greater<>());
  vals.resize(take);
  Oracle o;
  o.size = take;
  o.sorted = vals;
  std::sort(o.sorted.begin(), o.sorted.end());
  o.kth = o.sorted.front();
  for (double v : o.sorted) o.fingerprint += fingerprint_of(v);
  return o;
}

/// O(q) check that `ans` holds exactly the oracle's value multiset: the
/// right count, nothing below the q-th value, and a matching fingerprint.
[[nodiscard]] bool matches(const std::vector<Entry>& ans, const Oracle& o) {
  if (ans.size() != o.size) return false;
  std::uint64_t fp = 0;
  for (const Entry& e : ans) {
    if (!(e.val >= o.kth)) return false;
    fp += fingerprint_of(e.val);
  }
  return fp == o.fingerprint;
}

/// Element-by-element comparison with the sorted oracle (used once a run).
[[nodiscard]] bool matches_exactly(const std::vector<Entry>& ans,
                                   const Oracle& o) {
  std::vector<double> got;
  got.reserve(ans.size());
  for (const Entry& e : ans) got.push_back(e.val);
  std::sort(got.begin(), got.end());
  return got == o.sorted;
}

// ---------------------------------------------------------------- harness

/// What a repetition measures: the end-to-end metrics (no per-call
/// timing), or the traced per-layer budget (every call timed).
enum class Probe { kThroughput, kTrace };

/// Oracle checks: every query answer, and for the switch workloads every
/// repetition's record delivery (records the consumers saw vs packets).
struct Tally {
  std::uint64_t queries = 0;
  std::uint64_t wrong_answers = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t lossy_deliveries = 0;
  std::uint64_t records = 0;
  std::uint64_t lost_records = 0;

  void query(bool ok, const char* what, const char* workload) {
    ++queries;
    if (!ok) {
      ++wrong_answers;
      std::fprintf(stderr, "qmax_e2e: %s: wrong answer: %s\n", workload, what);
    }
  }
  void delivery(std::uint64_t seen, std::uint64_t sent, const char* workload) {
    ++deliveries;
    records += sent;
    if (seen != sent) {
      ++lossy_deliveries;
      lost_records += seen < sent ? sent - seen : seen - sent;
      std::fprintf(stderr, "qmax_e2e: %s: %llu records sent, %llu seen\n",
                   workload, static_cast<unsigned long long>(sent),
                   static_cast<unsigned long long>(seen));
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return queries + deliveries; }
  [[nodiscard]] std::uint64_t failed() const {
    return wrong_answers + lossy_deliveries;
  }
};

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

/// p-quantile (nearest rank, p in (0, 1]) of `ns`, in microseconds.
[[nodiscard]] double quantile_us(std::vector<std::int64_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(ns.size())));
  const auto k = static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(ns.begin(), ns.begin() + k, ns.end());
  return static_cast<double>(ns[static_cast<std::size_t>(k)]) / 1e3;
}

/// Median of one repetition's durations, in milliseconds.
[[nodiscard]] double median_ms(const std::vector<std::int64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const std::int64_t t : ns) ms.push_back(static_cast<double>(t) * 1e-6);
  return summarize(std::move(ms)).median;
}

/// Shared run structure: one discarded warm-up repetition, then
/// repetitions until the deadline (at least two). A traced run times every
/// second repetition per call (kTrace), so traced and untraced repetitions
/// see the same host conditions.
template <typename Workload>
void drive(Workload& w, const Options& opt) {
  w.template rep<Probe::kThroughput>(false);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t i = 0; i < 2 || now_ns() < deadline; ++i) {
    if (opt.trace && i % 2 == 1) {
      w.template rep<Probe::kTrace>(true);
    } else {
      w.template rep<Probe::kThroughput>(true);
    }
  }
}

/// Per-repetition walls shared by both workload families: the
/// untraced-vs-traced ratio is the tracing overhead.
struct WallTally {
  std::vector<double> untraced;
  std::vector<double> traced;
  [[nodiscard]] double overhead() const {
    const double u = summarize(untraced).median;
    return u > 0.0 ? summarize(traced).median / u : 0.0;
  }
};

/// Metrics that do not apply to a workload still appear (as 0), so every
/// run reports the same per-layer set.
void declare_layer_metrics(Metrics& m) {
  for (const char* n : {"vswitch.dispatch_s", "vswitch.pmd_s", "vswitch.tail_s",
                        "monitor.busy_s", "monitor.stage_s", "qmax.add_batch_s",
                        "qmax.query_s", "durability.snapshot_s", "other_s",
                        "bench.traced_wall_s"}) {
    m.declare(n, "s");
  }
  m.declare("vswitch.push_stalls_per_mpkt", "1/Mpkt");
  m.declare("vswitch.ring_peak_frac", "ratio");
  m.declare("vswitch.records_per_drain", "count");
  m.declare("monitor.idle_frac", "ratio");
  m.declare("qmax.add_batch_p50_us", "us");
  m.declare("qmax.add_batch_p99_us", "us");
  m.declare("qmax.add_batch_p999_us", "us");
  m.declare("qmax.admit_frac", "ratio");
  m.declare("qmax.late_selections", "count");
  m.declare("qmax.concurrent.handoffs_per_mrec", "1/Mrec");
  for (const char* n : {"qmax.concurrent.handoff_stalls",
                        "qmax.concurrent.psi_cas_retries",
                        "qmax.concurrent.maintenance_rounds"}) {
    m.declare(n, "count");
  }
  m.declare("qmax.concurrent.screened_frac", "ratio");
  m.declare("qmax.sharded.broadcast_folds", "count");
  m.declare("qmax.sharded.broadcast_publishes", "count");
  m.declare("durability.image_mb", "MB");
  m.declare("durability.restore_ms", "ms");
  m.declare("bench.trace_overhead", "ratio");
}

// ----------------------------------------------------- library front ends
//
// One adapter per multi-PMD shape: which reservoir the consumers feed,
// which forward_* call runs, and which consumer thread drains a ring.

[[nodiscard]] std::uint64_t late_selections(const Q& r) {
  return r.late_selections();
}
[[nodiscard]] std::uint64_t late_selections(const Sharded& r) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    n += r.shard(s).late_selections();
  }
  return n;
}
[[nodiscard]] std::uint64_t late_selections(const Concurrent& r) {
  return r.core().late_selections();
}

struct MonitoredFront {
  static constexpr std::size_t kConsumers = 1;
  Q r;
  MonitoredFront(std::size_t q, double gamma) : r(q, gamma) {}
  static std::size_t consumer_of(std::size_t) { return 0; }
  void add(std::size_t, const std::uint64_t* ids, const double* vals,
           std::size_t n) {
    r.add_batch(ids, vals, n);
  }
  template <typename C>
  MultiRunResult forward(MultiPmdSwitch& sw,
                         std::span<const qmax::trace::PacketRecord> p, C& c) {
    return sw.forward_monitored(p, c);
  }
};

struct ShardedFront {
  static constexpr std::size_t kConsumers = kPmds;
  Sharded r;
  ShardedFront(std::size_t q, double gamma)
      : r(kPmds, q, Q::Options{.gamma = gamma}, /*psi_broadcast=*/true) {}
  static std::size_t consumer_of(std::size_t ring) { return ring; }
  void add(std::size_t ring, const std::uint64_t* ids, const double* vals,
           std::size_t n) {
    r.add_batch(ring, ids, vals, n);
  }
  template <typename C>
  MultiRunResult forward(MultiPmdSwitch& sw,
                         std::span<const qmax::trace::PacketRecord> p, C& c) {
    return sw.forward_sharded(p, c);
  }
};

struct ConcurrentFront {
  static constexpr std::size_t kConsumers = 2;
  Concurrent r;
  ConcurrentFront(std::size_t q, double gamma)
      : r(q, Q::Options{.gamma = gamma}) {}
  static std::size_t consumer_of(std::size_t ring) { return ring % kConsumers; }
  void add(std::size_t, const std::uint64_t* ids, const double* vals,
           std::size_t n) {
    r.add_batch(ids, vals, n);
  }
  template <typename C>
  MultiRunResult forward(MultiPmdSwitch& sw,
                         std::span<const qmax::trace::PacketRecord> p, C& c) {
    return sw.forward_concurrent(p, kConsumers, c);
  }
};

// ------------------------------------------------------------- workloads

/// Ends of `segments` consecutive stream segments; every end but the last
/// is a multiple of `align`.
[[nodiscard]] std::vector<std::size_t> segment_ends(std::size_t items,
                                                    std::size_t segments,
                                                    std::size_t align) {
  std::vector<std::size_t> ends;
  for (std::size_t s = 1; s < segments; ++s) {
    ends.push_back(items / segments * s / align * align);
  }
  ends.push_back(items);
  return ends;
}

/// Exact oracles for the stream prefixes ending at each of `ends`, each
/// built from the previous prefix's top q plus the new segment.
[[nodiscard]] std::vector<Oracle> prefix_oracles(
    const std::vector<double>& vals, const std::vector<std::size_t>& ends,
    std::size_t q) {
  std::vector<Oracle> out;
  std::vector<double> top;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    top.insert(top.end(), vals.begin() + static_cast<std::ptrdiff_t>(begin),
               vals.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(make_oracle(top, q));
    begin = end;
  }
  return out;
}

/// What both workload families share: oracles, the last snapshot image,
/// set-up timing, the closing restore check, and reporting.
class WorkloadBase {
 public:
  Metrics& metrics() { return metrics_; }
  const Tally& tally() const { return tally_; }
  const e2e::Tracer& tracer() const { return tracer_; }

 protected:
  WorkloadBase(const Spec& spec, const Options& opt, std::size_t lanes)
      : spec_(spec), trace_run_(opt.trace), tracer_(lanes, kTraceLeafCap) {
    if (trace_run_) declare_layer_metrics(metrics_);
  }

  /// Program set-up at the start of a repetition: the previous
  /// repetition's program is torn down (untimed), then a new one is built
  /// (timed). Returns the build time in ns.
  template <typename Teardown, typename Build>
  std::int64_t rebuild(Teardown&& teardown, Build&& build, SpanRef parent,
                       bool traced) {
    teardown();
    SpanRef ref;
    if (traced) ref = tracer_.open(0, Name::kSetup, parent);
    const std::int64_t s0 = now_ns();
    build();
    const std::int64_t s1 = now_ns();
    if (traced) tracer_.close(ref);
    return s1 - s0;
  }

  /// Restore the last image into a freshly built reservoir (the callers
  /// tear the repetitions' program down first): it must answer exactly.
  /// Then add the run-level metrics.
  template <typename R>
  void finish_run(R& fresh, std::FILE* out) {
    SpanRef ref;
    if (trace_run_) ref = tracer_.open(0, Name::kRestore);
    const std::int64_t r0 = now_ns();
    bool restored = true;
    try {
      qmax::durability::restore(fresh, image_);
    } catch (const qmax::durability::SnapshotError& e) {
      std::fprintf(stderr, "qmax_e2e: %s: restore: %s\n", spec_.name, e.what());
      restored = false;
    }
    const std::int64_t r1 = now_ns();
    if (trace_run_) tracer_.close(ref);
    tally_.query(restored && matches_exactly(fresh.query(), oracles_.back()),
                 "query after restore", spec_.name);
    if (!trace_run_) {
      metrics_.report("throughput_mpps", "Mitem/s",
                      static_cast<double>(spec_.items) / best_ingest_.sum_s() / 1e6);
      metrics_.report("query_ms", "ms", best_query_.median_ms());
      metrics_.report("ckpt_ms", "ms", best_snapshot_.median_ms());
      metrics_.add("peak_rss_mb", "MB", peak_rss_mb());
      return;
    }
    metrics_.add("durability.restore_ms", "ms",
                 static_cast<double>(r1 - r0) * 1e-6);
    metrics_.add("bench.trace_overhead", "ratio", walls_.overhead());
    tracer_.print_self_time(out);
  }

  /// Per-call add_batch latency percentiles of one traced repetition.
  void add_call_latency(std::vector<std::int64_t>& ns) {
    metrics_.add("qmax.add_batch_p50_us", "us", quantile_us(ns, 0.5));
    metrics_.add("qmax.add_batch_p99_us", "us", quantile_us(ns, 0.99));
    metrics_.add("qmax.add_batch_p999_us", "us", quantile_us(ns, 0.999));
  }

  /// Per-layer counters every reservoir front end exposes.
  template <typename R>
  void add_reservoir_counters(const R& r) {
    metrics_.add("qmax.admit_frac", "ratio",
                 static_cast<double>(r.admitted()) /
                     static_cast<double>(r.processed()));
    metrics_.add("qmax.late_selections", "count",
                 static_cast<double>(late_selections(r)));
    metrics_.add("durability.image_mb", "MB",
                 static_cast<double>(image_.size()) / 1e6);
  }

  Spec spec_;
  bool trace_run_;
  std::vector<std::size_t> ends_;  // query points in the stream
  std::vector<Oracle> oracles_;    // one per query point
  std::vector<std::byte> image_;   // the last snapshot
  std::vector<std::int64_t> call_ns_;  // add_batch latencies, timed rep
  // Untraced repetitions' pieces: the stream (per epoch or segment), each
  // query and each snapshot, by position in the repetition.
  BestTimes best_ingest_;
  BestTimes best_query_;
  BestTimes best_snapshot_;
  WallTally walls_;
  Metrics metrics_;
  Tally tally_;
  e2e::Tracer tracer_;
};

[[nodiscard]] double record_value(std::uint64_t packet_id,
                                  std::uint64_t salt) noexcept {
  return qmax::common::to_unit_interval(qmax::common::hash64(packet_id, salt));
}

/// Per-consumer timeline of one forward_* call (one writer: that consumer).
struct alignas(64) ConsumerState {
  std::uint64_t records = 0;
  std::int64_t first_ns = 0;  // first callback start
  std::int64_t last_ns = 0;   // last callback end
  std::int64_t busy_ns = 0;
  std::int64_t stage_ns = 0;
  std::int64_t add_ns = 0;
  std::vector<std::int64_t> call_ns;  // kept across a repetition's calls

  void reset() {
    records = 0;
    first_ns = last_ns = busy_ns = stage_ns = add_ns = 0;
  }
};

/// A repetition's traced time, summed over its forward_* calls along each
/// call's busiest consumer — the critical path: dispatch until its first
/// callback, busy + idle until its last, the tail until forward_* returns,
/// then the query.
struct SwitchLayers {
  std::int64_t dispatch_ns = 0;
  std::int64_t window_ns = 0;  // first to last callback: busy + idle
  std::int64_t busy_ns = 0;
  std::int64_t stage_ns = 0;
  std::int64_t add_ns = 0;
  std::int64_t tail_ns = 0;
  std::int64_t query_ns = 0;
  double pmd_s = 0.0;
  std::uint64_t stalls = 0;
  std::uint64_t drained = 0;
  std::uint64_t drain_batches = 0;
  double ring_peak = 0.0;
};

/// 64 B packets through a 2-PMD MultiPmdSwitch into a reservoir behind
/// one of the three forward_* shapes. A repetition cuts the packets into
/// epochs, one forward_* call each, queries after every epoch (a
/// controller polling the monitor), and snapshots once at the end.
template <typename Front>
class SwitchWorkload : public WorkloadBase {
 public:
  SwitchWorkload(const Spec& spec, const Options& opt)
      : WorkloadBase(spec, opt, 1 + Front::kConsumers), salt_(opt.seed),
        cs_(Front::kConsumers) {
    qmax::trace::MinSizePacketGenerator gen(kFlows, opt.seed);
    packets_ = qmax::trace::take_packets(gen, spec.items);
    std::vector<double> vals;
    vals.reserve(packets_.size());
    for (const auto& p : packets_) vals.push_back(record_value(p.packet_id, salt_));
    ends_ = segment_ends(packets_.size(), spec.polls, 1);
    oracles_ = prefix_oracles(vals, ends_, spec.q);
    // A drain carries 20-60 records, so this rarely grows in a timed rep.
    for (auto& c : cs_) c.call_ns.reserve(spec.items / 16);
  }

  template <Probe P>
  void rep(bool keep) {
    constexpr bool kTraced = P == Probe::kTrace;
    SpanRef rep_ref;
    if constexpr (kTraced) rep_ref = tracer_.open(0, Name::kRep);
    const std::int64_t setup_ns = rebuild(
        [&] {
          front_.reset();
          sw_.reset();
        },
        [&] {
          sw_ = std::make_unique<MultiPmdSwitch>(
              MultiPmdConfig{.pmd_threads = kPmds});
          sw_->install_default_rules();
          front_ = std::make_unique<Front>(spec_.q, spec_.gamma);
        },
        rep_ref, kTraced);
    Front& front = *front_;
    if constexpr (kTraced) {
      for (auto& c : cs_) c.call_ns.clear();
    }

    SwitchLayers lay;
    std::int64_t check_ns = 0;
    std::vector<std::int64_t> forward_ns;  // per epoch
    std::vector<std::int64_t> query_ns;
    const std::int64_t w0 = now_ns();
    std::size_t begin = 0;
    for (std::size_t e = 0; e < ends_.size(); ++e) {
      const auto epoch =
          std::span<const qmax::trace::PacketRecord>(packets_).subspan(
              begin, ends_[e] - begin);
      begin = ends_[e];
      for (auto& c : cs_) c.reset();
      SpanRef fwd_ref;
      if constexpr (kTraced) fwd_ref = tracer_.open(0, Name::kForward, rep_ref);
      auto consume = [&](std::size_t ring, std::span<const MonitorRecord> recs) {
        const std::size_t c = Front::consumer_of(ring);
        ConsumerState& st = cs_[c];
        std::uint64_t ids[kBatch];
        double vals[kBatch];
        for (std::size_t i = 0; i < recs.size(); i += kBatch) {
          const std::size_t m = std::min(kBatch, recs.size() - i);
          const std::int64_t t0 = kTraced ? now_ns() : 0;
          for (std::size_t j = 0; j < m; ++j) {
            ids[j] = recs[i + j].src_ip;
            vals[j] = record_value(recs[i + j].packet_id, salt_);
          }
          const std::int64_t t1 = kTraced ? now_ns() : 0;
          front.add(ring, ids, vals, m);
          if constexpr (kTraced) {
            const std::int64_t t2 = now_ns();
            if (st.first_ns == 0) st.first_ns = t0;
            st.last_ns = t2;
            st.busy_ns += t2 - t0;
            st.stage_ns += t1 - t0;
            st.add_ns += t2 - t1;
            st.call_ns.push_back(t2 - t1);
            const SpanRef d = tracer_.leaf(1 + c, Name::kDrain, t0, t2, fwd_ref);
            tracer_.leaf(1 + c, Name::kStage, t0, t1, d);
            tracer_.leaf(1 + c, Name::kAddBatch, t1, t2, d);
          }
          st.records += m;
        }
      };
      const std::int64_t f0 = now_ns();
      const MultiRunResult res = front.forward(*sw_, epoch, consume);
      const std::int64_t f1 = now_ns();
      SpanRef ref;
      if constexpr (kTraced) {
        tracer_.close(fwd_ref);
        ref = tracer_.open(0, Name::kQuery, rep_ref);
      }
      const std::vector<Entry> ans = front.r.query();
      const std::int64_t f2 = now_ns();
      if constexpr (kTraced) {
        tracer_.close(ref);
        accumulate(lay, res, f0, f1, f2);
        ref = tracer_.open(0, Name::kCheck, rep_ref);
      }
      forward_ns.push_back(f1 - f0);
      query_ns.push_back(f2 - f1);
      std::uint64_t seen = 0;
      for (const auto& c : cs_) seen += c.records;
      tally_.delivery(seen, epoch.size(), spec_.name);
      tally_.query(matches(ans, oracles_[e]), "epoch query", spec_.name);
      if constexpr (kTraced) tracer_.close(ref);
      check_ns += now_ns() - f2;
    }
    SpanRef snap_ref;
    if constexpr (kTraced) snap_ref = tracer_.open(0, Name::kSnapshot, rep_ref);
    const std::int64_t s0 = now_ns();
    image_ = qmax::durability::snapshot(front.r);
    const std::int64_t s1 = now_ns();
    if constexpr (kTraced) {
      tracer_.close(snap_ref);
      tracer_.close(rep_ref);
    }
    if (!keep) return;

    const std::int64_t wall_ns = s1 - w0 - check_ns;
    if constexpr (kTraced) {
      call_ns_.clear();
      for (const auto& c : cs_) {
        call_ns_.insert(call_ns_.end(), c.call_ns.begin(), c.call_ns.end());
      }
      add_call_latency(call_ns_);
      record_layers(front, lay, wall_ns, s1 - s0);
    } else {
      walls_.untraced.push_back(static_cast<double>(wall_ns) * 1e-9);
      if (trace_run_) return;
      std::int64_t forward_sum = 0;
      for (std::size_t e = 0; e < forward_ns.size(); ++e) {
        best_ingest_.add(e, forward_ns[e]);
        best_query_.add(e, query_ns[e]);
        forward_sum += forward_ns[e];
      }
      best_snapshot_.add(0, s1 - s0);
      metrics_.add("setup_s", "s", static_cast<double>(setup_ns) * 1e-9);
      metrics_.add("throughput_mpps", "Mitem/s",
                   static_cast<double>(packets_.size()) /
                       (static_cast<double>(forward_sum) * 1e-9) / 1e6);
      metrics_.add("query_ms", "ms", median_ms(query_ns));
      metrics_.add("ckpt_ms", "ms", static_cast<double>(s1 - s0) * 1e-6);
    }
  }

  void finish(std::FILE* out) {
    front_.reset();
    sw_.reset();
    Front fresh(spec_.q, spec_.gamma);
    finish_run(fresh.r, out);
  }

 private:
  void accumulate(SwitchLayers& l, const MultiRunResult& res, std::int64_t f0,
                  std::int64_t f1, std::int64_t f2) const {
    std::size_t b = 0;
    for (std::size_t c = 1; c < cs_.size(); ++c) {
      if (cs_[c].busy_ns > cs_[b].busy_ns) b = c;
    }
    const ConsumerState& st = cs_[b];
    l.dispatch_ns += st.first_ns - f0;
    l.window_ns += st.last_ns - st.first_ns;
    l.busy_ns += st.busy_ns;
    l.stage_ns += st.stage_ns;
    l.add_ns += st.add_ns;
    l.tail_ns += f1 - st.last_ns;
    l.query_ns += f2 - f1;
    double pmd = 0.0;
    for (const auto& r : res.per_pmd) {
      pmd = std::max(pmd, r.seconds);
      l.drain_batches += r.drain_batches;
      l.ring_peak = std::max(l.ring_peak, r.ring_occupancy_peak_frac());
    }
    l.pmd_s += pmd;
    l.stalls += res.total_stalls();
    l.drained += res.total_drained();
  }

  void record_layers(const Front& front, const SwitchLayers& l,
                     std::int64_t wall_ns, std::int64_t snapshot_ns) {
    walls_.traced.push_back(static_cast<double>(wall_ns) * 1e-9);
    const std::int64_t path_ns = l.dispatch_ns + l.window_ns + l.tail_ns +
                                 l.query_ns + snapshot_ns;
    auto secs = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
    Metrics& m = metrics_;
    m.add("vswitch.dispatch_s", "s", secs(l.dispatch_ns));
    m.add("vswitch.pmd_s", "s", l.pmd_s);
    m.add("vswitch.tail_s", "s", secs(l.tail_ns));
    m.add("vswitch.push_stalls_per_mpkt", "1/Mpkt",
          static_cast<double>(l.stalls) /
              (static_cast<double>(packets_.size()) / 1e6));
    m.add("vswitch.ring_peak_frac", "ratio", l.ring_peak);
    m.add("vswitch.records_per_drain", "count",
          l.drain_batches == 0 ? 0.0
                               : static_cast<double>(l.drained) /
                                     static_cast<double>(l.drain_batches));
    m.add("monitor.busy_s", "s", secs(l.busy_ns));
    m.add("monitor.idle_frac", "ratio",
          l.window_ns > 0 ? static_cast<double>(l.window_ns - l.busy_ns) /
                                static_cast<double>(l.window_ns)
                          : 0.0);
    m.add("monitor.stage_s", "s", secs(l.stage_ns));
    m.add("qmax.add_batch_s", "s", secs(l.add_ns));
    m.add("qmax.query_s", "s", secs(l.query_ns));
    m.add("durability.snapshot_s", "s", secs(snapshot_ns));
    m.add("other_s", "s", secs(wall_ns - path_ns));
    m.add("bench.traced_wall_s", "s", secs(wall_ns));

    const auto& r = front.r;
    add_reservoir_counters(r);
    if constexpr (std::is_same_v<Front, ConcurrentFront>) {
      const double recs = static_cast<double>(r.processed());
      m.add("qmax.concurrent.handoffs_per_mrec", "1/Mrec",
            static_cast<double>(r.handoffs()) / (recs / 1e6));
      m.add("qmax.concurrent.handoff_stalls", "count",
            static_cast<double>(r.handoff_stalls()));
      m.add("qmax.concurrent.psi_cas_retries", "count",
            static_cast<double>(r.psi_cas_retries()));
      m.add("qmax.concurrent.maintenance_rounds", "count",
            static_cast<double>(r.maintenance_rounds()));
      m.add("qmax.concurrent.screened_frac", "ratio",
            static_cast<double>(r.screened_out()) / recs);
    }
    if constexpr (std::is_same_v<Front, ShardedFront>) {
      m.add("qmax.sharded.broadcast_folds", "count",
            static_cast<double>(r.broadcast_folds()));
      m.add("qmax.sharded.broadcast_publishes", "count",
            static_cast<double>(r.broadcast_publishes()));
    }
  }

  std::uint64_t salt_;
  std::vector<qmax::trace::PacketRecord> packets_;
  std::unique_ptr<MultiPmdSwitch> sw_;
  std::unique_ptr<Front> front_;
  std::vector<ConsumerState> cs_;
};

/// A single-threaded stream fed straight into one QMax by add_batch(64):
/// uniform values with a query + snapshot after every segment, or a
/// strictly ascending stream in which every item is admitted.
class DirectWorkload : public WorkloadBase {
 public:
  DirectWorkload(const Spec& spec, const Options& opt)
      : WorkloadBase(spec, opt, 1) {
    qmax::common::Xoshiro256 rng(opt.seed);
    vals_.resize(spec.items);
    if (spec.kind == Kind::kAscending) {
      double v = 1.0;
      for (double& x : vals_) x = (v += 0.5 + rng.uniform());
    } else {
      for (double& x : vals_) x = rng.uniform();
    }
    ids_.resize(kIdTable);
    for (auto& id : ids_) id = rng();
    ends_ = segment_ends(spec.items, spec.polls, kBatch);
    oracles_ = prefix_oracles(vals_, ends_, spec.q);
    call_ns_.reserve(spec.items / kBatch + 1);
  }

  template <Probe P>
  void rep(bool keep) {
    constexpr bool kTraced = P == Probe::kTrace;
    SpanRef rep_ref;
    if constexpr (kTraced) rep_ref = tracer_.open(0, Name::kRep);
    const std::int64_t setup_ns = rebuild(
        [&] { r_.reset(); },
        [&] { r_ = std::make_unique<Q>(spec_.q, spec_.gamma); }, rep_ref,
        kTraced);
    Q& r = *r_;
    if constexpr (kTraced) call_ns_.clear();

    std::int64_t add_ns = 0;
    std::int64_t check_ns = 0;
    // Per segment: its add_batch calls and the poll before it. Together
    // they span the first add_batch to the last, polls between included.
    std::vector<std::int64_t> piece_ns;
    std::vector<PollTimes> polls;
    const std::int64_t w0 = now_ns();
    std::int64_t piece0 = w0;
    std::size_t pos = 0;
    for (std::size_t seg = 0; seg < ends_.size(); ++seg) {
      SpanRef ingest_ref;
      if constexpr (kTraced) ingest_ref = tracer_.open(0, Name::kIngest, rep_ref);
      for (const std::size_t end = ends_[seg]; pos < end; pos += kBatch) {
        const std::size_t m = std::min(kBatch, end - pos);
        const std::uint64_t* ids = ids_.data() + pos % kIdTable;
        if constexpr (kTraced) {
          const std::int64_t t0 = now_ns();
          r.add_batch(ids, vals_.data() + pos, m);
          const std::int64_t t1 = now_ns();
          add_ns += t1 - t0;
          call_ns_.push_back(t1 - t0);
          tracer_.leaf(0, Name::kAddBatch, t0, t1, ingest_ref);
        } else {
          r.add_batch(ids, vals_.data() + pos, m);
        }
      }
      if constexpr (kTraced) tracer_.close(ingest_ref);
      const std::int64_t t = now_ns();
      piece_ns.push_back(t - piece0 - (polls.empty() ? 0 : polls.back().check_ns));
      piece0 = t;
      polls.push_back(poll(r, seg, rep_ref, kTraced,
                           spec_.snapshot_each_poll || seg + 1 == ends_.size()));
      check_ns += polls.back().check_ns;
    }
    const std::int64_t w1 = now_ns();
    if constexpr (kTraced) tracer_.close(rep_ref);
    if (!keep) return;

    const std::int64_t wall_ns = w1 - w0 - check_ns;
    std::int64_t query_ns = 0;
    std::int64_t snap_ns = 0;
    for (const PollTimes& p : polls) {
      query_ns += p.query_ns;
      snap_ns += p.snapshot_ns;
    }
    auto secs = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
    if constexpr (kTraced) {
      add_call_latency(call_ns_);
      walls_.traced.push_back(secs(wall_ns));
      metrics_.add("qmax.add_batch_s", "s", secs(add_ns));
      metrics_.add("qmax.query_s", "s", secs(query_ns));
      metrics_.add("durability.snapshot_s", "s", secs(snap_ns));
      metrics_.add("other_s", "s", secs(wall_ns - add_ns - query_ns - snap_ns));
      metrics_.add("bench.traced_wall_s", "s", secs(wall_ns));
      add_reservoir_counters(r);
    } else {
      walls_.untraced.push_back(secs(wall_ns));
      if (trace_run_) return;
      std::int64_t ingest_ns = 0;
      std::vector<std::int64_t> queries;
      std::vector<std::int64_t> snapshots;
      for (std::size_t seg = 0; seg < polls.size(); ++seg) {
        const PollTimes& p = polls[seg];
        best_ingest_.add(seg, piece_ns[seg]);
        best_query_.add(seg, p.query_ns);
        ingest_ns += piece_ns[seg];
        queries.push_back(p.query_ns);
        if (p.snapshot_ns > 0) {
          best_snapshot_.add(snapshots.size(), p.snapshot_ns);
          snapshots.push_back(p.snapshot_ns);
        }
      }
      metrics_.add("setup_s", "s", secs(setup_ns));
      metrics_.add("throughput_mpps", "Mitem/s",
                   static_cast<double>(spec_.items) / secs(ingest_ns) / 1e6);
      metrics_.add("query_ms", "ms", median_ms(queries));
      metrics_.add("ckpt_ms", "ms", median_ms(snapshots));
    }
  }

  void finish(std::FILE* out) {
    r_.reset();
    Q fresh(spec_.q, spec_.gamma);
    finish_run(fresh, out);
  }

 private:
  struct PollTimes {
    std::int64_t query_ns;
    std::int64_t snapshot_ns;  // 0 when this poll took no snapshot
    std::int64_t check_ns;
  };

  /// query (+ snapshot) after segment `seg`, checked against its oracle.
  PollTimes poll(const Q& r, std::size_t seg, SpanRef rep_ref, bool traced,
                 bool snapshot) {
    SpanRef ref;
    if (traced) ref = tracer_.open(0, Name::kQuery, rep_ref);
    const std::int64_t t0 = now_ns();
    const std::vector<Entry> ans = r.query();
    const std::int64_t t1 = now_ns();
    if (traced) tracer_.close(ref);
    std::int64_t t2 = t1;
    if (snapshot) {
      if (traced) ref = tracer_.open(0, Name::kSnapshot, rep_ref);
      image_ = qmax::durability::snapshot(r);
      t2 = now_ns();
      if (traced) tracer_.close(ref);
    }
    if (traced) ref = tracer_.open(0, Name::kCheck, rep_ref);
    tally_.query(matches(ans, oracles_[seg]), "polled query", spec_.name);
    if (traced) tracer_.close(ref);
    return PollTimes{t1 - t0, t2 - t1, now_ns() - t2};
  }

  std::vector<double> vals_;
  std::vector<std::uint64_t> ids_;
  std::unique_ptr<Q> r_;
};

// ------------------------------------------------------------------- main

template <typename Workload>
Tally run(const Spec& spec, const Options& opt) {
  // Inputs and oracles.
  const std::int64_t p0 = now_ns();
  Workload w(spec, opt);
  const double prepare_s = static_cast<double>(now_ns() - p0) * 1e-9;
  drive(w, opt);
  std::FILE* out = stdout;
  w.finish(out);
  if (!opt.chrome_trace.empty() && !w.tracer().write_chrome_trace(opt.chrome_trace)) {
    std::fprintf(stderr, "qmax_e2e: cannot write %s\n", opt.chrome_trace.c_str());
  }
  const Tally& t = w.tally();
  std::fprintf(out,
               "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
               "\"prepare_s\":%.6f,\"checks\":{\"queries\":%llu,"
               "\"wrong_answers\":%llu,\"records\":%llu,\"lost_records\":%llu},"
               "\"detail\":",
               spec.name, static_cast<unsigned long long>(opt.seed),
               opt.trace ? 1 : 0, prepare_s,
               static_cast<unsigned long long>(t.queries),
               static_cast<unsigned long long>(t.wrong_answers),
               static_cast<unsigned long long>(t.records),
               static_cast<unsigned long long>(t.lost_records));
  w.metrics().write_detail(out);
  std::fputs("}\n", out);
  std::fprintf(out, "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":",
               t.failed() == 0 ? "true" : "false",
               static_cast<unsigned long long>(t.attempted()),
               static_cast<unsigned long long>(t.failed()));
  w.metrics().write_values(out);
  std::fputs("}\n", out);
  std::fflush(out);
  return t;
}

Tally run_spec(const Spec& spec, const Options& opt) {
  switch (spec.kind) {
    case Kind::kOvs1c: return run<SwitchWorkload<MonitoredFront>>(spec, opt);
    case Kind::kOvsSharded: return run<SwitchWorkload<ShardedFront>>(spec, opt);
    case Kind::kOvsConcurrent:
      return run<SwitchWorkload<ConcurrentFront>>(spec, opt);
    case Kind::kPolled:
    case Kind::kAscending: return run<DirectWorkload>(spec, opt);
  }
  return {};
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qmax_e2e: %s\n"
               "usage: qmax_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--chrome-trace PATH]\n"
               "       qmax_e2e --smoke   (every workload at 1/100 size)\n"
               "workloads:",
               why);
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fputc('\n', stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (a == "--chrome-trace") {
      o.chrome_trace = v;
    } else {
      usage("unknown argument");
    }
    if (end != nullptr && (*end != '\0' || end == v)) usage("bad number");
  }
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  if (opt.smoke) {
    // Every workload at 1/100 size, untraced and traced, oracle on.
    std::uint64_t failed = 0;
    for (const Spec& s : kSpecs) {
      for (const bool traced : {false, true}) {
        Options o = opt;
        o.trace = traced;
        o.seconds = 0.0;
        failed += run_spec(scaled(s, 0.01), o).failed();
      }
    }
    return failed == 0 ? 0 : 1;
  }
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) {
      return run_spec(s, opt).failed() == 0 ? 0 : 1;
    }
  }
  usage(opt.workload.empty() ? "--workload is required" : "unknown workload");
}
