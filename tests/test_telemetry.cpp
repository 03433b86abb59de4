// Tests for the telemetry layer: the compile-time gate, the log2
// histogram, the named-metric registry, the JSON exporters, the
// duck-typed binders over the instrumented structures, and the flight
// recorder (spans, per-thread rings, the Chrome trace export).
//
// The suite compiles (and must pass) under both gate states; assertions
// on recorded values are #if-gated, everything else — registry naming,
// JSON shape, always-on statistics — is exercised unconditionally.
#include "telemetry/bind.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_export.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cache/lrfu_qmax.hpp"
#include "common/random.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"
#include "qmax/sharded.hpp"
#include "trace/synthetic.hpp"
#include "vswitch/vswitch.hpp"

namespace {

namespace tel = qmax::telemetry;

// ---- The compile-time gate -------------------------------------------

#if QMAX_TELEMETRY_ENABLED
// ON: the padded instruments occupy exactly one cache line each, so
// per-thread writers never false-share.
static_assert(tel::kEnabled);
static_assert(sizeof(tel::PaddedCounter) == tel::kCacheLineBytes);
static_assert(sizeof(tel::PaddedGauge) == tel::kCacheLineBytes);
static_assert(alignof(tel::PaddedCounter) == tel::kCacheLineBytes);
#else
// OFF (the default): every instrument and the span type are empty — call
// sites compile away, hosts pay nothing via [[no_unique_address]], and
// the instrumented hot paths carry no tracing.
static_assert(!tel::kEnabled);
static_assert(std::is_empty_v<tel::Counter>);
static_assert(std::is_empty_v<tel::Gauge>);
static_assert(std::is_empty_v<tel::MaxGauge>);
static_assert(std::is_empty_v<tel::PaddedCounter>);
static_assert(std::is_empty_v<tel::PaddedGauge>);
static_assert(std::is_empty_v<tel::Histogram>);
static_assert(std::is_empty_v<tel::Span>);
#endif

// Stage names are export keys (trace.stage.<stage> metrics, Chrome "cat"
// fields, bench_snapshot.py matching) — locked here, renames are breaking.
static_assert(std::string_view(tel::stage_name(tel::Stage::kAdd)) == "add");
static_assert(std::string_view(tel::stage_name(tel::Stage::kAddBatch)) ==
              "add_batch");
static_assert(std::string_view(tel::stage_name(tel::Stage::kMaintenance)) ==
              "maintenance");
static_assert(std::string_view(tel::stage_name(tel::Stage::kPartitionTop)) ==
              "partition_top");
static_assert(std::string_view(tel::stage_name(tel::Stage::kPsiPublish)) ==
              "psi_publish");
static_assert(std::string_view(tel::stage_name(tel::Stage::kPsiFold)) ==
              "psi_fold");
static_assert(std::string_view(tel::stage_name(tel::Stage::kMergeQuery)) ==
              "merge_query");
static_assert(std::string_view(tel::stage_name(tel::Stage::kRingPushStall)) ==
              "ring_push_stall");
static_assert(std::string_view(tel::stage_name(tel::Stage::kRingDrain)) ==
              "ring_drain");
static_assert(std::string_view(tel::stage_name(tel::Stage::kOverload)) ==
              "overload");

TEST(TelemetryGate, DisabledInstrumentsReadZero) {
  // Valid in both modes; in the OFF build this pins the no-op contract.
  tel::Counter c;
  c.inc(41);
  tel::Histogram h;
  h.record(7);
  if constexpr (!tel::kEnabled) {
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.snapshot().max, 0u);
  } else {
    EXPECT_EQ(c.value(), 41u);
    EXPECT_EQ(h.count(), 1u);
  }
}

// ---- Histogram -------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b).
  using H = tel::Histogram;
  static_assert(H::bucket_of(0) == 0);
  static_assert(H::bucket_of(1) == 1);
  static_assert(H::bucket_of(2) == 2);
  static_assert(H::bucket_of(3) == 2);
  static_assert(H::bucket_of(4) == 3);
  static_assert(H::bucket_of(7) == 3);
  static_assert(H::bucket_of(8) == 4);
  static_assert(H::bucket_of(~std::uint64_t{0}) == 64);
  static_assert(H::bucket_upper(0) == 0);
  static_assert(H::bucket_upper(1) == 1);
  static_assert(H::bucket_upper(2) == 3);
  static_assert(H::bucket_upper(3) == 7);
  static_assert(H::bucket_upper(64) == ~std::uint64_t{0});
  // Every value lands in a bucket whose range contains it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 65536ull}) {
    const std::size_t b = H::bucket_of(v);
    EXPECT_LE(v, H::bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, H::bucket_upper(b - 1));
    }
  }
}

#if QMAX_TELEMETRY_ENABLED
TEST(Histogram, CountsSumsAndMax) {
  tel::Histogram h;
  for (std::uint64_t v = 0; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // {0}
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket_count(7), 37u); // {64..100}
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, QuantilesResolveToBucketUppers) {
  tel::Histogram h;
  // 90 small values and 10 large ones: p50 must sit in the small range,
  // p99/p999 in the large one, and everything clamps to the true max.
  for (int i = 0; i < 90; ++i) h.record(3);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.quantile(0.50), 3u);
  EXPECT_LE(h.quantile(0.99), 1000u);
  EXPECT_GE(h.quantile(0.99), 512u);  // inside bucket_of(1000)'s range
  EXPECT_EQ(h.quantile(1.0), 1000u);  // clamped to observed max
  EXPECT_EQ(h.quantile(0.0), 3u);     // rank floors at the first value
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 3u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(s.mean(), (90.0 * 3 + 10.0 * 1000) / 100.0, 1e-9);
}

TEST(Histogram, EmptyQuantileIsZero) {
  tel::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.snapshot().p999, 0u);
}
#endif  // QMAX_TELEMETRY_ENABLED

// ---- Registry --------------------------------------------------------

std::vector<std::string> names_of(const std::vector<tel::MetricSample>& s) {
  std::vector<std::string> out;
  for (const auto& m : s) out.push_back(m.name);
  return out;
}

TEST(Registry, CollectsInRegistrationOrder) {
  tel::Registry reg;
  std::uint64_t x = 7;
  auto r1 = reg.add_counter("a", [&x] { return x; });
  auto r2 = reg.add_gauge("b", [] { return 2.5; });
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].counter, 7u);
  EXPECT_EQ(samples[1].name, "b");
  EXPECT_DOUBLE_EQ(samples[1].gauge, 2.5);
  x = 9;  // reads are live closures, not cached values
  EXPECT_EQ(reg.collect()[0].counter, 9u);
}

TEST(Registry, NameCollisionsUniquifyDeterministically) {
  tel::Registry reg;
  auto r1 = reg.add_counter("qmax.admitted", [] { return 1ull; });
  auto r2 = reg.add_counter("qmax.admitted", [] { return 2ull; });
  auto r3 = reg.add_counter("qmax.admitted", [] { return 3ull; });
  EXPECT_EQ(names_of(reg.collect()),
            (std::vector<std::string>{"qmax.admitted", "qmax.admitted#2",
                                      "qmax.admitted#3"}));
}

TEST(Registry, RegistrationIsRaii) {
  tel::Registry reg;
  {
    auto r = reg.add_counter("scoped", [] { return 0ull; });
    EXPECT_TRUE(r.active());
    EXPECT_EQ(reg.size(), 1u);
  }
  EXPECT_EQ(reg.size(), 0u);

  auto a = reg.add_counter("moved", [] { return 0ull; });
  tel::Registration b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_EQ(reg.size(), 1u);
  b = tel::Registration{};
  EXPECT_EQ(reg.size(), 0u);
}

// ---- JSON export -----------------------------------------------------
//
// Minimal JSON walker for the exporters' documents (metrics blobs and the
// Chrome trace): objects, arrays, strings, numbers, bools. Records every
// object key in order; malformed input fails the walk.

struct TraceJson {
  explicit TraceJson(const std::string& str) : s(str) {}

  const std::string& s;
  std::size_t i = 0;
  bool ok = true;
  std::vector<std::string> keys;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  std::string string() {
    ws();
    std::string out;
    if (i >= s.size() || s[i] != '"') {
      ok = false;
      return out;
    }
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out += s[i++];
    }
    if (!eat('"')) ok = false;
    return out;
  }
  void value() {
    ws();
    if (!ok || i >= s.size()) {
      ok = false;
      return;
    }
    const char c = s[i];
    if (c == '{') {
      object();
    } else if (c == '[') {
      array();
    } else if (c == '"') {
      string();
    } else if (c == 't') {
      ok = s.compare(i, 4, "true") == 0;
      i += 4;
    } else if (c == 'f') {
      ok = s.compare(i, 5, "false") == 0;
      i += 5;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      ++i;
      while (i < s.size() && (s[i] == '.' || s[i] == '-' || s[i] == '+' ||
                              s[i] == 'e' || s[i] == 'E' ||
                              (s[i] >= '0' && s[i] <= '9'))) {
        ++i;
      }
    } else {
      ok = false;
    }
  }
  void array() {
    if (!eat('[')) return;
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return;
    }
    for (;;) {
      value();
      if (!ok) return;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      eat(']');
      return;
    }
  }
  void object() {
    if (!eat('{')) return;
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return;
    }
    for (;;) {
      keys.push_back(string());
      if (!eat(':')) return;
      value();
      if (!ok) return;
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      eat('}');
      return;
    }
  }
  bool parse() {
    object();
    ws();
    return ok && i == s.size();
  }
};

bool contains(const std::vector<std::string>& keys, const std::string& k) {
  for (const auto& x : keys) {
    if (x == k) return true;
  }
  return false;
}

TEST(JsonExport, EscapesAndNumbers) {
  EXPECT_EQ(tel::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(tel::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(tel::json_number(std::nan("")), "0");  // NaN never leaks
  EXPECT_EQ(tel::json_number(std::numeric_limits<double>::infinity()),
            "0");  // nor infinities
  EXPECT_EQ(tel::json_number(2.0), "2");
}

TEST(JsonExport, SnapshotRoundTrips) {
  tel::Registry reg;
  auto r1 = reg.add_counter("qmax.admitted", [] { return 42ull; });
  auto r2 = reg.add_gauge("ring \"0\".occupancy", [] { return 0.5; });
  tel::HistogramSnapshot hs;
  hs.count = 3;
  hs.sum = 6;
  hs.max = 3;
  hs.p50 = 1;
  auto r3 = reg.add_histogram("qmax.steps", [hs] { return hs; });

  const std::string json = tel::snapshot_json(reg);
  TraceJson p{json};
  ASSERT_TRUE(p.parse()) << json;
  EXPECT_TRUE(contains(p.keys, "telemetry_enabled"));
  EXPECT_TRUE(contains(p.keys, "metrics"));
  EXPECT_TRUE(contains(p.keys, "qmax.admitted"));
  EXPECT_TRUE(contains(p.keys, "ring \"0\".occupancy"));  // unescaped by reader
  EXPECT_TRUE(contains(p.keys, "qmax.steps"));
  EXPECT_TRUE(contains(p.keys, "p999"));
  // The counter's value must appear verbatim.
  EXPECT_NE(json.find("\"value\": 42"), std::string::npos);
}

TEST(JsonExport, SamplerTakesSnapshotsOnDemand) {
  tel::Registry reg;
  auto r = reg.add_counter("ticks", [] { return 1ull; });
  tel::Sampler sampler(std::chrono::hours(1), reg);
  EXPECT_FALSE(sampler.maybe_sample());  // interval far from elapsed
  EXPECT_TRUE(sampler.samples().empty());
  sampler.sample_now();
  ASSERT_EQ(sampler.samples().size(), 1u);
  TraceJson p{sampler.samples()[0]};
  ASSERT_TRUE(p.parse());
  EXPECT_TRUE(contains(p.keys, "ticks"));
}

// ---- Binders over the real structures --------------------------------

TEST(Bind, QMaxExportsStatsAndInstruments) {
  qmax::QMax<> r(64, 0.5);
  qmax::common::Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) {
    r.add(static_cast<std::uint64_t>(i), rng.uniform());
  }
  tel::Registry reg;
  auto regs = tel::bind_metrics(reg, "qmax", r);
  const auto names = names_of(reg.collect());
  EXPECT_TRUE(contains(names, "qmax.processed"));
  EXPECT_TRUE(contains(names, "qmax.admitted"));
  EXPECT_TRUE(contains(names, "qmax.live"));
  EXPECT_TRUE(contains(names, "qmax.late_selections"));
#if QMAX_TELEMETRY_ENABLED
  EXPECT_TRUE(contains(names, "qmax.psi_updates"));
  EXPECT_TRUE(contains(names, "qmax.steps_per_add"));
  EXPECT_TRUE(contains(names, "qmax.evict_batch_size"));
  // The instruments really fired during the stream.
  EXPECT_GT(r.telem().psi_updates.value(), 0u);
  EXPECT_GT(r.telem().evict_batches.value(), 0u);
  EXPECT_EQ(r.telem().steps_per_add.count(), r.admitted());
  // reset() clears the instruments along with the reservoir state.
  r.reset();
  EXPECT_EQ(r.telem().psi_updates.value(), 0u);
  EXPECT_EQ(r.telem().steps_per_add.count(), 0u);
#else
  EXPECT_FALSE(contains(names, "qmax.psi_updates"));
#endif
}

TEST(Bind, TenPlusMetricsSpanQmaxCacheAndSwitch) {
  // The acceptance shape: one registry watching a reservoir, a cache and
  // a monitored switch run yields >= 10 named metrics across all three
  // subsystems, and the JSON snapshot of it parses.
  qmax::QMax<> r(32, 0.5);
  for (int i = 0; i < 5'000; ++i) {
    r.add(static_cast<std::uint64_t>(i), static_cast<double>(i % 997));
  }

  qmax::cache::LrfuQMaxCache<> cache(100, 0.75, 0.5);
  qmax::trace::CacheTraceGenerator gen;
  for (int i = 0; i < 5'000; ++i) cache.access(gen.next());

  qmax::vswitch::VirtualSwitch sw;
  sw.install_default_rules();
  qmax::trace::MinSizePacketGenerator pgen(1'000, 1);
  const auto pkts = qmax::trace::take_packets(pgen, 10'000);
  std::uint64_t consumed = 0;
  const auto res = sw.forward_monitored(
      pkts, [&](const qmax::vswitch::MonitorRecord&) { ++consumed; });

  tel::Registry reg;
  std::vector<tel::Registration> regs;
  tel::bind_metrics_into(reg, "qmax", r, regs);
  tel::bind_metrics_into(reg, "cache", cache, regs);
  tel::bind_metrics_into(reg, "vswitch", res, regs);
  tel::bind_metrics_into(reg, "vswitch.monitor", sw.monitor_telemetry(), regs);

  const auto samples = reg.collect();
  EXPECT_GE(samples.size(), 10u);
  int qmax_n = 0, cache_n = 0, vswitch_n = 0;
  for (const auto& s : samples) {
    if (s.name.starts_with("qmax.")) ++qmax_n;
    if (s.name.starts_with("cache.")) ++cache_n;
    if (s.name.starts_with("vswitch.")) ++vswitch_n;
  }
  EXPECT_GE(qmax_n, 3);
  EXPECT_GE(cache_n, 3);
  EXPECT_GE(vswitch_n, 4);

  // Always-on gauges reflect the run in every build.
  std::map<std::string, tel::MetricSample> by_name;
  for (const auto& s : samples) by_name.emplace(s.name, s);
  EXPECT_EQ(by_name.at("vswitch.packets").counter, pkts.size());
  EXPECT_EQ(by_name.at("vswitch.records_drained").counter, consumed);
  EXPECT_EQ(by_name.at("cache.accesses").counter, cache.accesses());
  EXPECT_GT(by_name.at("vswitch.ring_capacity").gauge, 0.0);

  const std::string json = tel::snapshot_json(reg);
  TraceJson p{json};
  ASSERT_TRUE(p.parse()) << json;
  EXPECT_TRUE(contains(p.keys, "vswitch.ring_occupancy_max"));

#if QMAX_TELEMETRY_ENABLED
  EXPECT_EQ(sw.monitor_telemetry().records_drained.value(), consumed);
  EXPECT_GT(sw.monitor_telemetry().drain_batch.count(), 0u);
#endif
}

TEST(Bind, ShardedQMaxExportsStableKeys) {
  // The sharded reservoir's export surface is part of the observability
  // contract: bench_abl_sharding blobs and dashboards key on these names.
  qmax::ShardedQMax<qmax::QMax<>> sh(2, 64, {}, true);
  qmax::common::Xoshiro256 rng(11);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    sh.add(i % 2, i, rng.uniform());
  }
  const auto top = sh.query();
  EXPECT_EQ(top.size(), 64u);

  tel::Registry reg;
  auto regs = tel::bind_metrics(reg, "sharded", sh);
  const auto samples = reg.collect();
  const auto names = names_of(samples);
  EXPECT_TRUE(contains(names, "sharded.processed"));
  EXPECT_TRUE(contains(names, "sharded.admitted"));
  EXPECT_TRUE(contains(names, "sharded.live"));
#if QMAX_TELEMETRY_ENABLED
  EXPECT_TRUE(contains(names, "sharded.merge_queries"));
  EXPECT_TRUE(contains(names, "sharded.merge_gathered"));
  EXPECT_EQ(sh.telem().merge_queries.value(), 1u);
#else
  EXPECT_FALSE(contains(names, "sharded.merge_queries"));
#endif

  // Always-on aggregates reflect the run, and the snapshot parses with
  // the names intact.
  std::map<std::string, tel::MetricSample> by_name;
  for (const auto& s : samples) by_name.emplace(s.name, s);
  EXPECT_EQ(by_name.at("sharded.processed").counter, 10'000u);
  EXPECT_GE(by_name.at("sharded.live").gauge, 64.0);
  const std::string json = tel::snapshot_json(reg);
  TraceJson p{json};
  ASSERT_TRUE(p.parse()) << json;
  EXPECT_TRUE(contains(p.keys, "sharded.admitted"));
}

TEST(Bind, RingGaugesSurfaceThroughRunResult) {
  qmax::vswitch::VirtualSwitch sw;
  sw.install_default_rules();
  qmax::trace::MinSizePacketGenerator pgen(1'000, 7);
  const auto pkts = qmax::trace::take_packets(pgen, 20'000);
  std::uint64_t consumed = 0;
  const auto res = sw.forward_monitored(
      pkts, [&](const qmax::vswitch::MonitorRecord&) { ++consumed; });
  EXPECT_EQ(res.packets, pkts.size());
  EXPECT_EQ(res.records_drained, consumed);
  EXPECT_EQ(res.records_drained, res.records_enqueued());
  EXPECT_EQ(res.ring_capacity, sw.config().ring_capacity);
  EXPECT_GT(res.drain_batches, 0u);
  EXPECT_LE(res.ring_occupancy_max, res.ring_capacity);
  EXPECT_GE(res.ring_occupancy_peak_frac(), 0.0);
  EXPECT_LE(res.ring_occupancy_peak_frac(), 1.0);
}

// Counts the algorithms keep in plain fields export in every build under
// one key each, reading exactly what their accessors read: no gated twin
// counts the same event.
TEST(Bind, PlainCountsExportInEveryBuild) {
  qmax::common::Xoshiro256 rng(5);
  qmax::SampledQMax<> sampled(256, 0.25, 64);  // forced to sample
  ASSERT_TRUE(sampled.sampling_enabled());
  qmax::ConcurrentQMax<qmax::QMax<>> concurrent(64, {}, 32);
  qmax::ShardedQMax<qmax::QMax<>> sharded(2, 64);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const double v = rng.uniform();
    sampled.add(i, v);
    concurrent.add(i, v);
    sharded.add(i % 2, i, v);
  }
  EXPECT_EQ(concurrent.query().size(), 64u);
  EXPECT_EQ(sharded.query().size(), 64u);
  EXPECT_EQ(sharded.query().size(), 64u);  // clean: served from the cache
  EXPECT_GT(sampled.sampled_passes(), 0u);
  EXPECT_GT(concurrent.psi_publishes(), 0u);
  EXPECT_EQ(sharded.merges_skipped_clean(), 1u);

  tel::Registry reg;
  std::vector<tel::Registration> regs;
  tel::bind_metrics_into(reg, "sampled", sampled, regs);
  tel::bind_metrics_into(reg, "concurrent", concurrent, regs);
  tel::bind_metrics_into(reg, "sharded", sharded, regs);
  std::map<std::string, tel::MetricSample> by_name;
  for (const auto& s : reg.collect()) by_name.emplace(s.name, s);
  EXPECT_EQ(by_name.at("sampled.sampled_passes").counter,
            sampled.sampled_passes());
  EXPECT_EQ(by_name.at("sampled.exact_fallbacks").counter,
            sampled.exact_fallbacks());
  EXPECT_EQ(by_name.at("concurrent.psi_publishes").counter,
            concurrent.psi_publishes());
  EXPECT_EQ(by_name.at("concurrent.psi_cas_retries").counter,
            concurrent.psi_cas_retries());
  EXPECT_EQ(by_name.at("sharded.merges_skipped_clean").counter,
            sharded.merges_skipped_clean());
  for (const auto& [name, sample] : by_name) {
    EXPECT_EQ(name.find('#'), std::string::npos) << name << " bound twice";
  }
}

// ---- Flight recorder (telemetry/trace.hpp) ---------------------------

// Both gate states: the export is a well-formed catapult document with
// the envelope keys, and says which mode produced it under the metrics
// blob's flag.
TEST(FlightRecorder, TraceJsonIsWellFormedEitherMode) {
  const std::string json = tel::trace_json();
  TraceJson p{json};
  EXPECT_TRUE(p.parse()) << json.substr(0, 200);
  EXPECT_TRUE(contains(p.keys, "traceEvents"));
  EXPECT_TRUE(contains(p.keys, "displayTimeUnit"));
  EXPECT_TRUE(contains(p.keys, "otherData"));
  const std::string flag = std::string("\"telemetry_enabled\": ") +
                           (tel::kEnabled ? "true" : "false");
  EXPECT_NE(json.find(flag), std::string::npos);
}

// Stage histograms reach the metric registry, every stage in Stage
// order, only when the gate is on; the binder is a silent no-op otherwise.
TEST(FlightRecorder, StageMetricsBindMatchesGate) {
  tel::Registry reg;
  std::vector<tel::Registration> regs;
  tel::bind_trace_stage_metrics(reg, regs);
  EXPECT_EQ(regs.size(), tel::kEnabled ? tel::kStageCount : 0u);
  if (tel::kEnabled) {
    const auto samples = reg.collect();
    ASSERT_EQ(samples.size(), tel::kStageCount);
    EXPECT_EQ(samples.front().name, "trace.stage.add");
    EXPECT_EQ(samples.back().name, "trace.stage.psi_cas");
  }
}

#if QMAX_TELEMETRY_ENABLED

TEST(FlightRecorder, SpanRecordsRingEventAndHistogram) {
  auto& reg = tel::TraceRegistry::instance();
  reg.reset();
  { tel::Span span(tel::Stage::kPartitionTop); }
  tel::instant(tel::Stage::kOverload, "ladder:test_marker");

  EXPECT_EQ(reg.merged_stage(tel::Stage::kPartitionTop).snapshot().count, 1u);
  // Instants mark the histogram-free stages: no duration recorded.
  EXPECT_EQ(reg.merged_stage(tel::Stage::kOverload).snapshot().count, 0u);

  bool saw_span = false, saw_instant = false;
  for (const auto& e : reg.collect_events()) {
    if (e.stage == tel::Stage::kPartitionTop && e.dur_ns >= 1) {
      saw_span = true;
    }
    if (e.stage == tel::Stage::kOverload && e.dur_ns == 0 &&
        std::string_view(e.name) == "ladder:test_marker") {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

// The instrumented reservoir emits spans on its real hot paths; the ring
// is overwrite-oldest (bounded) while the histograms keep every sample.
TEST(FlightRecorder, InstrumentedReservoirFillsStagesAndRingIsBounded) {
  auto& reg = tel::TraceRegistry::instance();
  reg.reset();

  qmax::QMax<> r(100, 0.5);
  qmax::common::Xoshiro256 rng(7);
  const std::size_t n = 20'000;
  for (std::size_t i = 0; i < n; ++i) {
    r.add(i, rng.uniform());
  }
  std::uint64_t ids[8];
  double vals[8];
  for (std::size_t i = 0; i < 8; ++i) {
    ids[i] = n + i;
    vals[i] = rng.uniform();
  }
  r.add_batch(ids, vals, 8);

  EXPECT_EQ(reg.merged_stage(tel::Stage::kAdd).snapshot().count, n);
  EXPECT_GE(reg.merged_stage(tel::Stage::kMaintenance).snapshot().count, 1u);
  EXPECT_GE(reg.merged_stage(tel::Stage::kAddBatch).snapshot().count, 1u);

  // Every histogram sample survived; the ring retained at most its
  // capacity per recorder (flight-recorder semantics).
  std::size_t total_capacity = 0;
  std::uint64_t total_recorded = 0;
  reg.for_each_recorder([&](const tel::ThreadRecorder& rec) {
    total_capacity += tel::kRingEvents;
    total_recorded += rec.events_recorded();
  });
  EXPECT_GE(total_recorded, static_cast<std::uint64_t>(n));
  EXPECT_LE(reg.collect_events().size(), total_capacity);
}

TEST(FlightRecorder, ChromeExportHasCatapultEventShape) {
  auto& reg = tel::TraceRegistry::instance();
  reg.reset();
  {
    tel::Span span(tel::Stage::kMergeQuery);
  }
  tel::instant(tel::Stage::kOverload, "ladder:export_check");

  const std::string json = tel::trace_json();
  TraceJson p{json};
  EXPECT_TRUE(p.parse());
  // One thread-name metadata row, complete spans, sourced instants.
  EXPECT_NE(json.find("\"name\": \"thread_name\", \"ph\": \"M\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\", \"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"merge_query\""), std::string::npos);
  EXPECT_NE(json.find("ladder:export_check"), std::string::npos);
}

#endif  // QMAX_TELEMETRY_ENABLED

}  // namespace
