// Trace substrate tests: generators produce the documented statistical
// shapes; binary IO round-trips. Also the flight recorder
// (telemetry/trace.hpp): its gate, ring/histogram recording, and the
// Chrome trace-event export — compiled under both QMAX_TRACE states.
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/random.hpp"
#include "qmax/qmax.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace qmax::trace;

TEST(WireModel, MinimalAndTypicalFrames) {
  // 64B minimal frame occupies 84B on the wire → 14.88 Mpps at 10G.
  EXPECT_NEAR(line_rate_pps(10.0, 46) / 1e6, 14.88, 0.01);
  // 1500B IP packet → 1538B wire occupancy.
  EXPECT_NEAR(wire_bytes(1500), 1538.0, 0.01);
  EXPECT_NEAR(line_rate_pps(40.0, 1500) / 1e6, 3.2509, 0.01);
}

TEST(RandomStream, SequentialIdsUniformValues) {
  RandomStream s(1);
  double sum = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const auto item = s.next();
    EXPECT_EQ(item.id, i);
    ASSERT_GE(item.val, 0.0);
    ASSERT_LT(item.val, 1.0);
    sum += item.val;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(CaidaLike, FlowPopularityIsSkewed) {
  CaidaLikeGenerator gen(PacketMixConfig{.flows = 100'000, .zipf_skew = 1.0,
                                         .seed = 3});
  std::unordered_map<std::uint64_t, int> counts;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) counts[gen.next().tuple.flow_key()]++;
  // Zipf(1.0): the most popular flow should hold a few percent of packets,
  // and the number of distinct flows should be far below n.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, n / 200);
  EXPECT_LT(counts.size(), static_cast<std::size_t>(n));
  EXPECT_GT(counts.size(), 1'000u);
}

TEST(CaidaLike, TimestampsIncreaseAndIdsUnique) {
  CaidaLikeGenerator gen;
  std::uint64_t last_ts = 0;
  std::unordered_set<std::uint64_t> ids;
  for (int i = 0; i < 10'000; ++i) {
    const auto p = gen.next();
    EXPECT_GT(p.timestamp, last_ts);
    last_ts = p.timestamp;
    EXPECT_TRUE(ids.insert(p.packet_id).second);
    ASSERT_GE(p.length, 40u);
    ASSERT_LE(p.length, 1501u);
  }
}

TEST(DatacenterLike, BimodalSizes) {
  DatacenterLikeGenerator gen;
  int small = 0, large = 0;
  double bytes = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const auto p = gen.next();
    bytes += p.length;
    if (p.length < 200) ++small;
    if (p.length >= 1400) ++large;
  }
  EXPECT_NEAR(small / double(n), 0.55, 0.02);
  EXPECT_NEAR(large / double(n), 0.45, 0.02);
  EXPECT_NEAR(bytes / n, DatacenterLikeGenerator::mean_packet_bytes(), 30.0);
}

TEST(MinSize, AllMinimalFrames) {
  MinSizePacketGenerator gen(1000, 1);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(gen.next().length, 46u);
}

TEST(CacheTrace, MixesZipfAndScans) {
  CacheTraceGenerator gen(CacheTraceGenerator::Config{
      .working_set = 10'000, .zipf_skew = 0.9, .scan_probability = 0.005,
      .scan_len_min = 16, .scan_len_max = 64, .seed = 7});
  int in_working_set = 0, in_scan_space = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const auto b = gen.next();
    if (b <= 10'000) ++in_working_set;
    if (b >= 40'000) ++in_scan_space;
  }
  EXPECT_GT(in_working_set, n / 2);   // hot set dominates
  EXPECT_GT(in_scan_space, n / 100);  // scans present
  EXPECT_EQ(in_working_set + in_scan_space, n);
}

TEST(TraceIO, RoundTrip) {
  CaidaLikeGenerator gen;
  auto packets = take_packets(gen, 1'000);
  const auto path =
      std::filesystem::temp_directory_path() / "qmax_trace_test.bin";
  write_trace(path, packets);
  const auto loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(loaded[i].tuple, packets[i].tuple);
    EXPECT_EQ(loaded[i].length, packets[i].length);
    EXPECT_EQ(loaded[i].timestamp, packets[i].timestamp);
    EXPECT_EQ(loaded[i].packet_id, packets[i].packet_id);
  }
  std::filesystem::remove(path);
}

TEST(TraceIO, RejectsCorruptHeader) {
  const auto path =
      std::filesystem::temp_directory_path() / "qmax_trace_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a trace";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  EXPECT_THROW(read_trace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceIO, MissingFileThrows) {
  EXPECT_THROW(read_trace("/nonexistent/path/trace.bin"), std::runtime_error);
  EXPECT_THROW(read_csv_trace("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

TEST(TraceIO, CsvRoundTrip) {
  CaidaLikeGenerator gen({.flows = 5'000, .zipf_skew = 1.0, .seed = 13});
  auto packets = take_packets(gen, 500);
  const auto path =
      std::filesystem::temp_directory_path() / "qmax_trace_test.csv";
  write_csv_trace(path, packets);
  const auto loaded = read_csv_trace(path);
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(loaded[i].tuple, packets[i].tuple);
    EXPECT_EQ(loaded[i].length, packets[i].length);
    EXPECT_EQ(loaded[i].timestamp, packets[i].timestamp);
    EXPECT_EQ(loaded[i].packet_id, packets[i].packet_id);
  }
  std::filesystem::remove(path);
}

TEST(TraceIO, CsvRejectsMalformedRows) {
  const auto path =
      std::filesystem::temp_directory_path() / "qmax_trace_bad.csv";
  auto write_and_expect_throw = [&](const char* body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(body, f);
    std::fclose(f);
    EXPECT_THROW(read_csv_trace(path), std::runtime_error) << body;
  };
  write_and_expect_throw("");  // no header
  write_and_expect_throw("wrong,header\n1,2,3,4,5,6,7,8\n");
  write_and_expect_throw(
      "packet_id,timestamp_ns,src_ip,dst_ip,src_port,dst_port,proto,length\n"
      "1,2,3\n");  // truncated row
  write_and_expect_throw(
      "packet_id,timestamp_ns,src_ip,dst_ip,src_port,dst_port,proto,length\n"
      "1,2,3,4,99999,6,7,8\n");  // port out of range
  write_and_expect_throw(
      "packet_id,timestamp_ns,src_ip,dst_ip,src_port,dst_port,proto,length\n"
      "1,2,x,4,5,6,7,8\n");  // non-numeric
  std::filesystem::remove(path);
}

TEST(TraceIO, CsvSkipsCommentsAndBlankLines) {
  const auto path =
      std::filesystem::temp_directory_path() / "qmax_trace_comments.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "# generated by trace_tool\n"
        "packet_id,timestamp_ns,src_ip,dst_ip,src_port,dst_port,proto,length\n"
        "\n"
        "7,100,1,2,3,4,6,64\n",
        f);
    std::fclose(f);
  }
  const auto loaded = read_csv_trace(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].packet_id, 7u);
  EXPECT_EQ(loaded[0].length, 64u);
  std::filesystem::remove(path);
}

// ---- Flight recorder (telemetry/trace.hpp) ---------------------------

namespace tel = qmax::telemetry;

#if !QMAX_TRACE_ENABLED
// OFF (the default): the span type is empty and carries no state, so
// the instrumented hot paths compile the tracing away entirely.
static_assert(!tel::kTraceEnabled);
static_assert(std::is_empty_v<tel::Span>);
#else
static_assert(tel::kTraceEnabled);
#endif

// Stage names are export keys (trace_stages JSON, Chrome "cat" fields,
// bench_snapshot.py matching) — locked here, renames are breaking.
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

// Minimal JSON walker for the Chrome trace document shape: objects,
// arrays, strings, numbers, bools. Records object keys; malformed input
// fails the walk. (test_telemetry.cpp has an object-only cousin; the
// trace document needs arrays.)
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

bool has_key(const std::vector<std::string>& keys, std::string_view k) {
  for (const auto& x : keys) {
    if (x == k) return true;
  }
  return false;
}

// Both gate states: the export is a well-formed catapult document with
// the envelope keys, and says which mode produced it.
TEST(FlightRecorder, TraceJsonIsWellFormedEitherMode) {
  const std::string json = tel::trace_json();
  TraceJson p{json};
  EXPECT_TRUE(p.parse()) << json.substr(0, 200);
  EXPECT_TRUE(has_key(p.keys, "traceEvents"));
  EXPECT_TRUE(has_key(p.keys, "displayTimeUnit"));
  EXPECT_TRUE(has_key(p.keys, "otherData"));
  const std::string flag = std::string("\"trace_enabled\": ") +
                           (tel::kTraceEnabled ? "true" : "false");
  EXPECT_NE(json.find(flag), std::string::npos);
}

// Stage histograms fold into an ordinary Registry only when the gate is
// on; the binder is a silent no-op otherwise.
TEST(FlightRecorder, StageMetricsBindMatchesGate) {
  tel::Registry reg;
  std::vector<tel::Registration> regs;
  tel::bind_trace_stage_metrics(reg, regs);
  EXPECT_EQ(regs.size(), tel::kTraceEnabled ? tel::kStageCount : 0u);
  if (tel::kTraceEnabled) {
    const auto samples = reg.collect();
    ASSERT_EQ(samples.size(), tel::kStageCount);
    EXPECT_EQ(samples[0].name, "trace.stage.add");
  }
}

// The trace_stages JSON always carries every stage key (all-zero
// histograms when off) so downstream tooling needs no gate.
TEST(FlightRecorder, StageSnapshotsCoverAllStagesEitherMode) {
  const auto snaps = tel::trace_stage_snapshots();
  ASSERT_EQ(snaps.size(), tel::kStageCount);
  EXPECT_STREQ(snaps.front().first, "add");
  EXPECT_STREQ(snaps.back().first, "psi_cas");
}

#if QMAX_TRACE_ENABLED

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
    total_capacity += rec.capacity();
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

#endif  // QMAX_TRACE_ENABLED

}  // namespace
