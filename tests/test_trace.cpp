// Trace substrate tests: generators produce the documented statistical
// shapes; binary IO round-trips. (The flight recorder, telemetry/trace.hpp,
// is tested with the rest of the telemetry layer in test_telemetry.cpp.)
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

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

}  // namespace
