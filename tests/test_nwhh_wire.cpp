// NWHH report wire body: round trips through the framed REPORT payload,
// corruption handling, and controller-level equivalence of local vs
// serialized collection.
#include "apps/nwhh_wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "baselines/heap_qmax.hpp"
#include "common/codec.hpp"
#include "common/random.hpp"
#include "net/protocol.hpp"
#include "qmax/qmax.hpp"

namespace {

using namespace qmax::apps;
using qmax::QMax;
using qmax::common::Xoshiro256;
using qmax::net::decode_report_payload;
using qmax::net::encode_report_payload;
using Cursor = qmax::common::codec::Cursor<std::uint8_t>;

using R = QMax<PacketSample, double>;
using HeapR = qmax::baselines::HeapQMax<PacketSample, double>;

std::vector<NwhhEntry> sample_report(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<NwhhEntry> report;
  for (std::size_t i = 0; i < n; ++i) {
    report.push_back(NwhhEntry{PacketSample{rng(), rng.bounded(1'000)},
                               -rng.uniform()});
  }
  return report;
}

/// Serialized collection: the controller ingests a report that crossed
/// the wire as a REPORT payload.
void collect_serialized(NwhhController& controller,
                        std::span<const NwhhEntry> report) {
  controller.collect_entries(
      decode_report_payload(encode_report_payload(report)));
}

TEST(NwhhWire, RoundTrip) {
  const auto report = sample_report(257, 1);
  const auto bytes = encode_report_payload(report);
  EXPECT_EQ(bytes.size(), 8u + 257u * 24u);
  const auto decoded = decode_report_payload(bytes);
  ASSERT_EQ(decoded.size(), report.size());
  for (std::size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(decoded[i].id.packet_id, report[i].id.packet_id);
    EXPECT_EQ(decoded[i].id.flow, report[i].id.flow);
    EXPECT_DOUBLE_EQ(decoded[i].val, report[i].val);
  }
}

TEST(NwhhWire, EmptyReport) {
  const auto bytes = encode_report_payload({});
  EXPECT_EQ(decode_report_payload(bytes).size(), 0u);
}

TEST(NwhhWire, RejectsCorruption) {
  std::vector<std::uint8_t> bytes;
  encode_report_body(sample_report(10, 2), bytes);
  // Truncation.
  auto cut = bytes;
  cut.resize(cut.size() - 5);
  Cursor cut_cur(cut);
  EXPECT_THROW((void)decode_report_body(cut_cur), std::runtime_error);
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  Cursor padded_cur(padded);
  EXPECT_THROW((void)decode_report_body(padded_cur), std::runtime_error);
  // Too short for the record count at all.
  Cursor short_cur(std::span<const std::uint8_t>(bytes.data(), 7));
  EXPECT_THROW((void)decode_report_body(short_cur), std::runtime_error);
}

TEST(NwhhWire, HostileRecordCountCannotWrapTheSizeCheck) {
  // Regression: the old validator compared `bytes - off != count * 24`,
  // so count = 2^63 + 1 wrapped the multiplication to exactly 24 and a
  // single bogus record slipped past the check straight into
  // reserve(count) — escaping the wire layer's std::runtime_error
  // contract as length_error/bad_alloc. The count must now be bounded
  // against the remaining bytes BEFORE any allocation, with arithmetic
  // that cannot wrap.
  std::vector<std::uint8_t> evil;
  auto put64 = [&evil](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      evil.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put64((std::uint64_t{1} << 63) + 1);   // count * 24 wraps to 24
  for (int i = 0; i < 24; ++i) evil.push_back(0);  // one "record"
  Cursor wrapping(evil);
  EXPECT_THROW((void)decode_report_body(wrapping), std::runtime_error);

  // Off-by-one flavor: count claims one more record than is present.
  evil.clear();
  put64(2);
  for (int i = 0; i < 24; ++i) evil.push_back(7);
  Cursor short_by_one(evil);
  EXPECT_THROW((void)decode_report_body(short_by_one), std::runtime_error);
}

TEST(NwhhWire, BodyCodecRejectsTrailingBytes) {
  // The framed REPORT payload path decodes bodies directly, so the body
  // decoder itself rejects trailing garbage.
  const auto report = sample_report(5, 9);
  std::vector<std::uint8_t> body;
  encode_report_body(report, body);

  Cursor ok(body);
  EXPECT_EQ(decode_report_body(ok).size(), 5u);

  body.push_back(0xAA);
  Cursor padded(body);
  EXPECT_THROW(decode_report_body(padded), std::runtime_error);
}

TEST(NwhhWire, SerializedCollectionMatchesLocal) {
  // Two controllers, one fed locally and one over the wire, must agree.
  const std::size_t k = 128;
  Nmp<R> nmp1(k, R(k, 0.5)), nmp2(k, R(k, 0.5));
  Xoshiro256 rng(3);
  for (std::uint64_t pid = 0; pid < 20'000; ++pid) {
    const std::uint64_t flow = rng.bounded(50);
    nmp1.observe(pid, flow);
    if (pid % 2 == 0) nmp2.observe(pid, flow);
  }

  NwhhController local(k), remote(k);
  local.collect(nmp1);
  local.collect(nmp2);

  std::vector<NwhhEntry> r1, r2;
  nmp1.report_into(r1);
  nmp2.report_into(r2);
  collect_serialized(remote, r1);
  collect_serialized(remote, r2);

  ASSERT_EQ(local.sample().size(), remote.sample().size());
  for (std::size_t i = 0; i < local.sample().size(); ++i) {
    EXPECT_EQ(local.sample()[i].id.packet_id,
              remote.sample()[i].id.packet_id);
  }
  EXPECT_DOUBLE_EQ(local.total_packets(), remote.total_packets());
}

TEST(NwhhWire, HeapBackedReportsInteroperate) {
  // Wire format is backend-independent: a heap NMP's report merges with a
  // q-MAX NMP's at the same controller.
  const std::size_t k = 64;
  Nmp<R> fast(k, R(k, 0.5));
  Nmp<HeapR> slow(k, HeapR(k));
  Xoshiro256 rng(4);
  for (std::uint64_t pid = 0; pid < 10'000; ++pid) {
    const std::uint64_t flow = rng.bounded(20);
    if (pid % 2 == 0) {
      fast.observe(pid, flow);
    } else {
      slow.observe(pid, flow);
      fast.observe(pid, flow);  // overlap: dedup at the controller
    }
  }
  std::vector<NwhhEntry> rf, rs;
  fast.report_into(rf);
  slow.report_into(rs);
  NwhhController ctl(k);
  collect_serialized(ctl, rf);
  collect_serialized(ctl, rs);
  EXPECT_NEAR(ctl.total_packets(), 10'000.0, 10'000.0 * 0.3);
}

}  // namespace
