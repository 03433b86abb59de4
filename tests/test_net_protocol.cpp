// Frame-fuzz differential for the service protocol (net/protocol.hpp).
//
// Three properties, exercised with seeded randomness so CI failures
// reproduce bit-for-bit:
//
//   1. Round trip — any frame, fed to the FrameAssembler in arbitrary
//      chunkings (byte-at-a-time through whole-buffer), comes back
//      field-identical.
//   2. Rejection — every single-bit mutation and every truncation of a
//      valid frame is rejected (kNeedMore or kBad, never a decoded
//      frame), with no UB for ASan/UBSan to find. CRC-64 detects all
//      single-bit errors, so "never kOk" is a hard guarantee here, not a
//      probabilistic one.
//   3. Hostile lengths — a declared payload_len beyond kMaxPayloadBytes
//      is rejected from the 28-byte header alone, before any buffering
//      or allocation happens.
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/codec.hpp"
#include "common/random.hpp"

namespace {

namespace net = qmax::net;
namespace codec = qmax::common::codec;
using net::DecodeStatus;
using net::Frame;
using net::FrameType;
using qmax::apps::NwhhEntry;
using qmax::apps::PacketSample;
using qmax::common::Xoshiro256;

Frame random_frame(Xoshiro256& rng) {
  Frame f;
  f.type = static_cast<FrameType>(1 + rng.bounded(5));
  f.agent_id = rng();
  f.epoch = rng();
  // Frame-layer payloads are opaque bytes; sizes cover empty, tiny, and
  // multi-chunk (> the transport's read granularity is unnecessary here —
  // the assembler is chunked independently below).
  const std::size_t len = rng.bounded(3) == 0 ? 0 : rng.bounded(2'000);
  f.payload.resize(len);
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

void expect_same(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.agent_id, b.agent_id);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(NetProtocol, SingleFrameRoundTrip) {
  Xoshiro256 rng(1);
  for (int iter = 0; iter < 200; ++iter) {
    const Frame f = random_frame(rng);
    const auto bytes = net::encode_frame(f);
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(net::decode_frame(bytes, out, consumed), DecodeStatus::kOk);
    EXPECT_EQ(consumed, bytes.size());
    expect_same(f, out);
  }
}

TEST(NetProtocol, AssemblerReassemblesArbitraryChunkings) {
  Xoshiro256 rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    // A burst of frames, concatenated, then fed in random-size chunks
    // (frequently 1 byte, sometimes spanning several frames).
    std::vector<Frame> sent;
    std::vector<std::uint8_t> stream;
    const std::size_t n = 1 + rng.bounded(20);
    for (std::size_t i = 0; i < n; ++i) {
      sent.push_back(random_frame(rng));
      const auto bytes = net::encode_frame(sent.back());
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    }

    net::FrameAssembler asmb;
    std::vector<Frame> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          1 + rng.bounded(rng.bounded(4) == 0 ? 3 : 700);
      const std::size_t take = std::min(chunk, stream.size() - off);
      asmb.feed(stream.data() + off, take);
      off += take;
      Frame f;
      while (asmb.next(f)) got.push_back(f);
    }
    ASSERT_FALSE(asmb.corrupt());
    EXPECT_EQ(asmb.buffered(), 0u);
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) expect_same(sent[i], got[i]);
  }
}

TEST(NetProtocol, EveryTruncationIsNeedMoreNeverOk) {
  Xoshiro256 rng(3);
  const Frame f = random_frame(rng);
  const auto bytes = net::encode_frame(f);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame out;
    std::size_t consumed = 0;
    const auto st = net::decode_frame(
        std::span<const std::uint8_t>(bytes.data(), cut), out, consumed);
    EXPECT_EQ(st, DecodeStatus::kNeedMore) << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(NetProtocol, EverySingleBitFlipIsRejected) {
  // CRC-64 catches all single-bit errors, and the eager header checks
  // catch the rest — so no mutated buffer may ever decode as a frame.
  // Shortened payloads keep the per-bit sweep over ALL positions cheap.
  Xoshiro256 rng(4);
  for (int iter = 0; iter < 8; ++iter) {
    Frame f = random_frame(rng);
    f.payload.resize(std::min<std::size_t>(f.payload.size(), 64));
    const auto bytes = net::encode_frame(f);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        auto evil = bytes;
        evil[pos] ^= static_cast<std::uint8_t>(1u << bit);
        Frame out;
        std::size_t consumed = 0;
        const auto st = net::decode_frame(evil, out, consumed);
        EXPECT_NE(st, DecodeStatus::kOk)
            << "flip survived at byte " << pos << " bit " << bit;
        EXPECT_EQ(consumed, 0u);
      }
    }
  }
}

TEST(NetProtocol, RandomMutationsAreRejected) {
  // Heavier mutations: multi-byte stomps and splices at random offsets.
  Xoshiro256 rng(5);
  for (int iter = 0; iter < 2'000; ++iter) {
    Frame f = random_frame(rng);
    auto bytes = net::encode_frame(f);
    const std::size_t stomps = 1 + rng.bounded(8);
    for (std::size_t s = 0; s < stomps; ++s) {
      bytes[rng.bounded(bytes.size())] = static_cast<std::uint8_t>(rng());
    }
    Frame out;
    std::size_t consumed = 0;
    const auto st = net::decode_frame(bytes, out, consumed);
    // A stomp may (rarely) write back the original byte values; re-check
    // against the pristine encoding before asserting rejection.
    if (bytes == net::encode_frame(f)) {
      EXPECT_EQ(st, DecodeStatus::kOk);
    } else {
      EXPECT_NE(st, DecodeStatus::kOk) << "iteration " << iter;
    }
  }
}

TEST(NetProtocol, HostilePayloadLengthRejectedBeforeBuffering) {
  // Craft a header that passes the magic/version/type checks but claims
  // a ~4 GB payload: must be kBad immediately from 28 bytes, so neither
  // decode_frame nor the assembler ever sizes a buffer for it.
  std::vector<std::uint8_t> hdr;
  codec::put_le(hdr, net::kFrameMagic);
  codec::put_le(hdr, net::kProtocolVersion);
  codec::put_le(hdr, static_cast<std::uint16_t>(FrameType::kReport));
  codec::put_le(hdr, std::uint64_t{7});               // agent id
  codec::put_le(hdr, std::uint64_t{1});               // epoch
  codec::put_le(hdr, std::uint32_t{0xFFFF'FFFFu});    // hostile length
  ASSERT_EQ(hdr.size(), net::kFrameHeaderBytes);

  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(net::decode_frame(hdr, out, consumed), DecodeStatus::kBad);

  net::FrameAssembler asmb;
  asmb.feed(hdr.data(), hdr.size());
  Frame f;
  EXPECT_FALSE(asmb.next(f));
  EXPECT_TRUE(asmb.corrupt());
}

TEST(NetProtocol, AssemblerLatchesCorruptionPermanently) {
  // One bad byte poisons the stream: even a subsequent pristine frame
  // must not be surfaced (a TCP stream has no resync point).
  net::FrameAssembler asmb;
  std::vector<std::uint8_t> garbage{0xDE, 0xAD, 0xBE, 0xEF,
                                    0x00, 0x11, 0x22, 0x33};
  garbage.resize(net::kFrameHeaderBytes, 0x55);
  asmb.feed(garbage.data(), garbage.size());
  Frame f;
  EXPECT_FALSE(asmb.next(f));
  EXPECT_TRUE(asmb.corrupt());

  const auto good = net::encode_frame(net::make_ack(1, 2));
  asmb.feed(good.data(), good.size());
  EXPECT_FALSE(asmb.next(f));
  EXPECT_TRUE(asmb.corrupt());
}

TEST(NetProtocol, AssemblerCompactionSurvivesLongStreams) {
  // Thousands of frames through one assembler: the consumed-prefix
  // compaction must keep reassembly correct (values checked) and the
  // buffer from growing without bound.
  Xoshiro256 rng(6);
  net::FrameAssembler asmb;
  std::uint64_t next_expected = 0;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const auto bytes = net::encode_frame(net::make_ack(i, i * 3));
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.bounded(40), bytes.size() - off);
      asmb.feed(bytes.data() + off, take);
      off += take;
      Frame f;
      while (asmb.next(f)) {
        EXPECT_EQ(f.agent_id, next_expected);
        EXPECT_EQ(f.epoch, next_expected * 3);
        ++next_expected;
      }
    }
  }
  EXPECT_EQ(next_expected, 5'000u);
  EXPECT_FALSE(asmb.corrupt());
  EXPECT_EQ(asmb.buffered(), 0u);
}

TEST(NetProtocol, TypedBodiesRoundTripAndRejectMalformed) {
  const auto hello = net::encode_hello({.k = 4096});
  EXPECT_EQ(net::decode_hello(hello).k, 4096u);
  const auto hb = net::encode_heartbeat({.observed = 123'456});
  EXPECT_EQ(net::decode_heartbeat(hb).observed, 123'456u);

  // Truncated and over-long bodies throw like the rest of the wire layer.
  EXPECT_THROW((void)net::decode_hello(std::span<const std::uint8_t>(
                   hello.data(), hello.size() - 1)),
               std::runtime_error);
  auto padded = hb;
  padded.push_back(0);
  EXPECT_THROW((void)net::decode_heartbeat(padded), std::runtime_error);
}

TEST(NetProtocol, ReportPayloadMatchesWireBodyDifferentially) {
  // The framed REPORT payload must be byte-identical to the nwhh_wire
  // report body — that equivalence is what lets the controller share one
  // decoder.
  Xoshiro256 rng(7);
  std::vector<NwhhEntry> report;
  for (int i = 0; i < 300; ++i) {
    report.push_back(
        NwhhEntry{PacketSample{rng(), rng.bounded(1'000)}, -rng.uniform()});
  }
  const auto payload = net::encode_report_payload(report);
  std::vector<std::uint8_t> body;
  qmax::apps::encode_report_body(report, body);
  EXPECT_EQ(payload, body);

  const auto decoded = net::decode_report_payload(payload);
  ASSERT_EQ(decoded.size(), report.size());
  for (std::size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(decoded[i].id.packet_id, report[i].id.packet_id);
    EXPECT_EQ(decoded[i].id.flow, report[i].id.flow);
    EXPECT_DOUBLE_EQ(decoded[i].val, report[i].val);
  }
}

}  // namespace
