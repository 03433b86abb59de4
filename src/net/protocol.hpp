// Framed message protocol for the distributed measurement service.
//
// Layer 1 of the networked NWHH path (see DESIGN.md §9). A frame is the
// unit the transport ships; everything above the byte stream is one of
// five frame types:
//
//   HELLO      agent → controller   opens a session: declares the agent's
//                                   sample size k (must match the
//                                   controller's) and protocol version.
//   REPORT     agent → controller   one epoch's sample delta — the
//                                   nwhh_wire report body (count +
//                                   24-byte records). Idempotent at the
//                                   controller (dedup by packet id), so a
//                                   reconnecting agent may replay freely.
//   ACK        controller → agent   confirms the epoch in the header has
//                                   been merged; the agent may drop its
//                                   retransmit obligation for it.
//   HEARTBEAT  agent → controller   liveness + the agent's observed-packet
//                                   count; absence past the controller's
//                                   timeout marks the agent a straggler.
//   GOODBYE    agent → controller   orderly end of stream.
//
// Frame layout (little-endian throughout, via common/codec.hpp):
//
//   offset  size  field
//        0     4  magic            "QNWP"
//        4     2  protocol version
//        6     2  frame type
//        8     8  agent id
//       16     8  epoch
//       24     4  payload length
//       28     n  payload
//     28+n     8  CRC-64/XZ over bytes [0, 28+n)   (same polynomial as
//                                                   the snapshot format)
//
// decode_frame() is non-throwing and incremental-friendly: it reports
// kNeedMore for a prefix of a valid frame, kBad for anything provably
// corrupt (wrong magic/version, hostile length, CRC mismatch), and never
// reads past the declared bounds — FrameAssembler builds stream
// reassembly directly on top of it. Payload *body* decoders throw
// std::runtime_error like the rest of the wire layer; the session layer
// catches and counts them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/nwhh_wire.hpp"
#include "common/codec.hpp"
#include "telemetry/span.hpp"

namespace qmax::net {

inline constexpr std::uint32_t kFrameMagic = 0x50574E51;  // "QNWP"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 28;
inline constexpr std::size_t kFrameTrailerBytes = 8;  // CRC-64

/// Upper bound on a frame payload. Generous for any plausible report
/// (k = 10^6 records is 24 MB) while still rejecting hostile 2^32-scale
/// lengths before any allocation happens.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint16_t {
  kHello = 1,
  kReport = 2,
  kAck = 3,
  kHeartbeat = 4,
  kGoodbye = 5,
};

[[nodiscard]] constexpr const char* frame_type_name(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kReport: return "REPORT";
    case FrameType::kAck: return "ACK";
    case FrameType::kHeartbeat: return "HEARTBEAT";
    case FrameType::kGoodbye: return "GOODBYE";
  }
  return "?";
}

[[nodiscard]] constexpr bool valid_frame_type(std::uint16_t raw) noexcept {
  return raw >= 1 && raw <= 5;
}

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint64_t agent_id = 0;
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> payload;
};

/// Serialize a frame: header + payload + CRC.
[[nodiscard]] inline std::vector<std::uint8_t> encode_frame(const Frame& f) {
  namespace codec = common::codec;
  [[maybe_unused]] telemetry::Span sp(telemetry::Stage::kNetFrame);
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + f.payload.size() + kFrameTrailerBytes);
  codec::put_le(out, kFrameMagic);
  codec::put_le(out, kProtocolVersion);
  codec::put_le(out, static_cast<std::uint16_t>(f.type));
  codec::put_le(out, f.agent_id);
  codec::put_le(out, f.epoch);
  codec::put_le(out, static_cast<std::uint32_t>(f.payload.size()));
  codec::append(out, f.payload.data(), f.payload.size());
  codec::put_le(out, codec::crc64(out.data(), out.size()));
  return out;
}

enum class DecodeStatus {
  kOk,        // a complete, checksum-valid frame was consumed
  kNeedMore,  // the bytes so far are a prefix of a possibly-valid frame
  kBad,       // provably corrupt; the stream is unrecoverable
};

/// Attempt to decode one frame from the front of `bytes`. On kOk, `out`
/// holds the frame and `consumed` the bytes it occupied; on kNeedMore /
/// kBad both are untouched apart from `consumed = 0`.
[[nodiscard]] inline DecodeStatus decode_frame(
    std::span<const std::uint8_t> bytes, Frame& out, std::size_t& consumed) {
  namespace codec = common::codec;
  consumed = 0;
  if (bytes.size() < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  [[maybe_unused]] telemetry::Span sp(telemetry::Stage::kNetFrame);
  // Header fields are validated eagerly so garbage is rejected from the
  // first bytes, not after buffering a bogus "payload".
  if (codec::load_le<std::uint32_t>(bytes.data()) != kFrameMagic) {
    return DecodeStatus::kBad;
  }
  if (codec::load_le<std::uint16_t>(bytes.data() + 4) != kProtocolVersion) {
    return DecodeStatus::kBad;
  }
  const auto raw_type = codec::load_le<std::uint16_t>(bytes.data() + 6);
  if (!valid_frame_type(raw_type)) return DecodeStatus::kBad;
  const auto payload_len = codec::load_le<std::uint32_t>(bytes.data() + 24);
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kBad;
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (bytes.size() < total) return DecodeStatus::kNeedMore;
  const auto stored_crc =
      codec::load_le<std::uint64_t>(bytes.data() + total - kFrameTrailerBytes);
  if (stored_crc !=
      codec::crc64(bytes.data(), total - kFrameTrailerBytes)) {
    return DecodeStatus::kBad;
  }
  out.type = static_cast<FrameType>(raw_type);
  out.agent_id = codec::load_le<std::uint64_t>(bytes.data() + 8);
  out.epoch = codec::load_le<std::uint64_t>(bytes.data() + 16);
  out.payload.assign(bytes.data() + kFrameHeaderBytes,
                     bytes.data() + kFrameHeaderBytes + payload_len);
  consumed = total;
  return DecodeStatus::kOk;
}

/// Incremental stream reassembler: feed() arbitrary byte chunks, next()
/// complete frames. Once any byte is provably corrupt the assembler
/// latches `corrupt()` — a TCP stream has no resync point, so the only
/// safe reaction is dropping the connection.
class FrameAssembler {
 public:
  void feed(const std::uint8_t* p, std::size_t n) {
    if (corrupt_ || n == 0) return;
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Extract the next complete frame, if one is buffered.
  [[nodiscard]] bool next(Frame& out) {
    if (corrupt_) return false;
    std::size_t consumed = 0;
    switch (decode_frame(std::span<const std::uint8_t>(buf_).subspan(pos_),
                         out, consumed)) {
      case DecodeStatus::kOk:
        pos_ += consumed;
        compact();
        return true;
      case DecodeStatus::kNeedMore:
        compact();
        return false;
      case DecodeStatus::kBad:
        corrupt_ = true;
        return false;
    }
    return false;
  }

  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  void compact() {
    // Reclaim consumed prefix once it dominates the buffer, keeping
    // steady-state reassembly O(bytes) without per-frame erases.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

// ---- Typed payload bodies -------------------------------------------------

/// HELLO body: the agent's configured sample size (controller rejects a
/// mismatched k — merged guarantees assume one k network-wide).
struct HelloBody {
  std::uint64_t k = 0;
};

[[nodiscard]] inline std::vector<std::uint8_t> encode_hello(
    const HelloBody& b) {
  std::vector<std::uint8_t> out;
  common::codec::put_le(out, b.k);
  return out;
}

[[nodiscard]] inline HelloBody decode_hello(
    std::span<const std::uint8_t> payload) {
  common::codec::Cursor<std::uint8_t> cur(payload);
  HelloBody b;
  if (!cur.take_le(b.k) || !cur.at_end()) {
    throw std::runtime_error("hello body: malformed");
  }
  return b;
}

/// HEARTBEAT body: packets observed so far (controller-side liveness
/// telemetry; also how stragglers show up as *silent*, not just absent).
struct HeartbeatBody {
  std::uint64_t observed = 0;
};

[[nodiscard]] inline std::vector<std::uint8_t> encode_heartbeat(
    const HeartbeatBody& b) {
  std::vector<std::uint8_t> out;
  common::codec::put_le(out, b.observed);
  return out;
}

[[nodiscard]] inline HeartbeatBody decode_heartbeat(
    std::span<const std::uint8_t> payload) {
  common::codec::Cursor<std::uint8_t> cur(payload);
  HeartbeatBody b;
  if (!cur.take_le(b.observed) || !cur.at_end()) {
    throw std::runtime_error("heartbeat body: malformed");
  }
  return b;
}

/// REPORT body: the nwhh_wire report body (count + records).
[[nodiscard]] inline std::vector<std::uint8_t> encode_report_payload(
    std::span<const apps::NwhhEntry> report) {
  std::vector<std::uint8_t> out;
  apps::encode_report_body(report, out);
  return out;
}

[[nodiscard]] inline std::vector<apps::NwhhEntry> decode_report_payload(
    std::span<const std::uint8_t> payload) {
  common::codec::Cursor<std::uint8_t> cur(payload);
  return apps::decode_report_body(cur);
}

// ---- Convenience frame constructors --------------------------------------

[[nodiscard]] inline Frame make_hello(std::uint64_t agent_id,
                                      std::uint64_t k) {
  return Frame{FrameType::kHello, agent_id, 0, encode_hello({k})};
}

[[nodiscard]] inline Frame make_report(std::uint64_t agent_id,
                                       std::uint64_t epoch,
                                       std::span<const apps::NwhhEntry> rep) {
  return Frame{FrameType::kReport, agent_id, epoch,
               encode_report_payload(rep)};
}

[[nodiscard]] inline Frame make_ack(std::uint64_t agent_id,
                                    std::uint64_t epoch) {
  return Frame{FrameType::kAck, agent_id, epoch, {}};
}

[[nodiscard]] inline Frame make_heartbeat(std::uint64_t agent_id,
                                          std::uint64_t epoch,
                                          std::uint64_t observed) {
  return Frame{FrameType::kHeartbeat, agent_id, epoch,
               encode_heartbeat({observed})};
}

[[nodiscard]] inline Frame make_goodbye(std::uint64_t agent_id,
                                        std::uint64_t epoch) {
  return Frame{FrameType::kGoodbye, agent_id, epoch, {}};
}

}  // namespace qmax::net
