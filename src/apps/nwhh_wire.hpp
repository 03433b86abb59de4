// Wire body for NMP → controller reports.
//
// In the paper's deployment the NMPs and the controller are different
// machines: reports cross the network. This header gives the sample
// report a stable little-endian body (count, then fixed-width records);
// the framed service protocol (net/protocol.hpp) carries it as the
// REPORT payload, whose frame header supplies the magic, version and
// checksum. A report's wire size — 24 bytes per sampled packet — is the
// per-epoch control-plane cost the paper's network-wide schemes are
// designed to keep at O(k).
//
// Byte-level encoding rides the shared codec (common/codec.hpp) — the
// same little-endian primitives the durability archives use.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/nwhh.hpp"
#include "common/codec.hpp"

namespace qmax::apps {

/// Bytes per serialized NwhhEntry record (packet id, flow, value).
inline constexpr std::size_t kReportRecordBytes = 24;

/// Append a report's body (count + fixed-width records, no magic) to a
/// byte buffer. This is the payload embedded verbatim in framed REPORT
/// messages (net/protocol.hpp).
inline void encode_report_body(std::span<const NwhhEntry> report,
                               std::vector<std::uint8_t>& out) {
  namespace codec = common::codec;
  out.reserve(out.size() + 8 + report.size() * kReportRecordBytes);
  codec::put_le(out, static_cast<std::uint64_t>(report.size()));
  for (const NwhhEntry& e : report) {
    codec::put_le(out, e.id.packet_id);
    codec::put_le(out, e.id.flow);
    codec::put_f64(out, e.val);
  }
}

/// Parse a report body from a cursor. Throws std::runtime_error on a
/// count that cannot fit the remaining bytes (checked *before* any
/// allocation: a hostile 2^63-scale count must not reach reserve), on
/// truncation, and — when `expect_end` — on trailing garbage after the
/// declared records.
[[nodiscard]] inline std::vector<NwhhEntry> decode_report_body(
    common::codec::Cursor<std::uint8_t>& cur, bool expect_end = true) {
  std::uint64_t count = 0;
  if (!cur.take_le(count)) {
    throw std::runtime_error("nwhh report: truncated");
  }
  // Bound the declared count against the bytes actually present before
  // sizing anything. The comparison divides instead of multiplying so a
  // near-2^64 count cannot wrap the arithmetic and sneak past.
  if (count > cur.remaining() / kReportRecordBytes) {
    throw std::runtime_error("nwhh report: record count exceeds payload");
  }
  std::vector<NwhhEntry> report;
  report.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    NwhhEntry e;
    if (!cur.take_le(e.id.packet_id) || !cur.take_le(e.id.flow) ||
        !cur.take_f64(e.val)) {
      throw std::runtime_error("nwhh report: truncated");
    }
    report.push_back(e);
  }
  if (expect_end && !cur.at_end()) {
    throw std::runtime_error("nwhh report: trailing bytes after records");
  }
  return report;
}

}  // namespace qmax::apps
