// Self-describing snapshot images: header + payload + checksum.
//
// An image is a byte string:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     8  magic "QMAXSNAP" (little-endian u64)
//        8     4  format version (u32) — kFormatVersion when written
//       12     4  variant tag (u32) — T::snapshot_tag(), one value per
//                 composition (window × maintenance × container), so an
//                 image can only restore into the variant that wrote it
//       16     8  payload size in bytes (u64)
//       24     8  CRC-64/XZ of the payload (u64)
//       32     …  payload: the Writer archive T::serialize_state produced
//
// Restore order is validate-then-apply: magic, version range, tag,
// declared size vs actual bytes, and checksum are all verified before a
// single payload byte is parsed; the Reader archive then re-verifies
// every config guard and bounds-checks every read. Any failure throws
// SnapshotError — the store's warm_restart treats that as "this epoch is
// damaged, fall back to an older one".
//
// Versioning: kFormatVersion is bumped whenever a composition's field
// list changes; serialize_state receives the image's version and carries
// a migration shim per change:
//   v1 → v2: ReservoirCore appended a 25-byte adaptive screen-governor
//            block after the stream position.
//   v2 → v3: the governor was retired and its block left the image;
//            loading a v2 image reads and discards it (writing one emits
//            reset defaults), so every v1, v2 and v3 image restores.
// snapshot() can write any supported version, which is how the
// cross-version tests mint old images without archived fixtures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "durability/format.hpp"
#include "telemetry/span.hpp"

namespace qmax::durability {

/// "QMAXSNAP" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x50414E5358414D51ull;
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinSupportedVersion = 1;
inline constexpr std::size_t kHeaderSize = 32;

struct ImageInfo {
  std::uint32_t version = 0;
  std::uint32_t tag = 0;
  std::size_t payload_size = 0;
};

namespace detail {

// At-offset views over the shared little-endian codec (common/codec.hpp):
// the header is fixed-layout, so fields are written into a pre-sized
// buffer rather than appended.
template <typename T>
inline void put_le(std::vector<std::byte>& buf, std::size_t at, T v) {
  common::codec::store_le(buf.data() + at, v);
}

template <typename T>
[[nodiscard]] inline T get_le(std::span<const std::byte> buf,
                              std::size_t at) {
  return common::codec::load_le<T>(buf.data() + at);
}

}  // namespace detail

/// Serialize `obj` into a complete image. `version` defaults to the
/// current format; passing an older supported version writes an image a
/// matching older reader would accept (used by the migration tests).
template <typename T>
[[nodiscard]] std::vector<std::byte> snapshot(
    const T& obj, std::uint32_t version = kFormatVersion) {
  [[maybe_unused]] telemetry::Span trace_span(
      telemetry::Stage::kSnapshotWrite);
  if (version < kMinSupportedVersion || version > kFormatVersion) {
    throw SnapshotError("snapshot: unsupported format version requested");
  }
  // serialize_state is a read-only traversal on the save path; the
  // non-const signature exists because the identical field list mutates
  // on load. The count pass sizes the image, so it is allocated once; the
  // writing pass appends the payload behind the header and checksums it
  // as it goes, so the payload is not read a second time.
  T& src = const_cast<T&>(obj);
  Writer counter(Writer::kCountOnly);
  src.serialize_state(counter, version);
  std::vector<std::byte> image;
  image.reserve(kHeaderSize + counter.size());
  image.resize(kHeaderSize);
  Writer w(image);
  src.serialize_state(w, version);

  const std::size_t payload_size = w.size();
  detail::put_le(image, 0, kMagic);
  detail::put_le(image, 8, version);
  detail::put_le(image, 12, T::snapshot_tag());
  detail::put_le(image, 16, static_cast<std::uint64_t>(payload_size));
  detail::put_le(image, 24, w.crc());
  return image;
}

/// Validate an image's framing (magic, version, tag, size, checksum)
/// without touching the payload contents. Throws SnapshotError on any
/// defect; returns the parsed header on success.
[[nodiscard]] inline ImageInfo validate_image(std::span<const std::byte> image,
                                              std::uint32_t expected_tag) {
  if (image.size() < kHeaderSize) {
    throw SnapshotError("snapshot image shorter than header");
  }
  if (detail::get_le<std::uint64_t>(image, 0) != kMagic) {
    throw SnapshotError("bad snapshot magic");
  }
  ImageInfo info;
  info.version = detail::get_le<std::uint32_t>(image, 8);
  if (info.version < kMinSupportedVersion || info.version > kFormatVersion) {
    throw SnapshotError("unsupported snapshot format version");
  }
  info.tag = detail::get_le<std::uint32_t>(image, 12);
  if (info.tag != expected_tag) {
    throw SnapshotError("snapshot variant tag mismatch");
  }
  const auto declared = detail::get_le<std::uint64_t>(image, 16);
  if (declared != image.size() - kHeaderSize) {
    throw SnapshotError("snapshot payload size mismatch (torn write?)");
  }
  info.payload_size = static_cast<std::size_t>(declared);
  const auto stored_crc = detail::get_le<std::uint64_t>(image, 24);
  if (stored_crc != crc64(image.data() + kHeaderSize, info.payload_size)) {
    throw SnapshotError("snapshot checksum mismatch");
  }
  return info;
}

/// Validate `image` and apply it to `obj`, which must be configured
/// identically to the writer (same q, γ, window geometry, …) — the
/// archive's config guards enforce that field by field. On any throw,
/// `obj` may be partially overwritten: callers must reset() or discard it
/// (SnapshotStore::warm_restart does).
template <typename T>
void restore(T& obj, std::span<const std::byte> image) {
  [[maybe_unused]] telemetry::Span trace_span(telemetry::Stage::kRestore);
  const ImageInfo info = validate_image(image, T::snapshot_tag());
  Reader r(image.subspan(kHeaderSize, info.payload_size));
  obj.serialize_state(r, info.version);
  r.expect_end();
}

}  // namespace qmax::durability
