// Binary archive primitives for the snapshot subsystem.
//
// One `serialize_state(Archive&, version)` member per composition serves
// both directions: `Writer` appends each field to a byte buffer, `Reader`
// consumes the same fields in the same order from a bounds-checked span.
// The two classes expose identical method names taking references, so the
// field list is written exactly once and cannot drift between save and
// load. `Archive::kLoading` lets a composition run load-only fixups
// (rebinding raw pointers, re-deriving scratch) under `if constexpr`.
//
// Config fields — anything the constructor fixed (q, γ, capacities,
// window sizes) — are recorded with check_u64/check_f64: the Writer emits
// the live value, the Reader compares it against the restoring object's
// own configuration and rejects the snapshot on mismatch. Restoring is
// therefore "rehydrate an identically-configured object", never
// "reconstruct an object from scratch" — which keeps every composition's
// invariants (slot-array capacity, shard count, level fan-out) trivially
// intact across the boundary.
//
// All integers are little-endian fixed-width; doubles travel as their
// IEEE-754 bit pattern (bit_cast), so NaN payloads and signed zeros
// round-trip exactly — the restore-equals-fresh tests demand bit
// identity, not value equality.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/codec.hpp"

namespace qmax::durability {

/// Thrown on any malformed, truncated, corrupt, or mismatched snapshot.
/// The restore driver treats it as "this epoch is unusable, try an older
/// one" — it must never escape as a crash.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// CRC-64/XZ, shared with the wire formats. One polynomial for snapshots
/// and network frames alike (common/codec.hpp); re-exported here so
/// durability call sites keep their historical spelling.
using common::codec::crc64;

/// Serializing archive: appends fields to a caller's byte vector, behind
/// whatever it already holds. The count-only form (`Writer(kCountOnly)`)
/// runs the same methods over the same traversal and stores nothing;
/// size() then says how many bytes a writing pass appends. snapshot()
/// sizes its one image allocation that way, so the size comes from the
/// field list itself rather than from a formula kept beside it.
class Writer {
 public:
  static constexpr bool kLoading = false;
  struct CountOnly {};
  static constexpr CountOnly kCountOnly{};

  explicit Writer(std::vector<std::byte>& out) noexcept : out_(&out) {}
  explicit Writer(CountOnly /*tag*/) noexcept {}

  void u32(const std::uint32_t& v) { put(v); }
  void u64(const std::uint64_t& v) { put(v); }
  void f64(const double& v) { put(std::bit_cast<std::uint64_t>(v)); }
  void b(const bool& v) { put(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void sz(const std::size_t& v) { put(static_cast<std::uint64_t>(v)); }

  /// Trivially-copyable blob (slot structs, PODs with doubles inside).
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof v);
  }

  /// Length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) append(v.data(), v.size() * sizeof(T));
  }

  /// Config guard: records the value so the Reader can verify the
  /// restoring object is configured identically.
  void check_u64(std::uint64_t v, const char* /*what*/) { put(v); }
  void check_f64(double v, const char* /*what*/) {
    put(std::bit_cast<std::uint64_t>(v));
  }

  [[noreturn]] void fail(const char* what) const {
    throw SnapshotError(std::string("snapshot write: ") + what);
  }

  /// Bytes appended so far (count-only: bytes a writing pass appends).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  template <typename T>
  void put(T v) {
    static_assert(std::is_integral_v<T> || std::is_same_v<T, std::uint8_t>);
    append(&v, sizeof v);
  }
  void append(const void* p, std::size_t n) {
    size_ += n;
    if (out_ != nullptr) common::codec::append(*out_, p, n);
  }
  std::vector<std::byte>* out_ = nullptr;  // null in count-only mode
  std::size_t size_ = 0;
};

/// Deserializing archive: consumes fields from a bounds-checked cursor
/// (common/codec.hpp). Every under-run, over-run, or config mismatch
/// throws SnapshotError.
class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(std::span<const std::byte> payload) : cur_(payload) {}

  void u32(std::uint32_t& v) { v = get<std::uint32_t>(); }
  void u64(std::uint64_t& v) { v = get<std::uint64_t>(); }
  void f64(double& v) { v = std::bit_cast<double>(get<std::uint64_t>()); }
  void b(bool& v) { v = get<std::uint8_t>() != 0; }
  void sz(std::size_t& v) {
    v = static_cast<std::size_t>(get<std::uint64_t>());
  }

  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    copy_out(&v, sizeof v);
  }

  template <typename T>
  void vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = get<std::uint64_t>();
    if (n > remaining() / sizeof(T)) fail("vector length exceeds payload");
    v.resize(static_cast<std::size_t>(n));
    if (n) copy_out(v.data(), static_cast<std::size_t>(n) * sizeof(T));
  }

  /// Config guard: the snapshot's recorded value must equal the restoring
  /// object's live configuration (doubles compared by bit pattern).
  void check_u64(std::uint64_t v, const char* what) {
    if (get<std::uint64_t>() != v) {
      fail((std::string("config mismatch: ") + what).c_str());
    }
  }
  void check_f64(double v, const char* what) {
    if (get<std::uint64_t>() != std::bit_cast<std::uint64_t>(v)) {
      fail((std::string("config mismatch: ") + what).c_str());
    }
  }

  [[noreturn]] void fail(const char* what) const {
    throw SnapshotError(std::string("snapshot read: ") + what);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return cur_.remaining();
  }

  /// Restores must consume the payload exactly: trailing bytes mean the
  /// field lists disagree, which is as fatal as a short read.
  void expect_end() const {
    if (remaining() != 0) fail("trailing bytes after payload");
  }

 private:
  template <typename T>
  [[nodiscard]] T get() {
    T v;
    copy_out(&v, sizeof v);
    return v;
  }
  void copy_out(void* p, std::size_t n) {
    if (!cur_.take(p, n)) fail("truncated payload");
  }
  common::codec::Cursor<std::byte> cur_;
};

}  // namespace qmax::durability
