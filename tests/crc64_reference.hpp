// Reference CRC-64/XZ for the tests: the textbook bytewise loop over one
// 256-entry table, built here from the polynomial rather than taken from
// common/codec.hpp, so a wrong slicing table in the library cannot make
// the reference agree with it. Slow (one dependent lookup per byte) and
// kept that way on purpose.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace crcref {

[[nodiscard]] inline std::uint64_t crc64_bytewise(const void* data,
                                                  std::size_t len) {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::uint64_t i = 0; i < 256; ++i) {
      std::uint64_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xC96C5795D7870F42ull ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~0ull;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace crcref
