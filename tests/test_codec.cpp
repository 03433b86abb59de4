// CRC-64/XZ (common/codec.hpp), the checksum of every snapshot image and
// network frame. Pinned two ways: to the published check value of the
// CRC-64/XZ parameter set, and bit for bit to a bytewise reference
// (crc64_reference.hpp) at every length and start alignment the 16-byte
// slicing loop can split differently, plus one buffer the size of the
// reservoir_polled benchmark's snapshot image.
#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "crc64_reference.hpp"

namespace {

using qmax::common::codec::crc64;

[[nodiscard]] std::vector<unsigned char> random_bytes(std::size_t n,
                                                      std::uint64_t seed) {
  qmax::common::Xoshiro256 rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng());
  return v;
}

TEST(Crc64, CheckValue) {
  EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(crcref::crc64_bytewise("123456789", 9), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(crc64(nullptr, 0), 0u);
}

TEST(Crc64, MatchesBytewiseAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 512;
  constexpr std::size_t kOffsets = 16;
  const auto buf = random_bytes(kMaxLen + kOffsets, 7);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(crc64(buf.data() + off, len),
                crcref::crc64_bytewise(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc64, MatchesBytewiseOnSnapshotSizedBuffer) {
  // The byte size of a QMax q = 10^6, gamma = 0.05 snapshot image.
  const auto buf = random_bytes(16'800'246, 11);
  EXPECT_EQ(crc64(buf.data(), buf.size()),
            crcref::crc64_bytewise(buf.data(), buf.size()));
}

}  // namespace
