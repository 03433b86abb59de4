// CRC-64/XZ (common/codec.hpp), the checksum of every snapshot image and
// network frame. Pinned two ways: to the published check value of the
// CRC-64/XZ parameter set, and bit for bit to a bytewise reference
// (crc64_reference.hpp) at every length and start alignment the 16- and
// 64-byte steps can split differently, plus one buffer the size of the
// reservoir_polled benchmark's snapshot image. The dispatched crc64, the
// table loop and the carry-less-multiply loop are each checked, so both
// loops keep bulk coverage whichever one this CPU dispatches to; the
// carry-less-multiply cases skip on CPUs without PCLMULQDQ. The streaming
// form must match the one-shot value however the input is cut.
#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "crc64_reference.hpp"

namespace {

namespace codec = qmax::common::codec;
using codec::crc64;
using codec::crc64_extend;

/// A one-shot CRC-64 loop under test.
using Loop = std::uint64_t (*)(const void*, std::size_t);

[[nodiscard]] std::uint64_t table_loop(const void* p, std::size_t n) {
  return ~codec::detail::crc64_table_extend(~0ull, p, n);
}

/// The carry-less-multiply loop, or null where it is not compiled in or
/// this CPU lacks PCLMULQDQ.
[[nodiscard]] Loop clmul_loop() {
#ifdef QMAX_CRC64_CLMUL
  if (codec::detail::cpu_has_clmul) {
    return [](const void* p, std::size_t n) {
      return ~codec::detail::crc64_clmul_extend(~0ull, p, n);
    };
  }
#endif
  return nullptr;
}

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

void expect_matches_at_every_length_and_offset(Loop loop) {
  constexpr std::size_t kMaxLen = 512;
  constexpr std::size_t kOffsets = 16;
  const auto buf = random_bytes(kMaxLen + kOffsets, 7);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(loop(buf.data() + off, len),
                crcref::crc64_bytewise(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
}

void expect_matches_on_snapshot_sized_buffer(Loop loop) {
  // The byte size of a QMax q = 10^6, gamma = 0.05 snapshot image.
  const auto buf = random_bytes(16'800'246, 11);
  EXPECT_EQ(loop(buf.data(), buf.size()),
            crcref::crc64_bytewise(buf.data(), buf.size()));
}

TEST(Crc64, MatchesBytewiseAtEveryLengthAndOffset) {
  expect_matches_at_every_length_and_offset(crc64);
}

TEST(Crc64, MatchesBytewiseOnSnapshotSizedBuffer) {
  expect_matches_on_snapshot_sized_buffer(crc64);
}

TEST(Crc64, TableLoopMatchesBytewiseAtEveryLengthAndOffset) {
  expect_matches_at_every_length_and_offset(table_loop);
}

TEST(Crc64, TableLoopMatchesBytewiseOnSnapshotSizedBuffer) {
  expect_matches_on_snapshot_sized_buffer(table_loop);
}

TEST(Crc64, ClmulLoopMatchesBytewiseAtEveryLengthAndOffset) {
  const Loop loop = clmul_loop();
  if (loop == nullptr) GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  expect_matches_at_every_length_and_offset(loop);
}

TEST(Crc64, ClmulLoopMatchesBytewiseOnSnapshotSizedBuffer) {
  const Loop loop = clmul_loop();
  if (loop == nullptr) GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  expect_matches_on_snapshot_sized_buffer(loop);
}

TEST(Crc64, ExtendOverAnySplitMatchesOneShot) {
  const auto buf = random_bytes(5'000, 3);
  qmax::common::Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng() % (buf.size() + 1);
    // Fixed cuts give empty parts (0, 0 and the repeated 100) and cuts
    // inside and at the edges of 64-byte blocks; random cuts add more.
    std::vector<std::size_t> cuts = {0, 0, 1, 63, 64, 65, 100, 100, len};
    for (std::uint64_t k = rng() % 8; k > 0; --k) {
      cuts.push_back(rng() % (len + 1));
    }
    for (auto& c : cuts) c = std::min(c, len);
    std::sort(cuts.begin(), cuts.end());
    std::uint64_t reg = ~0ull;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      reg = crc64_extend(reg, buf.data() + cuts[i], cuts[i + 1] - cuts[i]);
    }
    ASSERT_EQ(~reg, crc64(buf.data(), len)) << "trial " << trial;
    ASSERT_EQ(~reg, crcref::crc64_bytewise(buf.data(), len))
        << "trial " << trial;
  }
}

}  // namespace
