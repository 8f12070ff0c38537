// CRC32C (Castagnoli) correctness: known vectors and the streaming
// accumulator that the per-group footer checksums rely on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "szp/util/crc32c.hpp"
#include "szp/util/rng.hpp"

namespace {

using szp::byte_t;

std::vector<byte_t> bytes_of(const std::string& s) {
  return std::vector<byte_t>(s.begin(), s.end());
}

TEST(Crc32c, KnownVectors) {
  // iSCSI / ext4 reference value (RFC 3720 appendix B.4).
  EXPECT_EQ(szp::crc32c(bytes_of("123456789")), 0xE3069283u);
  // CRC of the empty message is the init XOR final-xor, i.e. zero.
  EXPECT_EQ(szp::crc32c(std::span<const byte_t>{}), 0x00000000u);
  // 32 zero bytes (RFC 3720 appendix B.4 test pattern).
  EXPECT_EQ(szp::crc32c(std::vector<byte_t>(32, 0)), 0x8A9136AAu);
  // 32 0xFF bytes.
  EXPECT_EQ(szp::crc32c(std::vector<byte_t>(32, 0xFF)), 0x62A8AB43u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  szp::Rng rng(0x5EED5EEDULL);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.next_below(4096);
    std::vector<byte_t> data(n);
    for (auto& b : data) b = static_cast<byte_t>(rng.next_u64());
    const std::uint32_t expect = szp::crc32c(data);

    szp::Crc32c acc;
    size_t pos = 0;
    while (pos < n) {
      const size_t chunk = 1 + rng.next_below(n - pos);
      acc.update(std::span<const byte_t>(data).subspan(pos, chunk));
      pos += chunk;
    }
    ASSERT_EQ(acc.value(), expect) << "trial " << trial << " n=" << n;
  }
}

TEST(Crc32c, ValueIsNonDestructiveAndResetWorks) {
  const auto data = bytes_of("123456789");
  szp::Crc32c acc;
  acc.update(std::span<const byte_t>(data).first(4));
  (void)acc.value();  // peeking must not disturb the accumulator
  acc.update(std::span<const byte_t>(data).subspan(4));
  EXPECT_EQ(acc.value(), 0xE3069283u);
  acc.reset();
  acc.update(data);
  EXPECT_EQ(acc.value(), 0xE3069283u);
}

TEST(Crc32c, EveryBitFlipChangesTheChecksum) {
  auto data = bytes_of("cuSZp stream integrity");
  const std::uint32_t base = szp::crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<byte_t>(1u << bit);
      EXPECT_NE(szp::crc32c(data), base) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<byte_t>(1u << bit);
    }
  }
}

TEST(Crc32c, DispatchedPathMatchesPortableAtEveryLengthAndOffset) {
  // On SSE4.2 machines crc32c() runs the crc32 instruction; it must agree
  // with the table code at every alignment and every 8-byte tail length.
  szp::Rng rng(0xC0FFEEULL);
  std::vector<byte_t> data(1024 + 8);
  for (auto& b : data) b = static_cast<byte_t>(rng.next_u64());
  const std::span<const byte_t> all(data);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 1024; ++len) {
      const auto s = all.subspan(off, len);
      ASSERT_EQ(szp::crc32c(s), szp::detail::crc32c_portable(s))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32c, StreamingMatchesPortableAtEverySplitPoint) {
  szp::Rng rng(0xFEEDULL);
  std::vector<byte_t> data(1024);
  for (auto& b : data) b = static_cast<byte_t>(rng.next_u64());
  const std::span<const byte_t> all(data);
  const std::uint32_t expect = szp::detail::crc32c_portable(all);
  EXPECT_EQ(szp::crc32c(all), expect);
  for (size_t split = 0; split <= data.size(); ++split) {
    szp::Crc32c acc;
    acc.update(all.first(split));
    acc.update(all.subspan(split));
    ASSERT_EQ(acc.value(), expect) << "split " << split;
  }
}

TEST(Crc32c, PortableKnownVector) {
  EXPECT_EQ(szp::detail::crc32c_portable(bytes_of("123456789")), 0xE3069283u);
}

}  // namespace
