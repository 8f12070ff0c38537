// BitWriter/BitReader: roundtrips at every width, alignment, error paths.
#include <gtest/gtest.h>

#include "support/bitio.hpp"
#include "szp/util/rng.hpp"

namespace szp {
namespace {

class BitIoWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitIoWidth, RoundtripsRandomValues) {
  const unsigned width = GetParam();
  Rng rng(width * 977 + 1);
  std::vector<std::uint64_t> values(257);
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  for (auto& v : values) v = rng.next_u64() & mask;

  BitWriter w;
  for (const auto v : values) w.put(v, width);
  EXPECT_EQ(w.bit_count(), values.size() * width);
  const auto bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), div_ceil<size_t>(values.size() * width, 8));

  BitReader r(bytes);
  for (const auto v : values) {
    EXPECT_EQ(r.get(width), v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitIoWidth,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 9u, 12u,
                                           15u, 16u, 17u, 23u, 24u, 31u, 32u,
                                           33u, 47u, 53u, 63u, 64u));

TEST(BitIo, MixedWidthSequence) {
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, unsigned>> seq;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    const std::uint64_t v = rng.next_u64() & mask;
    seq.emplace_back(v, width);
    w.put(v, width);
  }
  const auto bytes = std::move(w).take();
  BitReader r(bytes);
  for (const auto& [v, width] : seq) {
    ASSERT_EQ(r.get(width), v);
  }
}

TEST(BitIo, ZeroWidthIsNoop) {
  BitWriter w;
  w.put(0xFFFF, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  w.put(1, 1);
  const auto bytes = std::move(w).take();
  BitReader r(bytes);
  EXPECT_EQ(r.get(0), 0u);
  EXPECT_EQ(r.get(1), 1u);
}

TEST(BitIo, LsbFirstLayoutWithinByte) {
  // Bit k of byte j corresponds to the (8j+k)-th written bit.
  BitWriter w;
  w.put_bit(true);   // bit 0
  w.put_bit(false);  // bit 1
  w.put_bit(true);   // bit 2
  const auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b00000101);
}

TEST(BitIo, AlignToByte) {
  BitWriter w;
  w.put(0b101, 3);
  w.align_to_byte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.put(0xAB, 8);
  const auto bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[1], 0xAB);

  BitReader r(bytes);
  EXPECT_EQ(r.get(3), 0b101u);
  r.align_to_byte();
  EXPECT_EQ(r.get(8), 0xABu);
}

TEST(BitIo, ValueBitsAboveWidthAreMasked) {
  BitWriter w;
  w.put(0xFF, 4);  // only low 4 bits should be kept
  w.put(0x0, 4);
  const auto bytes = std::move(w).take();
  BitReader r(bytes);
  EXPECT_EQ(r.get(8), 0x0Fu);
}

TEST(BitIo, ReadPastEndThrows) {
  const std::vector<byte_t> one = {0x5A};
  BitReader r(one);
  EXPECT_EQ(r.get(8), 0x5Au);
  EXPECT_THROW((void)r.get(1), format_error);
}

TEST(BitIo, BitsLeftTracksPosition) {
  const std::vector<byte_t> data(4, 0);
  BitReader r(data);
  EXPECT_EQ(r.bits_left(), 32u);
  (void)r.get(13);
  EXPECT_EQ(r.bits_left(), 19u);
  EXPECT_EQ(r.bit_position(), 13u);
}

}  // namespace
}  // namespace szp
