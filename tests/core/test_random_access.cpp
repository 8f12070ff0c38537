// Random-access decompression: range equality with full decompression,
// partial-read accounting, bounds handling, and the seek contract (a
// range decode reads and verifies only the checksum groups covering it).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "szp/core/random_access.hpp"
#include "szp/core/serial.hpp"
#include "szp/data/registry.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

struct Fixture {
  std::vector<float> data;
  std::vector<byte_t> stream;
  std::vector<float> full;

  explicit Fixture(size_t n, double eb = 1e-3,
                   unsigned group_blocks = kChecksumGroupBlocks) {
    Rng rng(n);
    data.resize(n);
    double acc = 0;
    for (auto& v : data) {
      acc += rng.normal() * 0.05;
      v = static_cast<float>(acc + rng.normal() * 0.001);
    }
    Params p;
    p.mode = ErrorMode::kAbs;
    p.error_bound = eb;
    p.checksum_group_blocks = group_blocks;
    stream = compress_serial(data, p);
    full = decompress_serial(stream);
  }
};

class RangeSweep : public ::testing::TestWithParam<std::pair<size_t, size_t>> {
};

TEST_P(RangeSweep, MatchesFullDecompressionExactly) {
  static const Fixture fx(10000);
  const auto [begin, end] = GetParam();
  const auto part = decompress_range(fx.stream, begin, end);
  ASSERT_EQ(part.size(), end - begin);
  for (size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(part[i], fx.full[begin + i]) << "element " << begin + i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeSweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 10000},   // everything
                      std::pair<size_t, size_t>{0, 1},       // first element
                      std::pair<size_t, size_t>{9999, 10000}, // last element
                      std::pair<size_t, size_t>{31, 33},     // block boundary
                      std::pair<size_t, size_t>{32, 64},     // exact block
                      std::pair<size_t, size_t>{100, 100},   // empty
                      std::pair<size_t, size_t>{4000, 6000},
                      std::pair<size_t, size_t>{1, 9999}));

TEST(RandomAccess, RandomizedRangesAgainstFull) {
  const Fixture fx(50000, 1e-2);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t a = rng.next_below(50000);
    const size_t b = a + rng.next_below(50000 - a + 1);
    const auto part = decompress_range(fx.stream, a, b);
    ASSERT_EQ(part.size(), b - a);
    for (size_t i = 0; i < part.size(); i += 97) {
      ASSERT_EQ(part[i], fx.full[a + i]);
    }
  }
}

TEST(RandomAccess, PayloadBytesScaleWithRange) {
  const Fixture fx(100000);
  const size_t tiny = range_payload_bytes(fx.stream, 0, 32);
  const size_t half = range_payload_bytes(fx.stream, 0, 50000);
  const size_t all = range_payload_bytes(fx.stream, 0, 100000);
  EXPECT_LT(tiny, half);
  EXPECT_LT(half, all);
  // The whole point: a small range reads a small fraction of the payload.
  EXPECT_LT(tiny * 100, all);
  // Full range touches exactly the whole payload.
  const auto stats = inspect_stream(fx.stream);
  EXPECT_EQ(all, stats.payload_bytes);
}

TEST(RandomAccess, OutOfBoundsThrows) {
  const Fixture fx(1000);
  EXPECT_THROW((void)decompress_range(fx.stream, 0, 1001), format_error);
  EXPECT_THROW((void)decompress_range(fx.stream, 500, 400), format_error);
}

TEST(RandomAccess, RejectsF64StreamLikeFullDecode) {
  std::vector<double> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i) * 0.01) * 100.0;
  }
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 1e-6;
  const auto stream = compress_serial_f64(data, p);
  EXPECT_THROW((void)decompress_serial(stream), format_error);
  EXPECT_THROW((void)decompress_range(stream, 0, 1000), format_error);
  EXPECT_THROW((void)decompress_range(stream, 10, 20), format_error);
}

TEST(RandomAccess, WorksOnSuiteFieldsWithZeroBlocks) {
  const auto field = data::make_field(data::Suite::kRtm, 0, 0.05);
  Params p;
  p.error_bound = 1e-2;
  const auto stream = compress_serial(field.values, p, field.value_range());
  const auto full = decompress_serial(stream);
  const size_t mid = field.count() / 2;
  const auto part = decompress_range(stream, mid - 500, mid + 500);
  for (size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(part[i], full[mid - 500 + i]);
  }
}

void expect_slice(const std::vector<float>& part, const Fixture& fx,
                  size_t begin, size_t end) {
  ASSERT_EQ(part.size(), end - begin);
  if (part.empty()) return;  // memcmp must not see a null pointer
  EXPECT_EQ(std::memcmp(part.data(), fx.full.data() + begin,
                        part.size() * sizeof(float)),
            0)
      << "range [" << begin << ", " << end << ")";
}

/// The footer of a v2 stream, and where it starts.
ChecksumFooter footer_of(std::span<const byte_t> stream, size_t& footer_off) {
  const Header h = Header::deserialize(stream);
  const size_t groups = num_checksum_groups(
      num_blocks(h.num_elements, h.block_len), h.checksum_group_blocks);
  footer_off = stream.size() - ChecksumFooter::bytes_for(groups);
  return ChecksumFooter::deserialize(stream.subspan(footer_off));
}

TEST(RandomAccess, QueryNeverReadsGroupsOutsideItsRange) {
  // 100000 elements: 3125 blocks in 13 checksum groups of 256.
  const Fixture fx(100000);
  size_t footer_off = 0;
  const ChecksumFooter footer = footer_of(fx.stream, footer_off);
  ASSERT_EQ(footer.crcs.size(), 13u);
  const size_t base = payload_offset(3125);
  ASSERT_GT(footer.offsets[2], footer.offsets[1] + 3);

  // Break group 1 twice over: an invalid length byte and a payload byte.
  auto bad = fx.stream;
  bad[lengths_offset() + 256 + 7] = 0xFF;
  bad[base + footer.offsets[1] + 3] ^= 0x5A;
  EXPECT_THROW((void)decompress_serial(bad), format_error);
  EXPECT_THROW((void)decompress_range(bad, 256 * 32, 256 * 32 + 256),
               format_error);

  // Queries in intact groups before and after it still read exactly,
  // which a decoder that scans from block 0 or walks every group cannot.
  for (const size_t begin : {size_t{1000}, size_t{10 * 256 * 32 + 100}}) {
    expect_slice(decompress_range(bad, begin, begin + 256), fx, begin,
                 begin + 256);
  }
}

TEST(RandomAccess, ForgedFooterOffsetIsCaught) {
  const Fixture fx(100000);
  size_t footer_off = 0;
  const ChecksumFooter footer = footer_of(fx.stream, footer_off);
  // Rewrite one group start and re-seal the footer with a valid self-CRC.
  const auto forge = [&](size_t g, std::int64_t delta) {
    ChecksumFooter f = footer;
    f.offsets[g] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(f.offsets[g]) + delta);
    auto s = fx.stream;
    f.serialize(std::span(s).subspan(footer_off));
    return s;
  };
  const size_t begin = 5 * 256 * 32 + 1000;  // inside group 5
  const size_t end = begin + 256;
  expect_slice(decompress_range(fx.stream, begin, end), fx, begin, end);
  // Group 6's start is where group 5 must end: only the chain check ties
  // it to what the scan of group 5 found.
  EXPECT_THROW((void)decompress_range(forge(6, 8), begin, end), format_error);
  // Group 5's own start.
  EXPECT_THROW((void)decompress_range(forge(5, 8), begin, end), format_error);
  EXPECT_THROW((void)decompress_range(forge(5, -8), begin, end),
               format_error);
  EXPECT_THROW((void)decompress_range(forge(0, 1), begin, end), format_error);
  EXPECT_THROW((void)decompress_serial(forge(6, 8)), format_error);
}

TEST(RandomAccess, EdgeRangesMatchFullDecode) {
  // n is not a multiple of L, and G_B = 7 does not divide the 313 blocks:
  // the last block and the last group are partial. G_B = 0 is a v1 stream.
  constexpr size_t n = 10007;
  for (const unsigned gb : {0u, 7u, 256u}) {
    const Fixture fx(n, 1e-3, gb);
    const size_t g7 = 7 * 32;  // first element of group 1 when G_B = 7
    const std::pair<size_t, size_t> ranges[] = {
        {0, n},           {0, 0},
        {n, n},           {n - 1, n},
        {44 * g7 + 5, n},  // inside the last, partial group
        {g7 - 10, g7 + 10},  // spans two groups
        {3 * g7 - 1, 9 * g7 + 1}};
    for (const auto& [begin, end] : ranges) {
      SCOPED_TRACE("group blocks " + std::to_string(gb));
      expect_slice(decompress_range(fx.stream, begin, end), fx, begin, end);
    }
  }
}

}  // namespace
}  // namespace szp::core
