// Random-access decompression: range equality with full decompression,
// partial-read accounting, bounds handling.
#include <gtest/gtest.h>

#include <cmath>

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

  explicit Fixture(size_t n, double eb = 1e-3) {
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

}  // namespace
}  // namespace szp::core
