// Unit tests of the four cuSZp stages in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "support/bitio.hpp"
#include "szp/core/stages.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

// ---------------------------------------------------------------------
// Reference stages: the plain bit-at-a-time / per-element definitions of
// each stage. The word-level library stages must match them byte for
// byte, since their output is the stream format.

void ref_quantize(std::span<const double> in, double eb,
                  std::span<std::int32_t> out) {
  const double inv = 1.0 / (2.0 * eb);
  for (size_t i = 0; i < in.size(); ++i) {
    const double scaled = in[i] * inv;
    if (!(std::abs(scaled) < static_cast<double>(1 << 29))) {
      throw format_error("ref_quantize: out of range");
    }
    out[i] = static_cast<std::int32_t>(std::llround(scaled));
  }
}

void ref_split_signs(std::span<const std::int32_t> in,
                     std::span<std::uint32_t> mags, std::span<byte_t> signs) {
  for (auto& s : signs) s = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    const std::int32_t v = in[i];
    if (v < 0) {
      signs[i / 8] |= static_cast<byte_t>(1u << (i % 8));
      mags[i] = static_cast<std::uint32_t>(-static_cast<std::int64_t>(v));
    } else {
      mags[i] = static_cast<std::uint32_t>(v);
    }
  }
}

void ref_apply_signs(std::span<const std::uint32_t> mags,
                     std::span<const byte_t> signs,
                     std::span<std::int32_t> out) {
  for (size_t i = 0; i < mags.size(); ++i) {
    const bool neg = (signs[i / 8] >> (i % 8)) & 1u;
    const auto m = static_cast<std::int64_t>(mags[i]);
    out[i] = static_cast<std::int32_t>(neg ? -m : m);
  }
}

void ref_bit_shuffle(std::span<const std::uint32_t> mags, unsigned f,
                     std::span<byte_t> out) {
  const size_t groups = div_ceil(mags.size(), size_t{8});
  for (size_t i = 0; i < static_cast<size_t>(f) * groups; ++i) out[i] = 0;
  for (unsigned k = 0; k < f; ++k) {
    byte_t* plane = out.data() + static_cast<size_t>(k) * groups;
    for (size_t i = 0; i < mags.size(); ++i) {
      const auto bit = static_cast<byte_t>((mags[i] >> k) & 1u);
      plane[i / 8] |= static_cast<byte_t>(bit << (i % 8));
    }
  }
}

void ref_bit_unshuffle(std::span<const byte_t> in, unsigned f,
                       std::span<std::uint32_t> mags) {
  const size_t groups = div_ceil(mags.size(), size_t{8});
  for (auto& m : mags) m = 0;
  for (unsigned k = 0; k < f; ++k) {
    const byte_t* plane = in.data() + static_cast<size_t>(k) * groups;
    for (size_t i = 0; i < mags.size(); ++i) {
      mags[i] |= ((plane[i / 8] >> (i % 8)) & 1u) << k;
    }
  }
}

void ref_bit_pack(std::span<const std::uint32_t> mags, unsigned f,
                  std::span<byte_t> out) {
  const size_t bytes = f * div_ceil(mags.size(), size_t{8});
  BitWriter w;
  for (const std::uint32_t m : mags) w.put(m, f);
  const std::vector<byte_t> packed = std::move(w).take();
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = i < packed.size() ? packed[i] : byte_t{0};
  }
}

void ref_bit_unpack(std::span<const byte_t> in, unsigned f,
                    std::span<std::uint32_t> mags) {
  BitReader r(in.first(f * div_ceil(mags.size(), size_t{8})));
  for (auto& m : mags) m = static_cast<std::uint32_t>(r.get(f));
}

/// Element counts the oracle tests sweep: every block length L = 8..256
/// the format allows, plus counts that are not multiples of 8 or 32.
std::vector<size_t> oracle_sizes() {
  std::vector<size_t> sizes;
  for (size_t L = 8; L <= 256; L += 8) sizes.push_back(L);
  for (const size_t n : {1, 5, 13, 31, 33, 100, 255}) sizes.push_back(n);
  return sizes;
}

std::vector<byte_t> random_bytes(Rng& rng, size_t n) {
  std::vector<byte_t> v(n);
  for (auto& b : v) b = static_cast<byte_t>(rng.next_u64());
  return v;
}

std::uint32_t low_bits(unsigned f) {
  return f >= 32 ? ~0u : (1u << f) - 1;
}

constexpr byte_t kGuard = 0xAB;
constexpr size_t kGuardBytes = 8;

TEST(Quantize, RoundsToNearestBin) {
  const std::vector<float> in = {0.0f, 0.09f, 0.11f, -0.29f, 1.0f};
  std::vector<std::int32_t> out(in.size());
  quantize(in, 0.1, out);  // bin = 0.2
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);   // 0.09/0.2 = 0.45 -> 0
  EXPECT_EQ(out[2], 1);   // 0.11/0.2 = 0.55 -> 1
  EXPECT_EQ(out[3], -1);  // -1.45 -> -1
  EXPECT_EQ(out[4], 5);
}

TEST(Quantize, ErrorWithinBound) {
  Rng rng(3);
  std::vector<float> in(10000);
  for (auto& v : in) v = static_cast<float>(rng.normal() * 100);
  std::vector<std::int32_t> q(in.size());
  std::vector<float> back(in.size());
  const double eb = 0.05;
  quantize(in, eb, q);
  dequantize(q, eb, back);
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_LE(std::abs(back[i] - in[i]), eb + 1e-9);
  }
}

TEST(Quantize, ThrowsWhenMagnitudeTooLargeForBound) {
  const std::vector<float> in = {1e20f};
  std::vector<std::int32_t> out(1);
  EXPECT_THROW(quantize(in, 1e-6, out), format_error);
}

TEST(Lorenzo, ForwardInverseIdentity) {
  Rng rng(4);
  std::vector<std::int32_t> v(256);
  for (auto& x : v) {
    x = static_cast<std::int32_t>(rng.next_below(1u << 29)) - (1 << 28);
  }
  auto w = v;
  lorenzo_forward(w);
  lorenzo_inverse(w);
  EXPECT_EQ(w, v);
}

TEST(Lorenzo, DeltasOfConstantRunAreZero) {
  std::vector<std::int32_t> v = {7, 7, 7, 7, 7};
  lorenzo_forward(v);
  EXPECT_EQ(v, (std::vector<std::int32_t>{7, 0, 0, 0, 0}));
}

TEST(Lorenzo, ExtremeValuesDoNotOverflow) {
  // The quantizer guarantees |r| <= 2^29; the worst delta is +-2^30.
  std::vector<std::int32_t> v = {1 << 29, -(1 << 29), 1 << 29};
  lorenzo_forward(v);
  EXPECT_EQ(v[1], -(1 << 30));
  EXPECT_EQ(v[2], 1 << 30);
  lorenzo_inverse(v);
  EXPECT_EQ(v, (std::vector<std::int32_t>{1 << 29, -(1 << 29), 1 << 29}));
}

TEST(Signs, SplitApplyRoundtrip) {
  Rng rng(5);
  std::vector<std::int32_t> v(64);
  for (auto& x : v) {
    x = static_cast<std::int32_t>(rng.next_below(1u << 30)) - (1 << 29);
  }
  std::vector<std::uint32_t> mags(v.size());
  std::vector<byte_t> signs(v.size() / 8);
  split_signs(v, mags, signs);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(mags[i], static_cast<std::uint32_t>(std::abs(
                           static_cast<std::int64_t>(v[i]))));
  }
  std::vector<std::int32_t> back(v.size());
  apply_signs(mags, signs, back);
  EXPECT_EQ(back, v);
}

TEST(Signs, LayoutBitPerElement) {
  std::vector<std::int32_t> v(16, 1);
  v[3] = -1;
  v[9] = -5;
  std::vector<std::uint32_t> mags(16);
  std::vector<byte_t> signs(2);
  split_signs(v, mags, signs);
  EXPECT_EQ(signs[0], 1u << 3);
  EXPECT_EQ(signs[1], 1u << 1);  // element 9 = byte 1 bit 1
}

TEST(FixedLength, PaperExample) {
  // Paper §4.2: block {1,2,5,11,2,0,0,1} -> max 11 -> 4 bits.
  const std::vector<std::uint32_t> mags = {1, 2, 5, 11, 2, 0, 0, 1};
  EXPECT_EQ(fixed_length_of(mags), 4u);
}

TEST(FixedLength, Cases) {
  EXPECT_EQ(fixed_length_of(std::vector<std::uint32_t>{0, 0, 0}), 0u);
  EXPECT_EQ(fixed_length_of(std::vector<std::uint32_t>{1}), 1u);
  EXPECT_EQ(fixed_length_of(std::vector<std::uint32_t>{0, 128}), 8u);
  EXPECT_EQ(fixed_length_of(std::vector<std::uint32_t>{0x40000000u}), 31u);
}

class ShuffleWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShuffleWidth, BitShuffleBijection) {
  const unsigned f = GetParam();
  Rng rng(f * 31 + 7);
  for (const size_t L : {8u, 32u, 64u, 128u}) {
    std::vector<std::uint32_t> mags(L);
    const std::uint32_t mask =
        f >= 32 ? ~0u : ((1u << f) - 1);
    for (auto& m : mags) {
      m = static_cast<std::uint32_t>(rng.next_u64()) & mask;
    }
    std::vector<byte_t> planes(f * L / 8 + 1, byte_t{0});
    bit_shuffle(mags, f, planes);
    std::vector<std::uint32_t> back(L, 999);
    bit_unshuffle(planes, f, back);
    ASSERT_EQ(back, mags) << "L=" << L << " f=" << f;
  }
}

TEST_P(ShuffleWidth, BitPackBijection) {
  const unsigned f = GetParam();
  Rng rng(f * 131 + 3);
  const size_t L = 32;
  std::vector<std::uint32_t> mags(L);
  const std::uint32_t mask = f >= 32 ? ~0u : ((1u << f) - 1);
  for (auto& m : mags) {
    m = static_cast<std::uint32_t>(rng.next_u64()) & mask;
  }
  std::vector<byte_t> packed(f * L / 8 + 8, byte_t{0});
  bit_pack(mags, f, packed);
  std::vector<std::uint32_t> back(L, 999);
  bit_unpack(packed, f, back);
  EXPECT_EQ(back, mags);
}

INSTANTIATE_TEST_SUITE_P(Widths, ShuffleWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u,
                                           12u, 15u, 16u, 17u, 21u, 24u, 27u,
                                           30u, 31u));

TEST(Shuffle, PaperFigure11Layout) {
  // Fig. 11: plane k byte j holds bit k of elements 8j..8j+7, bit position
  // within the byte = element offset.
  std::vector<std::uint32_t> mags(8, 0);
  mags[0] = 0b1;    // element 0 contributes to plane 0
  mags[3] = 0b10;   // element 3 contributes to plane 1
  std::vector<byte_t> planes(2, byte_t{0});
  bit_shuffle(mags, 2, planes);
  EXPECT_EQ(planes[0], 1u << 0);  // plane 0: element 0
  EXPECT_EQ(planes[1], 1u << 3);  // plane 1: element 3
}

TEST(Shuffle, ZeroPlanesIsEmpty) {
  std::vector<std::uint32_t> mags(32, 0);
  std::vector<byte_t> planes(1, byte_t{0xFF});
  bit_shuffle(mags, 0, std::span<byte_t>(planes.data(), 0));
  std::vector<std::uint32_t> back(32, 7);
  bit_unshuffle(std::span<const byte_t>(planes.data(), 0), 0, back);
  for (const auto m : back) EXPECT_EQ(m, 0u);
}

TEST(ShuffleOracle, BitShuffleMatchesReferenceAndWritesEveryByte) {
  Rng rng(0x5A1);
  for (const size_t n : oracle_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      const size_t bytes = f * div_ceil(n, size_t{8});
      std::vector<std::uint32_t> mags(n);
      // Bits at and above f are outside the planes; both must ignore them.
      for (auto& m : mags) m = static_cast<std::uint32_t>(rng.next_u64());
      std::vector<byte_t> want(bytes), got(bytes + kGuardBytes, kGuard);
      ref_bit_shuffle(mags, f, want);
      bit_shuffle(mags, f, std::span(got).first(bytes));
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << "n=" << n << " f=" << f;
      for (size_t i = bytes; i < got.size(); ++i) {
        ASSERT_EQ(got[i], kGuard) << "wrote past the planes: n=" << n;
      }
      // Exact inverse on in-range magnitudes.
      for (auto& m : mags) m &= low_bits(f);
      bit_shuffle(mags, f, std::span(got).first(bytes));
      std::vector<std::uint32_t> back(n, 0xDEADBEEFu);
      bit_unshuffle(std::span(got).first(bytes), f, back);
      ASSERT_EQ(back, mags) << "n=" << n << " f=" << f;
    }
  }
}

TEST(ShuffleOracle, BitUnshuffleMatchesReferenceOnArbitraryBytes) {
  Rng rng(0x5A2);
  for (const size_t n : oracle_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      const auto planes = random_bytes(rng, f * div_ceil(n, size_t{8}));
      std::vector<std::uint32_t> want(n), got(n, 0xDEADBEEFu);
      ref_bit_unshuffle(planes, f, want);
      bit_unshuffle(planes, f, got);
      ASSERT_EQ(got, want) << "n=" << n << " f=" << f;
    }
  }
}

TEST(ShuffleOracle, PlaneWordIsLittleEndian) {
  // Element i's bit k is bit i of plane k read as a little-endian word:
  // a transpose that swapped bytes inside a plane word fails here.
  for (unsigned i = 0; i < 32; ++i) {
    std::vector<std::uint32_t> mags(32, 0);
    mags[i] = 1u << 5;
    std::vector<byte_t> planes(6 * 4, byte_t{0});
    bit_shuffle(mags, 6, planes);
    for (size_t b = 0; b < planes.size(); ++b) {
      const bool set = b == 5 * 4 + i / 8;
      ASSERT_EQ(planes[b], set ? byte_t(1u << (i % 8)) : byte_t{0})
          << "element " << i << " byte " << b;
    }
  }
}

TEST(ShuffleOracle, BitPackMatchesBitWriterAndWritesEveryByte) {
  Rng rng(0x5A3);
  for (const size_t n : oracle_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      const size_t bytes = f * div_ceil(n, size_t{8});
      std::vector<std::uint32_t> mags(n);
      for (auto& m : mags) m = static_cast<std::uint32_t>(rng.next_u64());
      std::vector<byte_t> want(bytes), got(bytes + kGuardBytes, kGuard);
      ref_bit_pack(mags, f, want);
      bit_pack(mags, f, std::span(got).first(bytes));
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
          << "n=" << n << " f=" << f;
      for (size_t i = bytes; i < got.size(); ++i) {
        ASSERT_EQ(got[i], kGuard) << "wrote past the packing: n=" << n;
      }
      for (auto& m : mags) m &= low_bits(f);
      bit_pack(mags, f, std::span(got).first(bytes));
      std::vector<std::uint32_t> back(n, 0xDEADBEEFu);
      bit_unpack(std::span(got).first(bytes), f, back);
      ASSERT_EQ(back, mags) << "n=" << n << " f=" << f;
    }
  }
}

TEST(ShuffleOracle, BitUnpackMatchesBitReaderOnArbitraryBytes) {
  Rng rng(0x5A4);
  for (const size_t n : oracle_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      const auto packed = random_bytes(rng, f * div_ceil(n, size_t{8}));
      std::vector<std::uint32_t> want(n), got(n, 0xDEADBEEFu);
      ref_bit_unpack(packed, f, want);
      bit_unpack(packed, f, got);
      ASSERT_EQ(got, want) << "n=" << n << " f=" << f;
    }
  }
}

/// Runs quantize and ref_quantize on `values` (converted to T); both must
/// agree on every integer or both must throw.
template <typename T>
void expect_quantize_matches(const std::vector<double>& values, double eb) {
  std::vector<T> in(values.begin(), values.end());
  std::vector<double> widened(in.begin(), in.end());
  std::vector<std::int32_t> want(in.size()), got(in.size());
  bool want_throw = false;
  try {
    ref_quantize(widened, eb, want);
  } catch (const format_error&) {
    want_throw = true;
  }
  if (want_throw) {
    EXPECT_THROW(quantize(std::span<const T>(in), eb, got), format_error);
    return;
  }
  quantize(std::span<const T>(in), eb, got);
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "value " << widened[i] << " eb " << eb;
  }
}

TEST(QuantizeOracle, MatchesLlroundOnRandomData) {
  Rng rng(0x0B1);
  for (const double eb : {1e-7, 1e-4, 1e-3, 0.05, 0.5, 3.0}) {
    std::vector<double> v(4096);
    for (auto& x : v) x = rng.normal() * 1e3 * eb * rng.next_double();
    expect_quantize_matches<float>(v, eb);
    expect_quantize_matches<double>(v, eb);
  }
}

TEST(QuantizeOracle, HalfwayPointsRoundAwayFromZero) {
  // (k + 0.5) * 2eb is exact for these bounds, so every value is a tie.
  for (const double eb : {0.5, 0.25, 0.125, 4.0}) {
    std::vector<double> v;
    for (int k = -2000; k <= 2000; ++k) v.push_back((k + 0.5) * 2 * eb);
    expect_quantize_matches<float>(v, eb);
    expect_quantize_matches<double>(v, eb);
  }
  const std::vector<float> ties = {0.5f, -0.5f, 2.5f, -2.5f, 1.5f, -1.5f};
  std::vector<std::int32_t> q(ties.size());
  quantize(ties, 0.5, q);
  EXPECT_EQ(q, (std::vector<std::int32_t>{1, -1, 3, -3, 2, -2}));
  // Just below a tie rounds down (the floor(x + 0.5) bug would give 1).
  const std::vector<double> below = {std::nextafter(0.5, 0.0),
                                     -std::nextafter(0.5, 0.0)};
  std::vector<std::int32_t> qb(2);
  quantize(below, 0.5, qb);
  EXPECT_EQ(qb, (std::vector<std::int32_t>{0, 0}));
}

TEST(QuantizeOracle, EitherSideOfTheMagnitudeLimit) {
  constexpr double kLimit = 1 << 29;  // with eb = 0.5, scaled == value
  for (const double v :
       {kLimit, -kLimit, std::nextafter(kLimit, 0.0),
        -std::nextafter(kLimit, 0.0), kLimit - 0.5, -(kLimit - 0.5),
        static_cast<double>(std::nextafter(static_cast<float>(kLimit), 0.0f)),
        std::nextafter(kLimit, 2 * kLimit)}) {
    expect_quantize_matches<float>({1.0, v, 2.0}, 0.5);
    expect_quantize_matches<double>({1.0, v, 2.0}, 0.5);
  }
  std::vector<std::int32_t> q(1);
  EXPECT_THROW(quantize(std::vector<double>{kLimit}, 0.5, q), format_error);
  quantize(std::vector<double>{kLimit - 0.5}, 0.5, q);
  EXPECT_EQ(q[0], 1 << 29);
}

TEST(QuantizeOracle, NegativeZeroAndDenormals) {
  const std::vector<double> v = {
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      -static_cast<double>(std::numeric_limits<float>::denorm_min()),
      static_cast<double>(std::numeric_limits<float>::min()),
      std::numeric_limits<double>::min()};
  for (const double eb : {1e-3, 1e-30, 1e-300}) {
    expect_quantize_matches<float>(v, eb);
    expect_quantize_matches<double>(v, eb);
  }
  std::vector<std::int32_t> q(2, 7);
  quantize(std::vector<float>{-0.0f, std::numeric_limits<float>::denorm_min()},
           1e-3, q);
  EXPECT_EQ(q, (std::vector<std::int32_t>{0, 0}));
}

TEST(QuantizeOracle, NonFiniteStillThrows) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<std::int32_t> q(3);
    EXPECT_THROW(quantize(std::vector<float>{1.0f, static_cast<float>(bad),
                                             2.0f},
                          1e-3, q),
                 format_error);
    EXPECT_THROW(quantize(std::vector<double>{1.0, bad, 2.0}, 1e-3, q),
                 format_error);
  }
}

TEST(SignsOracle, SplitMatchesReferenceIncludingTails) {
  Rng rng(0x516);
  const std::int32_t extremes[] = {0,
                                   1,
                                   -1,
                                   1 << 30,
                                   -(1 << 30),
                                   (1 << 30) - 1,
                                   -(1 << 30) + 1,
                                   std::numeric_limits<std::int32_t>::max(),
                                   std::numeric_limits<std::int32_t>::min()};
  for (const size_t n : oracle_sizes()) {
    std::vector<std::int32_t> v(n);
    for (auto& x : v) {
      x = rng.next_below(4) == 0
              ? extremes[rng.next_below(std::size(extremes))]
              : static_cast<std::int32_t>(rng.next_below(1u << 31)) -
                    (1 << 30);
    }
    // Two spare sign bytes: split_signs zeroes the whole map it is given.
    const size_t nsigns = div_ceil(n, size_t{8}) + 2;
    std::vector<std::uint32_t> want_m(n), got_m(n, 0xDEADBEEFu);
    std::vector<byte_t> want_s(nsigns), got_s(nsigns, kGuard);
    ref_split_signs(v, want_m, want_s);
    split_signs(v, got_m, got_s);
    ASSERT_EQ(got_m, want_m) << "n=" << n;
    ASSERT_EQ(got_s, want_s) << "n=" << n;
    std::vector<std::int32_t> back(n, 12345);
    apply_signs(got_m, got_s, back);
    ASSERT_EQ(back, v) << "n=" << n;
  }
}

TEST(SignsOracle, ApplyMatchesReferenceOnArbitraryInput) {
  Rng rng(0x517);
  for (const size_t n : oracle_sizes()) {
    std::vector<std::uint32_t> mags(n);
    for (auto& m : mags) {
      m = rng.next_below(4) == 0 ? (1u << 30) + static_cast<unsigned>(
                                                   rng.next_below(2))
                                 : static_cast<std::uint32_t>(rng.next_u64());
    }
    const auto signs = random_bytes(rng, div_ceil(n, size_t{8}));
    std::vector<std::int32_t> want(n), got(n, 12345);
    ref_apply_signs(mags, signs, want);
    apply_signs(mags, signs, got);
    ASSERT_EQ(got, want) << "n=" << n;
  }
}

}  // namespace
}  // namespace szp::core
