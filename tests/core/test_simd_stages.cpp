// The SIMD stage bodies against their portable twins, and the REL value
// range against std::minmax_element. On a CPU without AVX2 the stage
// functions run the portable bodies and these tests compare a body with
// itself; the value range's SSE2 pass runs on every x86-64 CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "szp/core/host_codec.hpp"
#include "szp/core/stages.hpp"
#include "szp/engine/engine.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

constexpr const char* kQuantizeRangeError =
    "quantize: error bound too small for the data magnitude "
    "(quantization integer exceeds 2^29)";

/// Every block length L = 8..256 the format allows (full 32-element tiles
/// and partial ones), plus odd counts, so every body meets its tail path.
std::vector<size_t> simd_sizes() {
  std::vector<size_t> sizes;
  for (size_t L = 8; L <= 256; L += 8) sizes.push_back(L);
  for (const size_t n : {1, 3, 5, 7, 9, 13, 31, 33, 63, 65, 100, 255, 257}) {
    sizes.push_back(n);
  }
  return sizes;
}

/// what() of the format_error `fn` throws, or "" when it returns.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const format_error& e) {
    return e.what();
  }
  return "";
}

/// quantize and detail::quantize_portable agree: the same integers, or
/// the same format_error message.
template <typename T>
void expect_quantize_twins(const std::vector<T>& in, double eb) {
  const std::span<const T> view(in);
  std::vector<std::int32_t> simd(in.size(), 0x5A5A5A5A);
  std::vector<std::int32_t> portable(in.size(), 0x5A5A5A5A);
  const std::string e_simd = error_of([&] { quantize(view, eb, simd); });
  const std::string e_portable =
      error_of([&] { detail::quantize_portable(view, eb, portable); });
  ASSERT_EQ(e_simd, e_portable) << "n=" << in.size() << " eb=" << eb;
  if (e_simd.empty()) {
    ASSERT_EQ(simd, portable) << "n=" << in.size() << " eb=" << eb;
  }
}

/// Values that stress the rounding step at bound `eb`: exact ties
/// (k + 0.5) * 2eb and their neighbours, the 2^29 magnitude limit from
/// both sides, signed zeros and denormals.
std::vector<double> quantize_edges(double eb) {
  const double bin = 2 * eb;
  const double limit = static_cast<double>(1 << 29) * bin;
  std::vector<double> v = {-0.0,
                           0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::min(),
                           std::nextafter(limit, 0.0),
                           -std::nextafter(limit, 0.0),
                           limit - 0.5 * bin,
                           -(limit - 0.5 * bin),
                           std::nextafter(limit - 0.5 * bin, 0.0)};
  for (int k = -6; k <= 6; ++k) {
    const double tie = (k + 0.5) * bin;
    v.push_back(tie);
    v.push_back(std::nextafter(tie, 0.0));
    v.push_back(std::nextafter(tie, 2 * tie + 1));
  }
  return v;
}

TEST(SimdOracle, QuantizeMatchesPortableOnTiesLimitsAndDenormals) {
  Rng rng(0x51D1);
  // Powers of two make every tie exact in both element types.
  for (const double eb : {0.5, 0.25, 4.0, 1e-3, 1e-30}) {
    const auto edges = quantize_edges(eb);
    for (const size_t n : simd_sizes()) {
      std::vector<double> v(n);
      for (auto& x : v) {
        x = rng.next_below(2) == 0 ? edges[rng.next_below(edges.size())]
                                   : rng.normal() * 1e4 * eb;
      }
      expect_quantize_twins(std::vector<float>(v.begin(), v.end()), eb);
      expect_quantize_twins(v, eb);
    }
    // Each edge at every lane of a 4-lane step and in the tail.
    for (const double e : edges) {
      for (size_t at = 0; at < 9; ++at) {
        std::vector<double> v(9, eb);
        v[at] = e;
        expect_quantize_twins(std::vector<float>(v.begin(), v.end()), eb);
        expect_quantize_twins(v, eb);
      }
    }
  }
}

TEST(SimdOracle, QuantizeNonFiniteThrowsTheSameMessage) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const size_t n : {1, 4, 9, 32}) {
      for (size_t at = 0; at < n; ++at) {
        std::vector<double> v(n, 1.0);
        v[at] = bad;
        const std::vector<float> f(v.begin(), v.end());
        std::vector<std::int32_t> q(n);
        const std::span<const float> narrow(f);
        const std::span<const double> wide(v);
        EXPECT_EQ(error_of([&] { quantize(narrow, 1e-3, q); }),
                  kQuantizeRangeError);
        EXPECT_EQ(error_of([&] { quantize(wide, 1e-3, q); }),
                  kQuantizeRangeError);
        expect_quantize_twins(f, 1e-3);
        expect_quantize_twins(v, 1e-3);
      }
    }
  }
}

TEST(SimdOracle, SignsMatchPortable) {
  Rng rng(0x51D2);
  const std::int32_t extremes[] = {0,
                                   1,
                                   -1,
                                   1 << 30,
                                   -(1 << 30),
                                   std::numeric_limits<std::int32_t>::max(),
                                   std::numeric_limits<std::int32_t>::min()};
  for (const size_t n : simd_sizes()) {
    std::vector<std::int32_t> v(n);
    for (auto& x : v) {
      x = rng.next_below(2) == 0
              ? extremes[rng.next_below(std::size(extremes))]
              : static_cast<std::int32_t>(rng.next_u64());
    }
    // Two spare sign bytes: both bodies zero the whole map they are given.
    const size_t nsigns = div_ceil(n, size_t{8}) + 2;
    std::vector<std::uint32_t> m_simd(n, 0xDEADBEEFu), m_port(n, 0xFEEDu);
    std::vector<byte_t> s_simd(nsigns, 0xAB), s_port(nsigns, 0xCD);
    split_signs(v, m_simd, s_simd);
    detail::split_signs_portable(v, m_port, s_port);
    ASSERT_EQ(m_simd, m_port) << "n=" << n;
    ASSERT_EQ(s_simd, s_port) << "n=" << n;

    // apply_signs on arbitrary magnitudes and sign bytes.
    std::vector<std::uint32_t> mags(n);
    for (auto& m : mags) m = static_cast<std::uint32_t>(rng.next_u64());
    mags[0] = 0x80000000u;  // |INT32_MIN|
    std::vector<byte_t> signs(div_ceil(n, size_t{8}));
    for (auto& s : signs) s = static_cast<byte_t>(rng.next_u64());
    std::vector<std::int32_t> o_simd(n, 1), o_port(n, 2);
    apply_signs(mags, signs, o_simd);
    detail::apply_signs_portable(mags, signs, o_port);
    ASSERT_EQ(o_simd, o_port) << "n=" << n;
  }
}

TEST(SimdOracle, BitShuffleMatchesPortableForEveryWidth) {
  Rng rng(0x51D3);
  for (const size_t n : simd_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      const size_t bytes = f * div_ceil(n, size_t{8});
      std::vector<std::uint32_t> mags(n);
      // Bits at and above f are outside the planes; both must ignore them.
      for (auto& m : mags) m = static_cast<std::uint32_t>(rng.next_u64());
      // Guard bytes past the planes must survive both bodies.
      std::vector<byte_t> simd(bytes + 8, 0xAB), portable(bytes + 8, 0xAB);
      bit_shuffle(mags, f, std::span(simd).first(bytes));
      detail::bit_shuffle_portable(mags, f, std::span(portable).first(bytes));
      ASSERT_EQ(simd, portable) << "n=" << n << " f=" << f;
    }
  }
}

TEST(SimdOracle, BitUnshuffleMatchesPortableForEveryWidth) {
  Rng rng(0x51D4);
  for (const size_t n : simd_sizes()) {
    for (unsigned f = 0; f <= 32; ++f) {
      std::vector<byte_t> planes(f * div_ceil(n, size_t{8}));
      for (auto& b : planes) b = static_cast<byte_t>(rng.next_u64());
      std::vector<std::uint32_t> simd(n, 0xDEADBEEFu), portable(n, 7u);
      bit_unshuffle(planes, f, simd);
      detail::bit_unshuffle_portable(planes, f, portable);
      ASSERT_EQ(simd, portable) << "n=" << n << " f=" << f;
    }
  }
}

// ------------------------------------------------------ value range ----

template <typename T>
double minmax_element_range(const std::vector<T>& v) {
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  return static_cast<double>(*mx) - static_cast<double>(*mn);
}

template <typename T>
void expect_range_matches(const std::vector<T>& v) {
  ASSERT_EQ(value_range_of(std::span<const T>(v)), minmax_element_range(v))
      << "n=" << v.size();
}

template <typename T>
void check_value_ranges(Rng& rng) {
  constexpr T kMax = std::numeric_limits<T>::max();
  constexpr T kDenorm = std::numeric_limits<T>::denorm_min();
  for (const size_t n : {size_t{1}, size_t{7}, size_t{9}, size_t{16},
                         size_t{17}, size_t{33}, size_t{1001}}) {
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.normal() * 1e3);
    expect_range_matches(v);
    // The extremes at every position: SIMD body, lane reduction, tail.
    for (size_t at = 0; at < n; at += std::max<size_t>(1, n / 13)) {
      auto w = v;
      w[at] = static_cast<T>(1e6);
      expect_range_matches(w);
      w[at] = static_cast<T>(-1e6);
      expect_range_matches(w);
    }
    expect_range_matches(std::vector<T>(n, static_cast<T>(3.25)));
    std::vector<T> tiny(n);
    for (size_t i = 0; i < n; ++i) {
      tiny[i] = static_cast<T>(i % 3) * kDenorm * (i % 2 == 0 ? 1 : -1);
    }
    expect_range_matches(tiny);
    auto huge = v;
    huge.front() = kMax;
    huge.back() = -kMax;
    expect_range_matches(huge);
  }
  EXPECT_EQ(value_range_of(std::span<const T>()), 0.0);
}

TEST(ValueRange, MatchesMinmaxElementOnFiniteData) {
  Rng rng(0x51D5);
  check_value_ranges<float>(rng);
  check_value_ranges<double>(rng);
  // f32 extremes widen before subtracting: the range of +-FLT_MAX is
  // finite in double.
  const std::vector<float> both = {FLT_MAX, -FLT_MAX, 0.0f};
  EXPECT_EQ(value_range_of(std::span<const float>(both)),
            2.0 * static_cast<double>(FLT_MAX));
}

TEST(ValueRange, NonFiniteRelCompressThrowsOnEveryBackend) {
  // A NaN or +-Inf anywhere in a REL field ends in quantize's throw,
  // whatever range the scan returns for it.
  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  for (const auto kind :
       {engine::BackendKind::kSerial, engine::BackendKind::kParallelHost,
        engine::BackendKind::kDevice}) {
    engine::Engine eng({.params = p, .backend = kind, .threads = 4});
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      for (const size_t at : {size_t{0}, size_t{500}, size_t{999}}) {
        std::vector<double> v(1000);
        for (size_t i = 0; i < v.size(); ++i) {
          v[i] = std::sin(0.01 * static_cast<double>(i));
        }
        v[at] = bad;
        const std::vector<float> f(v.begin(), v.end());
        EXPECT_EQ(error_of([&] { (void)eng.compress(f); }),
                  kQuantizeRangeError)
            << engine::backend_name(kind) << " at " << at;
        EXPECT_EQ(error_of([&] { (void)eng.compress_f64(v); }),
                  kQuantizeRangeError)
            << engine::backend_name(kind) << " at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace szp::core
