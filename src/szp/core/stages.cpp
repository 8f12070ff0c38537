#include "szp/core/stages.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "szp/util/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace szp::core {

namespace {
// Quantized magnitudes must leave headroom for the Lorenzo delta, whose
// magnitude can double: |r_i| <= 2^29 keeps |l_i| <= 2^30 < INT32_MAX.
constexpr std::int64_t kMaxQuantMagnitude = std::int64_t{1} << 29;

#if defined(__x86_64__)
// The SIMD bodies are compiled for AVX2 one function at a time and run
// only where cpu_features() found it; the rest of the build targets the
// x86-64 baseline.
#define SZP_AVX2 __attribute__((target("avx2")))
#endif

[[noreturn]] void throw_quantize_range() {
  throw format_error(
      "quantize: error bound too small for the data magnitude "
      "(quantization integer exceeds 2^29)");
}

template <typename T>
void quantize_impl(std::span<const T> in, double eb_abs,
                   std::span<std::int32_t> out) {
  assert(in.size() == out.size());
  const double inv = 1.0 / (2.0 * eb_abs);
  constexpr auto kLimit = static_cast<double>(kMaxQuantMagnitude);
  bool in_range = true;
  for (size_t i = 0; i < in.size(); ++i) {
    const double scaled = static_cast<double>(in[i]) * inv;
    const bool ok = std::abs(scaled) < kLimit;  // false for NaN and +-Inf
    in_range = in_range && ok;
    // Out-of-range values convert as 0 to keep the cast defined; the call
    // throws below. Rounding is std::llround's, half away from zero:
    // truncate, then step by the exact fraction.
    const double s = ok ? scaled : 0.0;
    const auto whole = static_cast<std::int32_t>(s);
    const double frac = s - static_cast<double>(whole);
    out[i] = whole + static_cast<std::int32_t>(frac >= 0.5) -
             static_cast<std::int32_t>(frac <= -0.5);
  }
  if (!in_range) throw_quantize_range();
}

template <typename T>
void dequantize_impl(std::span<const std::int32_t> in, double eb_abs,
                     std::span<T> out) {
  assert(in.size() == out.size());
  const double scale = 2.0 * eb_abs;
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<T>(static_cast<double>(in[i]) * scale);
  }
}

#if defined(__x86_64__)
SZP_AVX2 __m256d load4_pd(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
SZP_AVX2 __m256d load4_pd(const double* p) { return _mm256_loadu_pd(p); }

/// quantize_impl four lanes at a time, the same double arithmetic step
/// for step: truncate (round_pd toward zero), step by the exact fraction,
/// convert. |whole| < 2^29, so whole +- 1 and the conversion are exact.
/// The last in.size() % 4 elements go through quantize_impl.
template <typename T>
SZP_AVX2 void quantize_avx2(std::span<const T> in, double eb_abs,
                            std::span<std::int32_t> out) {
  assert(in.size() == out.size());
  const __m256d inv = _mm256_set1_pd(1.0 / (2.0 * eb_abs));
  const __m256d limit = _mm256_set1_pd(static_cast<double>(kMaxQuantMagnitude));
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d in_range = _mm256_cmp_pd(one, one, _CMP_EQ_OQ);  // all ones
  const size_t n4 = in.size() / 4 * 4;
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d scaled = _mm256_mul_pd(load4_pd(in.data() + i), inv);
    // False for NaN and +-Inf; out-of-range lanes convert as 0.
    const __m256d ok =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, scaled), limit, _CMP_LT_OQ);
    in_range = _mm256_and_pd(in_range, ok);
    const __m256d s = _mm256_and_pd(scaled, ok);
    const __m256d whole =
        _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_sub_pd(s, whole);
    const __m256d up =
        _mm256_and_pd(_mm256_cmp_pd(frac, half, _CMP_GE_OQ), one);
    const __m256d down =
        _mm256_and_pd(_mm256_cmp_pd(frac, neg_half, _CMP_LE_OQ), one);
    const __m256d r = _mm256_sub_pd(_mm256_add_pd(whole, up), down);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + i),
                     _mm256_cvttpd_epi32(r));
  }
  quantize_impl(in.subspan(n4), eb_abs, out.subspan(n4));
  if (_mm256_movemask_pd(in_range) != 0xF) throw_quantize_range();
}
#endif

template <typename T>
void quantize_dispatch(std::span<const T> in, double eb_abs,
                       std::span<std::int32_t> out) {
#if defined(__x86_64__)
  if (cpu_features().avx2) return quantize_avx2(in, eb_abs, out);
#endif
  quantize_impl(in, eb_abs, out);
}

}  // namespace

void quantize(std::span<const float> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_dispatch(in, eb_abs, out);
}
void quantize(std::span<const double> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_dispatch(in, eb_abs, out);
}

namespace detail {
void quantize_portable(std::span<const float> in, double eb_abs,
                       std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}
void quantize_portable(std::span<const double> in, double eb_abs,
                       std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}
}  // namespace detail

void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<float> out) {
  dequantize_impl(in, eb_abs, out);
}
void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<double> out) {
  dequantize_impl(in, eb_abs, out);
}

void lorenzo_forward(std::span<std::int32_t> r) {
  std::int32_t prev = 0;
  for (auto& v : r) {
    const std::int32_t cur = v;
    v = cur - prev;  // |cur|,|prev| <= 2^30 so the difference cannot wrap
    prev = cur;
  }
}

void lorenzo_inverse(std::span<std::int32_t> l) {
  // Unsigned accumulation: corrupt (unchecksummed v1) streams can hold
  // arbitrary deltas, and signed wrap would be UB. The reconstruction is
  // garbage either way, but it must be *defined* garbage so the salvage
  // and fuzz paths stay sanitizer-clean.
  std::uint32_t acc = 0;
  for (auto& v : l) {
    acc += static_cast<std::uint32_t>(v);
    v = static_cast<std::int32_t>(acc);
  }
}

void lorenzo2_forward(std::span<std::int32_t> r) {
  std::int64_t prev = 0, prev2 = 0;
  for (auto& v : r) {
    const std::int64_t cur = v;
    const std::int64_t l = cur - 2 * prev + prev2;
    if (l > std::numeric_limits<std::int32_t>::max() ||
        l < std::numeric_limits<std::int32_t>::min()) {
      throw format_error("lorenzo2: second difference overflows 32 bits");
    }
    v = static_cast<std::int32_t>(l);
    prev2 = prev;
    prev = cur;
  }
}

void lorenzo2_inverse(std::span<std::int32_t> l) {
  // Two cumulative sums undo two differences.
  lorenzo_inverse(l);
  lorenzo_inverse(l);
}

namespace {

/// Magnitudes of in[0, count) (count <= 8) and their sign bits, packed
/// LSB-first into one byte: |v| = (v ^ neg) - neg with neg = 0 - sign.
byte_t split_lanes(const std::int32_t* in, std::uint32_t* magnitudes,
                   size_t count) {
  std::uint32_t bits = 0;
  for (size_t e = 0; e < count; ++e) {
    const auto v = static_cast<std::uint32_t>(in[e]);
    const std::uint32_t neg = 0u - (v >> 31);
    magnitudes[e] = (v ^ neg) - neg;
    bits |= (v >> 31) << e;
  }
  return static_cast<byte_t>(bits);
}

/// Inverse of split_lanes for lanes [0, count) of one sign byte.
void apply_lanes(const std::uint32_t* magnitudes, byte_t sign_bits,
                 std::int32_t* out, size_t count) {
  for (size_t e = 0; e < count; ++e) {
    const std::uint32_t neg = 0u - ((sign_bits >> e) & 1u);
    out[e] = static_cast<std::int32_t>((magnitudes[e] ^ neg) - neg);
  }
}

#if defined(__x86_64__)
SZP_AVX2 __m256i load8(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
SZP_AVX2 void store8(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

/// split_lanes eight lanes at a time (n % 8 == 0): the sign byte is the
/// lanes' top bits, and abs_epi32 maps INT32_MIN to 2^31 as the scalar
/// (v ^ neg) - neg does.
SZP_AVX2 void split_signs_avx2(std::span<const std::int32_t> in,
                               std::span<std::uint32_t> magnitudes,
                               std::span<byte_t> signs) {
  const size_t groups = in.size() / 8;
  for (size_t j = 0; j < groups; ++j) {
    const __m256i v = load8(in.data() + 8 * j);
    signs[j] = static_cast<byte_t>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
    store8(magnitudes.data() + 8 * j, _mm256_abs_epi32(v));
  }
  std::fill(signs.begin() + static_cast<std::ptrdiff_t>(groups), signs.end(),
            byte_t{0});
}

/// apply_lanes eight lanes at a time (n % 8 == 0): lane e's sign is bit e
/// of the broadcast sign byte.
SZP_AVX2 void apply_signs_avx2(std::span<const std::uint32_t> magnitudes,
                               std::span<const byte_t> signs,
                               std::span<std::int32_t> out) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  for (size_t j = 0; j < out.size() / 8; ++j) {
    const __m256i bit = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(signs[j]), lane), one);
    const __m256i neg = _mm256_sub_epi32(zero, bit);
    const __m256i m = load8(magnitudes.data() + 8 * j);
    store8(out.data() + 8 * j,
           _mm256_sub_epi32(_mm256_xor_si256(m, neg), neg));
  }
}
#endif

}  // namespace

void split_signs(std::span<const std::int32_t> in,
                 std::span<std::uint32_t> magnitudes,
                 std::span<byte_t> signs) {
  assert(magnitudes.size() == in.size());
  assert(signs.size() >= div_ceil(in.size(), size_t{8}));
#if defined(__x86_64__)
  if (in.size() % 8 == 0 && cpu_features().avx2) {
    return split_signs_avx2(in, magnitudes, signs);
  }
#endif
  detail::split_signs_portable(in, magnitudes, signs);
}

void apply_signs(std::span<const std::uint32_t> magnitudes,
                 std::span<const byte_t> signs, std::span<std::int32_t> out) {
  assert(out.size() == magnitudes.size());
#if defined(__x86_64__)
  if (out.size() % 8 == 0 && cpu_features().avx2) {
    return apply_signs_avx2(magnitudes, signs, out);
  }
#endif
  detail::apply_signs_portable(magnitudes, signs, out);
}

namespace detail {

void split_signs_portable(std::span<const std::int32_t> in,
                          std::span<std::uint32_t> magnitudes,
                          std::span<byte_t> signs) {
  assert(magnitudes.size() == in.size());
  assert(signs.size() >= div_ceil(in.size(), size_t{8}));
  const size_t n = in.size();
  const size_t groups = div_ceil(n, size_t{8});
  for (size_t j = 0; j < groups; ++j) {
    signs[j] = split_lanes(in.data() + 8 * j, magnitudes.data() + 8 * j,
                           std::min<size_t>(8, n - 8 * j));
  }
  std::fill(signs.begin() + static_cast<std::ptrdiff_t>(groups), signs.end(),
            byte_t{0});
}

void apply_signs_portable(std::span<const std::uint32_t> magnitudes,
                          std::span<const byte_t> signs,
                          std::span<std::int32_t> out) {
  assert(out.size() == magnitudes.size());
  const size_t n = out.size();
  for (size_t j = 0; j < div_ceil(n, size_t{8}); ++j) {
    apply_lanes(magnitudes.data() + 8 * j, signs[j], out.data() + 8 * j,
                std::min<size_t>(8, n - 8 * j));
  }
}

}  // namespace detail

unsigned fixed_length_of(std::span<const std::uint32_t> magnitudes) {
  std::uint32_t mx = 0;
  for (const std::uint32_t m : magnitudes) mx |= m;
  return static_cast<unsigned>(std::bit_width(mx));
}

namespace {

// Plane k's bytes for 32 consecutive elements are one little-endian word
// whose bit i is bit k of element i (FORMAT.md), so BB is a 32x32 bit
// transpose per tile and the plane words are stored with memcpy.
static_assert(std::endian::native == std::endian::little,
              "bit-plane words are stored in native byte order");

using Tile = std::array<std::uint32_t, 32>;

/// Swap bit (r, c + J) with bit (r + J, c) for every column c in Mask.
template <unsigned J, std::uint32_t Mask>
void swap_blocks(std::uint32_t& lo, std::uint32_t& hi) {
  const std::uint32_t t = ((lo >> J) ^ hi) & Mask;
  hi ^= t;
  lo ^= t << J;
}

/// One level of the transpose: swap the off-diagonal JxJ sub-blocks of
/// every 2Jx2J block; expanded at compile time into 16 straight-line swaps.
template <unsigned J, std::uint32_t Mask, size_t... I>
void transpose_level(Tile& t, std::index_sequence<I...> /*rows*/) {
  (swap_blocks<J, Mask>(t[(I / J) * 2 * J + I % J],
                        t[(I / J) * 2 * J + I % J + J]),
   ...);
}

/// In-place transpose of a 32x32 bit matrix: row r bit c <-> row c bit r.
void transpose32(Tile& t) {
  constexpr auto kHalf = std::make_index_sequence<16>{};
  transpose_level<16, 0x0000FFFFu>(t, kHalf);
  transpose_level<8, 0x00FF00FFu>(t, kHalf);
  transpose_level<4, 0x0F0F0F0Fu>(t, kHalf);
  transpose_level<2, 0x33333333u>(t, kHalf);
  transpose_level<1, 0x55555555u>(t, kHalf);
}

#if defined(__x86_64__)
// The AVX2 bit-plane bodies work on whole 32-element tiles. A tile's 32
// words are first regrouped by byte: after to_byte_planes, byte i of
// vector j is byte j of element i. Bit b of those 32 bytes is then plane
// 8j + b, and one movemask_epi8 collects it: a 32-lane ballot, as the
// paper's BB step builds a plane with one warp ballot.

/// One tile as four vectors (std::array would drop the vector type's
/// alignment attribute).
struct Quad {
  __m256i v[4];
};

/// 4x4 transpose of 64-bit words across q.v[0..3]; its own inverse.
SZP_AVX2 void transpose_qwords(Quad& q) {
  auto& v = q.v;
  const __m256i a = _mm256_unpacklo_epi64(v[0], v[1]);
  const __m256i b = _mm256_unpackhi_epi64(v[0], v[1]);
  const __m256i c = _mm256_unpacklo_epi64(v[2], v[3]);
  const __m256i d = _mm256_unpackhi_epi64(v[2], v[3]);
  v[0] = _mm256_permute2x128_si256(a, c, 0x20);
  v[1] = _mm256_permute2x128_si256(b, d, 0x20);
  v[2] = _mm256_permute2x128_si256(a, c, 0x31);
  v[3] = _mm256_permute2x128_si256(b, d, 0x31);
}

/// Within each 128-bit lane, byte 4e + j (byte j of word e) moves to
/// byte 4j + e; a 4x4 byte transpose, so its own inverse.
SZP_AVX2 __m256i lane_bytes_by_index(__m256i v) {
  const __m256i idx = _mm256_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14,
                                       3, 7, 11, 15, 0, 4, 8, 12, 1, 5, 9, 13,
                                       2, 6, 10, 14, 3, 7, 11, 15);
  return _mm256_shuffle_epi8(v, idx);
}

/// words[8t..8t+7] are elements 8t..8t+7; on return byte i of v[j] is
/// byte j of element i.
SZP_AVX2 Quad to_byte_planes(const std::uint32_t* words) {
  // After the lane shuffle, dword 4h + j of a vector holds byte j of its
  // elements 4h..4h+3; the permute makes qword j byte j of all eight.
  const __m256i gather = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  Quad q;
  for (size_t t = 0; t < 4; ++t) {
    q.v[t] = _mm256_permutevar8x32_epi32(
        lane_bytes_by_index(load8(words + 8 * t)), gather);
  }
  transpose_qwords(q);
  return q;
}

/// Inverse of to_byte_planes.
SZP_AVX2 void from_byte_planes(Quad q, std::uint32_t* words) {
  const __m256i scatter = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  transpose_qwords(q);
  for (size_t t = 0; t < 4; ++t) {
    store8(words + 8 * t, lane_bytes_by_index(
                              _mm256_permutevar8x32_epi32(q.v[t], scatter)));
  }
}

/// bit_shuffle on n % 32 == 0: plane k of a tile is the ballot of bit
/// k % 8 of byte plane k / 8, moved to each byte's top bit.
SZP_AVX2 void bit_shuffle_avx2(std::span<const std::uint32_t> magnitudes,
                               unsigned f, std::span<byte_t> out) {
  const size_t groups = magnitudes.size() / 8;
  for (size_t base = 0; base < magnitudes.size(); base += 32) {
    const Quad bytes = to_byte_planes(&magnitudes[base]);
    byte_t* plane = out.data() + base / 8;
    for (unsigned k = 0; k < f; ++k, plane += groups) {
      const __m256i top = _mm256_sll_epi16(
          bytes.v[k / 8], _mm_cvtsi32_si128(static_cast<int>(7 - k % 8)));
      const auto word = static_cast<std::uint32_t>(_mm256_movemask_epi8(top));
      std::memcpy(plane, &word, 4);
    }
  }
}

/// bit_unshuffle on n % 32 == 0: plane k's word is spread one bit per
/// byte (byte i tests bit i) and OR-ed into bit k % 8 of byte plane k / 8.
SZP_AVX2 void bit_unshuffle_avx2(std::span<const byte_t> in, unsigned f,
                                 std::span<std::uint32_t> magnitudes) {
  const size_t groups = magnitudes.size() / 8;
  // Byte i of a broadcast word, i / 8 within its 128-bit lane, and the
  // bit that byte tests.
  const __m256i spread = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1,
                                          1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
                                          3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i select = _mm256_set1_epi64x(
      static_cast<std::int64_t>(0x8040201008040201ull));
  for (size_t base = 0; base < magnitudes.size(); base += 32) {
    Quad bytes{};
    const byte_t* plane = in.data() + base / 8;
    for (unsigned k = 0; k < f; ++k, plane += groups) {
      std::int32_t word;
      std::memcpy(&word, plane, 4);
      const __m256i set = _mm256_cmpeq_epi8(
          _mm256_and_si256(
              _mm256_shuffle_epi8(_mm256_set1_epi32(word), spread), select),
          select);
      const __m256i bit = _mm256_set1_epi8(static_cast<char>(1u << (k % 8)));
      bytes.v[k / 8] =
          _mm256_or_si256(bytes.v[k / 8], _mm256_and_si256(set, bit));
    }
    from_byte_planes(bytes, &magnitudes[base]);
  }
}
#endif

}  // namespace

void bit_shuffle(std::span<const std::uint32_t> magnitudes, unsigned f,
                 std::span<byte_t> out) {
  assert(f <= 32);
  assert(out.size() >=
         static_cast<size_t>(f) * div_ceil(magnitudes.size(), size_t{8}));
#if defined(__x86_64__)
  if (magnitudes.size() % 32 == 0 && cpu_features().avx2) {
    return bit_shuffle_avx2(magnitudes, f, out);
  }
#endif
  detail::bit_shuffle_portable(magnitudes, f, out);
}

void bit_unshuffle(std::span<const byte_t> in, unsigned f,
                   std::span<std::uint32_t> magnitudes) {
  assert(f <= 32);
  assert(in.size() >=
         static_cast<size_t>(f) * div_ceil(magnitudes.size(), size_t{8}));
#if defined(__x86_64__)
  if (magnitudes.size() % 32 == 0 && cpu_features().avx2) {
    return bit_unshuffle_avx2(in, f, magnitudes);
  }
#endif
  detail::bit_unshuffle_portable(in, f, magnitudes);
}

namespace detail {

void bit_shuffle_portable(std::span<const std::uint32_t> magnitudes,
                          unsigned f, std::span<byte_t> out) {
  assert(f <= 32);
  const size_t n = magnitudes.size();
  const size_t groups = div_ceil(n, size_t{8});
  assert(out.size() >= static_cast<size_t>(f) * groups);
  Tile t;
  for (size_t base = 0; base < n; base += 32) {
    const size_t rows = std::min<size_t>(32, n - base);
    std::copy_n(magnitudes.data() + base, rows, t.begin());
    std::fill(t.begin() + static_cast<std::ptrdiff_t>(rows), t.end(), 0u);
    transpose32(t);
    const size_t nb = div_ceil(rows, size_t{8});
    byte_t* plane = out.data() + base / 8;
    for (unsigned k = 0; k < f; ++k, plane += groups) {
      // Full tiles copy a constant 4 bytes, one 32-bit store; a variable
      // count compiles to a memcpy call, about 20% of BB time at L = 32.
      if (nb == 4) {
        std::memcpy(plane, &t[k], 4);
      } else {
        std::memcpy(plane, &t[k], nb);
      }
    }
  }
}

void bit_unshuffle_portable(std::span<const byte_t> in, unsigned f,
                            std::span<std::uint32_t> magnitudes) {
  assert(f <= 32);
  const size_t n = magnitudes.size();
  const size_t groups = div_ceil(n, size_t{8});
  assert(in.size() >= static_cast<size_t>(f) * groups);
  Tile t;
  for (size_t base = 0; base < n; base += 32) {
    const size_t rows = std::min<size_t>(32, n - base);
    t.fill(0u);
    const size_t nb = div_ceil(rows, size_t{8});
    const byte_t* plane = in.data() + base / 8;
    for (unsigned k = 0; k < f; ++k, plane += groups) {
      if (nb == 4) {
        std::memcpy(&t[k], plane, 4);
      } else {
        std::memcpy(&t[k], plane, nb);
      }
    }
    // Bits of a partial tile's last byte past `rows` land in rows that
    // are not copied out.
    transpose32(t);
    std::copy_n(t.begin(), rows, magnitudes.data() + base);
  }
}

}  // namespace detail

void bit_pack(std::span<const std::uint32_t> magnitudes, unsigned f,
              std::span<byte_t> out) {
  assert(f <= 32);
  const size_t bytes =
      static_cast<size_t>(f) * div_ceil(magnitudes.size(), size_t{8});
  assert(out.size() >= bytes);
  const std::uint64_t mask = (std::uint64_t{1} << f) - 1;
  std::uint64_t acc = 0;  // pending bits, LSB-first
  unsigned pending = 0;
  size_t pos = 0;
  for (const std::uint32_t m : magnitudes) {
    acc |= (m & mask) << pending;
    pending += f;
    for (; pending >= 8; pending -= 8, acc >>= 8) {
      out[pos++] = static_cast<byte_t>(acc);
    }
  }
  if (pending > 0) out[pos++] = static_cast<byte_t>(acc);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(pos),
            out.begin() + static_cast<std::ptrdiff_t>(bytes), byte_t{0});
}

void bit_unpack(std::span<const byte_t> in, unsigned f,
                std::span<std::uint32_t> magnitudes) {
  assert(f <= 32);
  assert(in.size() >=
         static_cast<size_t>(f) * div_ceil(magnitudes.size(), size_t{8}));
  const std::uint64_t mask = (std::uint64_t{1} << f) - 1;
  std::uint64_t acc = 0;  // unread bits, LSB-first
  unsigned avail = 0;
  size_t pos = 0;
  for (auto& m : magnitudes) {
    for (; avail < f; avail += 8) {
      acc |= static_cast<std::uint64_t>(in[pos++]) << avail;
    }
    m = static_cast<std::uint32_t>(acc & mask);
    acc >>= f;
    avail -= f;
  }
}

}  // namespace szp::core
