#include "szp/core/stages.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace szp::core {

namespace {
// Quantized magnitudes must leave headroom for the Lorenzo delta, whose
// magnitude can double: |r_i| <= 2^29 keeps |l_i| <= 2^30 < INT32_MAX.
constexpr std::int64_t kMaxQuantMagnitude = std::int64_t{1} << 29;
}  // namespace

namespace {

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
  if (!in_range) {
    throw format_error(
        "quantize: error bound too small for the data magnitude "
        "(quantization integer exceeds 2^29)");
  }
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

}  // namespace

void quantize(std::span<const float> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}
void quantize(std::span<const double> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}

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

}  // namespace

void split_signs(std::span<const std::int32_t> in,
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

void apply_signs(std::span<const std::uint32_t> magnitudes,
                 std::span<const byte_t> signs, std::span<std::int32_t> out) {
  assert(out.size() == magnitudes.size());
  const size_t n = out.size();
  for (size_t j = 0; j < div_ceil(n, size_t{8}); ++j) {
    apply_lanes(magnitudes.data() + 8 * j, signs[j], out.data() + 8 * j,
                std::min<size_t>(8, n - 8 * j));
  }
}

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

}  // namespace

void bit_shuffle(std::span<const std::uint32_t> magnitudes, unsigned f,
                 std::span<byte_t> out) {
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

void bit_unshuffle(std::span<const byte_t> in, unsigned f,
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
