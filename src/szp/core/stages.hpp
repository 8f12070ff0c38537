// The four cuSZp pipeline stages as standalone, unit-testable functions
// operating on one block. The serial codec and the device kernels are both
// built from these, which is how we guarantee bit-identical output between
// the reference and the "GPU" path.
#pragma once

#include <cstdint>
#include <span>

#include "szp/util/common.hpp"

namespace szp::core {

// ---------------------------------------------------------------- QP ----

/// Pre-quantization (the only lossy step, §4.1): r_i = round(d_i / (2*eb)),
/// rounding half away from zero as std::llround does. Throws if a
/// quantized magnitude cannot be represented (eb too small for the data's
/// magnitude, or a NaN/Inf element). `out.size() == in.size()`. f32 and
/// f64 data are both supported (the quantization integers are int32
/// either way).
void quantize(std::span<const float> in, double eb_abs,
              std::span<std::int32_t> out);
void quantize(std::span<const double> in, double eb_abs,
              std::span<std::int32_t> out);

/// Inverse: d_i = r_i * 2*eb.
void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<float> out);
void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<double> out);

/// In-block 1D 1-layer Lorenzo: l_i = r_i - r_{i-1}, r_{-1} = 0 (§4.1).
/// Throws if a delta overflows 32 bits.
void lorenzo_forward(std::span<std::int32_t> r);

/// Inverse (prefix sum): r_i = sum_{j<=i} l_j.
void lorenzo_inverse(std::span<std::int32_t> l);

/// 2-layer variant (second difference, paper §4.1's "higher layers"):
/// l_i = r_i - 2 r_{i-1} + r_{i-2}. Throws if a second difference cannot
/// be represented in 32 bits.
void lorenzo2_forward(std::span<std::int32_t> r);
void lorenzo2_inverse(std::span<std::int32_t> l);

// ---------------------------------------------------------------- FE ----

/// Split signed integers into magnitudes and a sign bitmap (§4.2).
/// signs.size() == ceil(in.size()/8); bit e of byte j = sign of 8j+e
/// (1 = negative).
void split_signs(std::span<const std::int32_t> in,
                 std::span<std::uint32_t> magnitudes,
                 std::span<byte_t> signs);

/// Recombine magnitudes and the sign map.
void apply_signs(std::span<const std::uint32_t> magnitudes,
                 std::span<const byte_t> signs, std::span<std::int32_t> out);

/// Fixed length of a block: position of the highest set bit of the max
/// magnitude (0 for an all-zero block); at most 31.
[[nodiscard]] unsigned fixed_length_of(std::span<const std::uint32_t> magnitudes);

// ---------------------------------------------------------------- BB ----

/// Block bit-shuffle (§4.4): write F bit planes of `magnitudes` into
/// `out` (F * L/8 bytes). Plane k occupies L/8 bytes; byte j, bit e holds
/// bit k of element 8j+e. F <= 32 in all four BB functions; decoders
/// reject a larger F read from a stream before calling them.
void bit_shuffle(std::span<const std::uint32_t> magnitudes, unsigned f,
                 std::span<byte_t> out);

/// Inverse of bit_shuffle.
void bit_unshuffle(std::span<const byte_t> in, unsigned f,
                   std::span<std::uint32_t> magnitudes);

/// Direct (non-shuffled) packing for the BB ablation: F bits per element,
/// LSB-first, into F * L/8 bytes.
void bit_pack(std::span<const std::uint32_t> magnitudes, unsigned f,
              std::span<byte_t> out);
void bit_unpack(std::span<const byte_t> in, unsigned f,
                std::span<std::uint32_t> magnitudes);

namespace detail {
// The portable scalar bodies. On x86-64 CPUs with AVX2 (checked once per
// process, szp/util/cpu.hpp) the functions above run SIMD bodies instead:
// quantize on every span (the count's last n % 4 elements go through the
// scalar body), split_signs / apply_signs when n % 8 == 0, bit_shuffle /
// bit_unshuffle when n % 32 == 0; everything else runs these. Declared so
// tests can compare the two paths; both write the same bytes.
void quantize_portable(std::span<const float> in, double eb_abs,
                       std::span<std::int32_t> out);
void quantize_portable(std::span<const double> in, double eb_abs,
                       std::span<std::int32_t> out);
void split_signs_portable(std::span<const std::int32_t> in,
                          std::span<std::uint32_t> magnitudes,
                          std::span<byte_t> signs);
void apply_signs_portable(std::span<const std::uint32_t> magnitudes,
                          std::span<const byte_t> signs,
                          std::span<std::int32_t> out);
void bit_shuffle_portable(std::span<const std::uint32_t> magnitudes,
                          unsigned f, std::span<byte_t> out);
void bit_unshuffle_portable(std::span<const byte_t> in, unsigned f,
                            std::span<std::uint32_t> magnitudes);
}  // namespace detail

}  // namespace szp::core
