// Random-access decompression (extension; enabled by cuSZp's design).
//
// Because every block is coded independently and offsets are a pure
// prefix sum of the per-block length bytes, any element range can be
// reconstructed by scanning only the 1-byte-per-block length array plus
// the payloads of the covered blocks — no full decompression. This is the
// access pattern post-hoc analysis needs (read one slice/region out of a
// compressed snapshot).
#pragma once

#include <span>
#include <vector>

#include "szp/core/format.hpp"

namespace szp::core {

/// Decompress elements [begin, end) of a cuSZp stream. Equivalent to
/// decompress_serial(stream)[begin..end) but touches only covered blocks.
/// Like decompress_serial, throws format_error on a stream of f64 data
/// (the f32 result could not honour the bound).
[[nodiscard]] std::vector<float> decompress_range(
    std::span<const byte_t> stream, size_t begin, size_t end);

/// Bytes of compressed payload that decompress_range would read for the
/// range (excluding the always-scanned length array) — for tests and for
/// sizing partial reads.
[[nodiscard]] size_t range_payload_bytes(std::span<const byte_t> stream,
                                         size_t begin, size_t end);

}  // namespace szp::core
