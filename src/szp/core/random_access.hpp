// Random-access decompression (extension; enabled by cuSZp's design).
//
// Every block is coded independently and its payload offset is a prefix
// sum of the per-block length bytes, so any element range can be
// reconstructed without decoding the rest. A v2 stream's footer already
// pins each checksum group's payload start, and the footer's position
// follows from the header alone (it is the last 16 + 12*G bytes). So a
// range decode seeks: it reads the header, the footer, and then only the
// checksum groups covering the range (their length bytes and payload),
// verifying each group's length bytes, its chain to the next group's
// footer offset, and its CRC before decoding. No part of the length
// array outside the covering groups is read. A v1 stream has no footer
// and is scanned from block 0 to the end of the range. This is the
// access pattern post-hoc analysis needs (read one slice/region out of a
// compressed snapshot).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "szp/core/format.hpp"

namespace szp::core {

/// Source of stream bytes [off, off + len). The decoder bounds-checks
/// every request against the stream size first; the returned span must
/// hold exactly `len` bytes and stay valid until the decode returns.
using StreamFetch =
    std::function<std::span<const byte_t>(size_t off, size_t len)>;

/// Decompress elements [begin, end) of a cuSZp stream. Equivalent to
/// decompress_serial(stream)[begin..end) but reads only the header, the
/// footer and the checksum groups covering the range, whose CRCs it
/// verifies. Like decompress_serial, throws format_error on a stream of
/// f64 data (the f32 result could not honour the bound).
[[nodiscard]] std::vector<float> decompress_range(
    std::span<const byte_t> stream, size_t begin, size_t end);

/// The same decode over a `stream_size`-byte stream read through `fetch`
/// (one fetch each for the header, the footer, the covering groups'
/// length bytes and their payload).
[[nodiscard]] std::vector<float> decompress_range(const StreamFetch& fetch,
                                                  size_t stream_size,
                                                  size_t begin, size_t end);

/// Bytes of compressed payload belonging to the blocks that cover the
/// range (excluding length bytes, header and footer, and the rest of the
/// covering checksum groups) — for tests and for sizing partial reads.
[[nodiscard]] size_t range_payload_bytes(std::span<const byte_t> stream,
                                         size_t begin, size_t end);

}  // namespace szp::core
