// Shared per-block encoder/decoder used by both the serial reference and
// the device kernels (which is how byte-identical output between the two
// paths is guaranteed by construction).
//
// Includes the outlier-tolerant fixed-length extension (the cuSZp2
// follow-on direction of the paper's future work): when one element of a
// block forces a much larger fixed length than the rest, that element's
// magnitude is stored verbatim and the block is coded with the fixed
// length of the remaining elements. Length-byte semantics:
//   0..32        -> normal block with F = value (0 = zero block)
//   64 + (0..32) -> outlier block: F covers all elements except one,
//                   whose (position, magnitude) follows the bit planes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "szp/core/format.hpp"

namespace szp::core {

inline constexpr std::uint8_t kOutlierFlag = 64;
inline constexpr size_t kOutlierExtraBytes = 1 + 4;  // u8 position + u32 mag
inline constexpr unsigned kMaxFixedLength = 32;

/// A length byte an encoder can legally produce: F in 0..32 plain, or
/// kOutlierFlag + F for outlier blocks. Decoders must reject anything
/// else (a corrupt length byte would otherwise drive out-of-range bit
/// shifts in the plane codecs).
[[nodiscard]] inline bool valid_length_byte(std::uint8_t lb) {
  if (lb <= kMaxFixedLength) return true;
  return lb >= kOutlierFlag && lb <= kOutlierFlag + kMaxFixedLength;
}

/// Compressed bytes of a block from its length byte (supersedes
/// block_cmp_bytes for streams that may contain outlier blocks).
[[nodiscard]] inline size_t block_payload_bytes(std::uint8_t length_byte,
                                                unsigned block_len,
                                                bool zero_bypass) {
  if (length_byte >= kOutlierFlag) {
    const unsigned f = length_byte - kOutlierFlag;
    return static_cast<size_t>(f + 1) * block_len / 8 + kOutlierExtraBytes;
  }
  return block_cmp_bytes(length_byte, block_len, zero_bypass);
}

/// Reusable per-block scratch (one per lane / per worker).
struct BlockScratch {
  std::vector<std::int32_t> quant;
  std::vector<std::uint32_t> mags;
  std::vector<byte_t> signs;
  // Outlier bookkeeping (valid when the encoded length byte has
  // kOutlierFlag set).
  unsigned outlier_pos = 0;
  std::uint32_t outlier_mag = 0;
};

/// Quantize + predict + select the fixed length for one block of `len`
/// valid elements starting at data[block*L] (tail padded with zeros).
/// Returns the length byte and fills `scratch`. Works for f32/f64.
template <typename T>
[[nodiscard]] std::uint8_t encode_block(std::span<const T> data, size_t n,
                                        size_t block, unsigned L, double eb,
                                        const Params& params,
                                        BlockScratch& scratch, size_t& elems);

/// Payload size for an encoded block.
[[nodiscard]] size_t encoded_block_bytes(std::uint8_t length_byte, unsigned L,
                                         const Params& params);

/// Serialize one encoded block's payload into `dst` (sized by
/// encoded_block_bytes; zero for zero blocks).
void write_block_payload(const BlockScratch& scratch, std::uint8_t length_byte,
                         unsigned L, bool shuffle, std::span<byte_t> dst);

/// Decode one block's payload back into quantization integers (without
/// the Lorenzo inverse / dequantization).
void read_block_payload(std::span<const byte_t> src, std::uint8_t length_byte,
                        unsigned L, bool shuffle, BlockScratch& scratch);

// Every decoder locates payloads with scan_lengths and rebuilds values
// with reconstruct_block, so no two can disagree on what a stream means.

/// The per-block length bytes of `stream`; throws format_error if the
/// stream is shorter than its length area.
[[nodiscard]] std::span<const byte_t> length_bytes(
    std::span<const byte_t> stream, const Header& h);

/// Outcome of a length-byte scan over blocks [first, last).
struct LengthScan {
  size_t end = 0;            // first block not scanned (== last if complete)
  size_t bytes = 0;          // payload bytes of blocks [first, end)
  bool bad_byte = false;     // stopped at an invalid length byte
  bool over_budget = false;  // stopped where the payload overran the budget

  /// `bytes`, or format_error prefixed with `who` if the scan stopped.
  [[nodiscard]] size_t checked(const std::string& who) const;
};

/// Prefix sum of payload bytes over blocks [first, last) of `lengths`,
/// stopping before the first invalid length byte or before the block
/// whose payload would take the total past `budget`.
[[nodiscard]] LengthScan scan_lengths(
    std::span<const byte_t> lengths, const Header& h, size_t first,
    size_t last, size_t budget = static_cast<size_t>(-1));

/// Lorenzo inverse (as the header's flags say) over a whole block of
/// quantization integers, then dequantize elements [skip, skip+out.size())
/// into `out`.
template <typename T>
void reconstruct_block(const Header& h, std::span<std::int32_t> quant,
                       size_t skip, std::span<T> out);

/// Decode the blocks [first, first + lengths.size()) whose length bytes
/// are `lengths` (already validated by a scan) and whose payloads start at
/// payload[0]. Only elements inside the window [window, window +
/// out.size()) are written, to out[element - window]; zero blocks write
/// zeros.
template <typename T>
void decode_blocks(const Header& h, size_t first,
                   std::span<const byte_t> lengths,
                   std::span<const byte_t> payload, size_t window,
                   std::span<T> out, BlockScratch& scratch);

}  // namespace szp::core
