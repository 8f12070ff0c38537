// cuSZp compressed-stream format and codec parameters (paper Fig. 12).
//
// Stream layout (format v2):
//   [Header]                          32 bytes, CRC32C-protected
//   [fixed-length byte per block]     num_blocks bytes (0 => zero block)
//   [payload]                         per non-zero block, at its prefix-sum
//                                     offset: sign map (L/8 bytes) followed
//                                     by F_k bit planes (L/8 bytes each)
//   [checksum footer]                 per-group CRC32C over length bytes
//                                     and payload (v2 streams only)
//
// Payload offsets are not stored: both directions recompute them with the
// same prefix sum over CmpL_k = (F_k + 1) * L / 8 (Eq. 2), exactly as the
// paper's Global Synchronization does. The footer additionally records
// each checksum group's payload start, so a range decoder can seek to the
// groups it needs and a salvage decoder can re-align after a corrupt
// group instead of losing everything downstream. A v2 stream ends at its
// footer.
//
// v1 streams (no header CRC, no footer) decode unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "szp/util/common.hpp"

namespace szp::core {

/// Error-bound mode (paper §2.1): ABS uses `error_bound` directly; REL
/// multiplies it by the dataset's value range.
enum class ErrorMode : std::uint8_t { kAbs = 0, kRel = 1 };

/// Prefix-sum implementation used by the device codec (ablation knob).
enum class ScanAlgo : std::uint8_t { kChained = 0, kTwoPass = 1 };

/// Blocks covered by one integrity checksum (format v2 footer).
inline constexpr unsigned kChecksumGroupBlocks = 256;

struct Params {
  ErrorMode mode = ErrorMode::kRel;
  double error_bound = 1e-3;  // ABS bound, or REL ratio in (0,1)
  unsigned block_len = 32;    // L; must be a positive multiple of 8
  bool lorenzo = true;        // 1D Lorenzo prediction (paper §4.1)
  unsigned lorenzo_layers = 1;  // 1 (the paper's choice) or 2 (ablation)
  bool zero_block_bypass = true;  // record all-zero blocks as F=0 (§4.2)
  bool bit_shuffle = true;        // block bit-shuffle vs direct packing (§4.4)
  bool outlier_mode = false;      // outlier-tolerant fixed length (extension;
                                  // the cuSZp2 follow-on direction)
  ScanAlgo scan = ScanAlgo::kChained;
  unsigned checksum_group_blocks = kChecksumGroupBlocks;
  // ^ blocks per integrity checksum group; 0 emits a legacy v1 stream
  //   without the checksum footer.

  void validate() const;
};

/// Fixed-size stream header. `eb_abs` is the *resolved* absolute bound, so
/// decompression never needs the original value range. Version-2 headers
/// carry a CRC32C of their first 28 bytes in the last 4; version-1 headers
/// (pre-integrity streams) leave those bytes zero and are still accepted.
struct Header {
  static constexpr std::uint32_t kMagic = 0x70355A53;  // "SZ5p"
  static constexpr std::uint16_t kVersion = 2;
  static constexpr std::uint16_t kVersionV1 = 1;

  std::uint16_t version = kVersion;
  std::uint64_t num_elements = 0;
  double eb_abs = 0;
  std::uint16_t block_len = 32;
  std::uint8_t flags = 0;  // bit0 lorenzo, bit1 zero-bypass, bit2 shuffle,
                           // bit3 f64 source data, bit4 outlier mode,
                           // bit5 two-layer Lorenzo
  std::uint16_t checksum_group_blocks = kChecksumGroupBlocks;
  // ^ blocks per checksum group of the v2 footer; 0 on v1 streams. Kept in
  //   the header so a decoder knows the group layout before it reaches the
  //   footer (the single-kernel device decoder needs it up front).

  static constexpr size_t kSize = 32;
  static constexpr size_t kCrcOffset = 28;  // CRC32C over bytes [0, 28)

  [[nodiscard]] bool lorenzo() const { return (flags & 1u) != 0; }
  [[nodiscard]] bool zero_block_bypass() const { return (flags & 2u) != 0; }
  [[nodiscard]] bool bit_shuffle() const { return (flags & 4u) != 0; }
  [[nodiscard]] bool is_f64() const { return (flags & 8u) != 0; }
  [[nodiscard]] bool outlier_mode() const { return (flags & 16u) != 0; }
  [[nodiscard]] bool lorenzo2() const { return (flags & 32u) != 0; }
  [[nodiscard]] bool checksummed() const { return version >= 2; }

  static std::uint8_t make_flags(const Params& p);

  /// The one place a stream header is built from codec parameters: picks
  /// the format version from the checksum configuration, encodes the
  /// feature flags and records the resolved absolute bound. Every backend
  /// (serial, parallel-host, device) goes through this factory so the
  /// stream prefix is identical by construction.
  [[nodiscard]] static Header make(const Params& p, size_t num_elements,
                                   double eb_abs, bool f64);

  void serialize(std::span<byte_t> out) const;  // out.size() >= kSize
  [[nodiscard]] static Header deserialize(std::span<const byte_t> in);
};

/// Resolve the absolute error bound for a dataset (REL needs its range).
[[nodiscard]] double resolve_eb(const Params& p, double value_range);

/// Number of L-element blocks covering n elements.
[[nodiscard]] inline size_t num_blocks(size_t n, unsigned block_len) {
  return div_ceil(n, static_cast<size_t>(block_len));
}

/// Compressed bytes of a block with fixed length F (Eq. 2). With the
/// zero-block bypass (the paper's design) an all-zero block costs nothing
/// beyond its length byte; with the bypass disabled (ablation) it still
/// stores its sign map.
[[nodiscard]] inline size_t block_cmp_bytes(unsigned f, unsigned block_len,
                                            bool zero_bypass = true) {
  if (f == 0 && zero_bypass) return 0;
  return static_cast<size_t>(f + 1) * block_len / 8;
}

/// Offset of the per-block fixed-length byte array in the stream.
[[nodiscard]] inline size_t lengths_offset() { return Header::kSize; }

/// Offset of the payload area.
[[nodiscard]] inline size_t payload_offset(size_t nblocks) {
  return Header::kSize + nblocks;
}

// ------------------------------------------------- integrity footer ----

/// Checksum groups covering `nblocks` blocks (0 when checksums are off).
[[nodiscard]] inline size_t num_checksum_groups(size_t nblocks,
                                                unsigned group_blocks) {
  if (group_blocks == 0) return 0;
  return div_ceil(nblocks, static_cast<size_t>(group_blocks));
}

/// v2 checksum footer, appended after the payload area:
///   0        4    magic "SZ5C"
///   4        4    u32 blocks per group
///   8        4    u32 group count G
///   12       12*G per group: u64 payload start (relative to the payload
///                 area) + u32 CRC32C over the group's length bytes
///                 followed by its payload bytes
///   12+12*G  4    u32 CRC32C of footer bytes [0, 12+12*G)
struct ChecksumFooter {
  static constexpr std::uint32_t kMagic = 0x43355A53;  // "SZ5C"
  static constexpr size_t kFixedBytes = 16;
  static constexpr size_t kEntryBytes = 12;

  std::uint32_t group_blocks = kChecksumGroupBlocks;
  std::vector<std::uint64_t> offsets;  // payload-relative group starts
  std::vector<std::uint32_t> crcs;     // one CRC32C per group

  [[nodiscard]] static constexpr size_t bytes_for(size_t groups) {
    return kFixedBytes + kEntryBytes * groups;
  }
  [[nodiscard]] size_t bytes() const { return bytes_for(crcs.size()); }

  void serialize(std::span<byte_t> out) const;  // out.size() >= bytes()
  /// Parses and self-CRC-verifies a footer at the start of `in`; throws
  /// format_error on truncation, bad magic, or checksum mismatch.
  [[nodiscard]] static ChecksumFooter deserialize(std::span<const byte_t> in);
};

/// A footer checked in place: the construction runs deserialize's checks
/// (length, magic, self-CRC), and entries are then read from the bytes on
/// demand, so a range decode reads only the groups it covers. The view
/// does not own `in`, which must outlive it.
class ChecksumFooterView {
 public:
  /// Throws format_error as ChecksumFooter::deserialize does.
  explicit ChecksumFooterView(std::span<const byte_t> in);

  [[nodiscard]] std::uint32_t group_blocks() const { return group_blocks_; }
  [[nodiscard]] size_t groups() const { return groups_; }
  /// Entry g < groups(): payload-relative start and CRC of group g.
  [[nodiscard]] std::uint64_t offset(size_t g) const;
  [[nodiscard]] std::uint32_t crc(size_t g) const;

 private:
  std::span<const byte_t> bytes_;
  std::uint32_t group_blocks_ = 0;
  size_t groups_ = 0;
};

/// Byte extents of one checksum group within a laid-out stream.
struct GroupSpan {
  size_t first_block = 0, last_block = 0;      // block indices [first, last)
  size_t payload_begin = 0, payload_end = 0;   // absolute stream offsets

  /// The group's length bytes and its payload bytes within `stream`.
  [[nodiscard]] std::span<const byte_t> lengths_in(
      std::span<const byte_t> stream) const {
    return stream.subspan(lengths_offset() + first_block,
                          last_block - first_block);
  }
  [[nodiscard]] std::span<const byte_t> payload_in(
      std::span<const byte_t> stream) const {
    return stream.subspan(payload_begin, payload_end - payload_begin);
  }
};

/// Partition a stream's blocks into checksum groups, validating every
/// length byte and that the payload fits inside `stream`. Throws
/// format_error on truncation or invalid length bytes.
[[nodiscard]] std::vector<GroupSpan> checksum_group_spans(
    std::span<const byte_t> stream, const Header& h, unsigned group_blocks);

/// CRC32C of one group: its length bytes followed by its payload bytes.
[[nodiscard]] std::uint32_t checksum_group_crc(std::span<const byte_t> lengths,
                                               std::span<const byte_t> payload);

/// Summary of a compressed stream, for tests and benches.
struct StreamStats {
  std::uint16_t version = 0;
  size_t num_blocks = 0;
  size_t zero_blocks = 0;
  size_t outlier_blocks = 0;
  size_t payload_bytes = 0;
  size_t footer_bytes = 0;       // 0 for v1 streams
  size_t checksum_groups = 0;    // 0 for v1 streams
  double mean_fixed_length = 0;  // over non-zero blocks
};
[[nodiscard]] StreamStats inspect_stream(std::span<const byte_t> stream);

}  // namespace szp::core
