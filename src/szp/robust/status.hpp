// Structured decode outcomes for the fault-tolerant ("try_") API.
//
// The throwing decoders treat any defect as fatal; this module instead
// reports what is wrong, where, and what could still be recovered. Kept
// free of other szp headers so the core public API can expose try_
// entry points without a dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace szp::robust {

/// What a no-throw decode (or a stream verification) concluded.
enum class Status : std::uint8_t {
  kOk = 0,
  kTruncated,            // stream shorter than its own accounting implies
  kBadMagic,             // not a cuSZp stream
  kUnsupportedVersion,   // version the library does not know
  kHeaderCorrupt,        // v2 header CRC mismatch
  kBadHeaderField,       // header parses but a field is invalid
  kTypeMismatch,         // f32 requested from an f64 stream or vice versa
  kBadLengthByte,        // a length byte no encoder can produce
  kFooterMissing,        // v2 stream whose checksum footer is unusable
  kChecksumMismatch,     // one or more group CRCs failed
  kSizeMismatch,         // stream extents disagree with the header or footer
  kInternalError,        // unexpected failure (never expected; reported,
                         // not thrown)
};

[[nodiscard]] const char* to_string(Status s);

/// Half-open range of data blocks whose content could not be recovered
/// (their elements are zero-filled in salvaged output).
struct CorruptRange {
  std::size_t first_block = 0;
  std::size_t last_block = 0;  // exclusive

  friend bool operator==(const CorruptRange&, const CorruptRange&) = default;
};

/// Per-checksum-group verdict (populated when DecodeOptions::want_groups).
struct GroupReport {
  std::size_t index = 0;
  std::size_t first_block = 0;
  std::size_t last_block = 0;  // exclusive
  bool ok = false;
};

/// Result of try_decompress / verify_stream. `status` is kOk only when
/// every byte checked out; a salvaged decode keeps the first defect's
/// status and lists exactly which blocks were lost.
struct DecodeReport {
  Status status = Status::kOk;
  bool checksummed = false;  // stream carries a v2 footer
  bool salvaged = false;     // output contains partially recovered data
  std::size_t num_elements = 0;
  std::size_t num_blocks = 0;
  std::size_t groups_total = 0;
  std::size_t groups_bad = 0;
  std::vector<CorruptRange> corrupt_blocks;  // merged, ascending
  std::vector<GroupReport> groups;           // only when want_groups
  std::string detail;                        // human-readable context

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  [[nodiscard]] std::size_t corrupt_block_count() const {
    std::size_t c = 0;
    for (const auto& r : corrupt_blocks) c += r.last_block - r.first_block;
    return c;
  }
};

struct DecodeOptions {
  /// Recover what the checksums vouch for and zero-fill the rest. When
  /// false, any defect leaves the output empty.
  bool salvage = true;
  /// Populate DecodeReport::groups (used by the szp_verify tool).
  bool want_groups = false;
};

}  // namespace szp::robust
