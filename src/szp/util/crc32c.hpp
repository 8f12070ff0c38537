// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by the stream-integrity footer. Chosen over CRC32 (zlib)
// because its error-detection properties are as good and CPUs compute it
// in hardware (the SSE4.2 / ARMv8 crc32c instructions).
//
// Convention matches the iSCSI / ext4 definition: initial state
// 0xFFFFFFFF, final XOR 0xFFFFFFFF. crc32c("123456789") == 0xE3069283.
#pragma once

#include <cstdint>
#include <span>

#include "szp/util/common.hpp"

namespace szp {

/// One-shot CRC32C of a byte span. On x86-64 CPUs with SSE4.2 this runs
/// the crc32 instruction (checked once per process); elsewhere it runs the
/// portable table code below.
[[nodiscard]] std::uint32_t crc32c(std::span<const byte_t> data);

namespace detail {
/// The portable slicing-by-4 table implementation, the fallback of
/// crc32c(); declared so tests can compare the two paths.
[[nodiscard]] std::uint32_t crc32c_portable(std::span<const byte_t> data);
}  // namespace detail

/// Streaming CRC32C for checksums spanning discontiguous regions (the
/// per-group stream checksum covers length bytes and payload bytes that
/// are not adjacent).
class Crc32c {
 public:
  void update(std::span<const byte_t> data);

  /// Finalized value; the accumulator can keep absorbing afterwards.
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace szp
