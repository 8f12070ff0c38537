// Bit-granular writer/reader over a byte buffer: the bit-at-a-time oracle
// the word-level codec stages are tested against.
//
// Bits are packed LSB-first within each byte, which matches the layout the
// codecs in this repository use for sign maps and bit planes: bit `k` of
// byte `j` corresponds to element `8*j + k`.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "szp/util/common.hpp"

namespace szp {

/// Appends bit fields to a growing byte vector.
class BitWriter {
 public:
  BitWriter() = default;

  /// Append the low `nbits` bits of `value` (LSB first). nbits in [0, 64].
  void put(std::uint64_t value, unsigned nbits);

  /// Append a single bit.
  void put_bit(bool b) { put(b ? 1u : 0u, 1); }

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Number of bits written so far.
  [[nodiscard]] size_t bit_count() const { return bit_count_; }

  /// Finish (pads to a byte boundary) and take the buffer.
  [[nodiscard]] std::vector<byte_t> take() &&;

  /// Access the partially written buffer (excluding any pending bits).
  [[nodiscard]] const std::vector<byte_t>& bytes() const { return buf_; }

 private:
  std::vector<byte_t> buf_;
  std::uint64_t acc_ = 0;   // pending bits, LSB-first
  unsigned acc_bits_ = 0;   // number of pending bits in acc_
  size_t bit_count_ = 0;
};

/// Reads bit fields from a byte span. Throws `format_error` on overrun.
class BitReader {
 public:
  explicit BitReader(std::span<const byte_t> data) : data_(data) {}

  /// Read `nbits` bits (LSB first). nbits in [0, 64].
  [[nodiscard]] std::uint64_t get(unsigned nbits);

  [[nodiscard]] bool get_bit() { return get(1) != 0; }

  /// Skip to the next byte boundary.
  void align_to_byte();

  /// Bits consumed so far.
  [[nodiscard]] size_t bit_position() const { return pos_; }

  /// Bits remaining.
  [[nodiscard]] size_t bits_left() const { return data_.size() * 8 - pos_; }

 private:
  std::span<const byte_t> data_;
  size_t pos_ = 0;  // absolute bit position
};

inline void BitWriter::put(std::uint64_t value, unsigned nbits) {
  assert(nbits <= 64);
  if (nbits == 0) return;
  if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
  bit_count_ += nbits;
  while (nbits > 0) {
    const unsigned take = std::min(nbits, 64u - acc_bits_);
    acc_ |= (take == 64 ? value : (value & ((std::uint64_t{1} << take) - 1)))
            << acc_bits_;
    acc_bits_ += take;
    value = take == 64 ? 0 : value >> take;
    nbits -= take;
    while (acc_bits_ >= 8) {
      buf_.push_back(static_cast<byte_t>(acc_ & 0xffu));
      acc_ >>= 8;
      acc_bits_ -= 8;
    }
  }
}

inline void BitWriter::align_to_byte() {
  const unsigned rem = static_cast<unsigned>(bit_count_ % 8);
  if (rem != 0) put(0, 8 - rem);
}

inline std::vector<byte_t> BitWriter::take() && {
  align_to_byte();
  assert(acc_bits_ == 0);
  return std::move(buf_);
}

inline std::uint64_t BitReader::get(unsigned nbits) {
  // Corrupt container metadata can request absurd widths; reject instead
  // of asserting so Debug and Release agree on malformed input.
  if (nbits > 64) throw format_error("BitReader: invalid field width");
  if (nbits == 0) return 0;
  if (pos_ + nbits > data_.size() * 8) {
    throw format_error("BitReader: read past end of stream");
  }
  std::uint64_t out = 0;
  unsigned got = 0;
  while (got < nbits) {
    const size_t byte_idx = (pos_ + got) / 8;
    const unsigned bit_idx = static_cast<unsigned>((pos_ + got) % 8);
    const unsigned take = std::min(nbits - got, 8 - bit_idx);
    const std::uint64_t chunk =
        (static_cast<std::uint64_t>(data_[byte_idx]) >> bit_idx) &
        ((std::uint64_t{1} << take) - 1);
    out |= chunk << got;
    got += take;
  }
  pos_ += nbits;
  return out;
}

inline void BitReader::align_to_byte() {
  const size_t rem = pos_ % 8;
  if (rem != 0) pos_ += 8 - rem;
}

}  // namespace szp
