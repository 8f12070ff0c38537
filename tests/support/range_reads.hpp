// Test oracle for what a seeking range decode of a v2 cuSZp stream may
// read: the header, the footer, and the checksum groups covering the
// range (their length bytes and their payload). Computed from the
// stream's own header and footer, independently of the decoder.
#pragma once

#include <algorithm>
#include <span>

#include "szp/core/format.hpp"

namespace szp::testsupport {

inline size_t seek_read_bytes(std::span<const byte_t> stream, size_t begin,
                              size_t end) {
  using namespace core;
  const Header h = Header::deserialize(stream);
  const size_t nblocks = num_blocks(h.num_elements, h.block_len);
  const size_t gb = h.checksum_group_blocks;
  const size_t groups = num_checksum_groups(nblocks, gb);
  const size_t footer_bytes = ChecksumFooter::bytes_for(groups);
  const size_t footer_off = stream.size() - footer_bytes;
  const ChecksumFooter footer =
      ChecksumFooter::deserialize(stream.subspan(footer_off));
  const size_t first_block = begin / h.block_len;
  const size_t g_lo = first_block / gb;
  const size_t last_block =
      begin == end ? first_block : div_ceil(end, size_t{h.block_len});
  const size_t g_hi = begin == end ? g_lo : div_ceil(last_block, gb);
  const auto group_start = [&](size_t g) -> size_t {
    return g < groups ? footer.offsets[g]
                      : footer_off - payload_offset(nblocks);
  };
  const size_t length_bytes =
      std::min(nblocks, g_hi * gb) - std::min(nblocks, g_lo * gb);
  return Header::kSize + footer_bytes + length_bytes + group_start(g_hi) -
         group_start(g_lo);
}

}  // namespace szp::testsupport
