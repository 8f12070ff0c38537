#include "szp/core/format.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "szp/core/block_codec.hpp"
#include "szp/util/bytestream.hpp"
#include "szp/util/crc32c.hpp"

namespace szp::core {

void Params::validate() const {
  if (block_len == 0 || block_len % 8 != 0) {
    throw format_error("Params: block_len must be a positive multiple of 8");
  }
  if (error_bound <= 0) {
    throw format_error("Params: error_bound must be positive");
  }
  if (mode == ErrorMode::kRel && error_bound >= 1.0) {
    throw format_error("Params: REL error bound must be in (0, 1)");
  }
  if (lorenzo_layers < 1 || lorenzo_layers > 2) {
    throw format_error("Params: lorenzo_layers must be 1 or 2");
  }
  if (outlier_mode && block_len > 256) {
    throw format_error(
        "Params: outlier mode stores u8 in-block positions (L <= 256)");
  }
  if (checksum_group_blocks > 0xFFFF) {
    throw format_error("Params: checksum_group_blocks must fit in 16 bits");
  }
}

std::uint8_t Header::make_flags(const Params& p) {
  std::uint8_t f = 0;
  if (p.lorenzo) f |= 1u;
  if (p.zero_block_bypass) f |= 2u;
  if (p.bit_shuffle) f |= 4u;
  if (p.outlier_mode) f |= 16u;
  if (p.lorenzo && p.lorenzo_layers == 2) f |= 32u;
  return f;
}

Header Header::make(const Params& p, size_t num_elements, double eb_abs,
                    bool f64) {
  Header h;
  h.version = p.checksum_group_blocks > 0 ? kVersion : kVersionV1;
  h.num_elements = num_elements;
  h.eb_abs = eb_abs;
  h.block_len = static_cast<std::uint16_t>(p.block_len);
  h.flags = make_flags(p);
  if (f64) h.flags |= 8u;
  h.checksum_group_blocks = static_cast<std::uint16_t>(p.checksum_group_blocks);
  return h;
}

void Header::serialize(std::span<byte_t> out) const {
  if (out.size() < kSize) throw format_error("Header: buffer too small");
  ByteWriter w;
  w.put(kMagic);
  w.put(version);
  w.put(block_len);
  w.put(num_elements);
  w.put(eb_abs);
  w.put(flags);
  w.put(version >= 2 ? checksum_group_blocks : std::uint16_t{0});
  while (w.size() < kCrcOffset) w.put(byte_t{0});
  // v2 headers are self-checking; v1 keeps the old all-zero padding.
  if (version >= 2) {
    w.put(crc32c(std::span<const byte_t>(w.bytes()).first(kCrcOffset)));
  }
  while (w.size() < kSize) w.put(byte_t{0});
  const auto& bytes = w.bytes();
  std::copy(bytes.begin(), bytes.end(), out.begin());
}

Header Header::deserialize(std::span<const byte_t> in) {
  if (in.size() < kSize) throw format_error("Header: stream truncated");
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) {
    throw format_error("Header: bad magic");
  }
  Header h;
  h.version = r.get<std::uint16_t>();
  if (h.version != kVersionV1 && h.version != kVersion) {
    throw format_error("Header: unsupported version");
  }
  h.block_len = r.get<std::uint16_t>();
  h.num_elements = r.get<std::uint64_t>();
  h.eb_abs = r.get<double>();
  h.flags = r.get<std::uint8_t>();
  h.checksum_group_blocks = r.get<std::uint16_t>();
  if (h.version >= 2) {
    std::uint32_t stored;
    std::memcpy(&stored, in.data() + kCrcOffset, sizeof(stored));
    if (stored != crc32c(in.first(kCrcOffset))) {
      throw format_error("Header: checksum mismatch");
    }
  }
  if (h.block_len == 0 || h.block_len % 8 != 0) {
    throw format_error("Header: invalid block length");
  }
  // num_blocks() computes div_ceil(n, L) = (n + L - 1) / L; a hostile
  // element count near 2^64 would wrap that sum and sail past every
  // downstream truncation check.
  if (h.num_elements >
      std::numeric_limits<std::uint64_t>::max() - h.block_len) {
    throw format_error("Header: element count overflow");
  }
  if (h.eb_abs <= 0) throw format_error("Header: invalid error bound");
  if (h.version >= 2 && h.checksum_group_blocks == 0) {
    throw format_error("Header: invalid checksum group size");
  }
  if (h.version < 2) h.checksum_group_blocks = 0;
  return h;
}

double resolve_eb(const Params& p, double value_range) {
  p.validate();
  if (p.mode == ErrorMode::kAbs) return p.error_bound;
  const double eb = p.error_bound * value_range;
  if (eb <= 0) {
    // Constant dataset under REL: any positive bound reproduces it exactly.
    return p.error_bound > 0 ? p.error_bound : 1e-30;
  }
  return eb;
}

// ------------------------------------------------- integrity footer ----

void ChecksumFooter::serialize(std::span<byte_t> out) const {
  if (out.size() < bytes()) {
    throw format_error("ChecksumFooter: buffer too small");
  }
  ByteWriter w;
  w.put(kMagic);
  w.put(group_blocks);
  w.put(checked_cast<std::uint32_t>(crcs.size()));
  for (size_t g = 0; g < crcs.size(); ++g) {
    w.put(offsets[g]);
    w.put(crcs[g]);
  }
  w.put(crc32c(w.bytes()));
  const auto& b = w.bytes();
  std::copy(b.begin(), b.end(), out.begin());
}

ChecksumFooterView::ChecksumFooterView(std::span<const byte_t> in) {
  if (in.size() < ChecksumFooter::kFixedBytes) {
    throw format_error("ChecksumFooter: truncated");
  }
  ByteReader r(in);
  if (r.get<std::uint32_t>() != ChecksumFooter::kMagic) {
    throw format_error("ChecksumFooter: bad magic");
  }
  group_blocks_ = r.get<std::uint32_t>();
  groups_ = r.get<std::uint32_t>();
  const size_t total = ChecksumFooter::bytes_for(groups_);
  if (in.size() < total) throw format_error("ChecksumFooter: truncated");
  std::uint32_t stored;
  std::memcpy(&stored, in.data() + total - 4, sizeof(stored));
  if (stored != crc32c(in.first(total - 4))) {
    throw format_error("ChecksumFooter: footer checksum mismatch");
  }
  if (group_blocks_ == 0 && groups_ != 0) {
    throw format_error("ChecksumFooter: zero group size with groups present");
  }
  bytes_ = in.first(total);
}

namespace {
/// Footer byte of entry g's payload offset; its CRC follows 8 bytes on.
size_t footer_entry_at(size_t g) {
  return 12 + ChecksumFooter::kEntryBytes * g;
}
}  // namespace

std::uint64_t ChecksumFooterView::offset(size_t g) const {
  std::uint64_t v;
  std::memcpy(&v, bytes_.data() + footer_entry_at(g), sizeof(v));
  return v;
}

std::uint32_t ChecksumFooterView::crc(size_t g) const {
  std::uint32_t v;
  std::memcpy(&v, bytes_.data() + footer_entry_at(g) + 8, sizeof(v));
  return v;
}

ChecksumFooter ChecksumFooter::deserialize(std::span<const byte_t> in) {
  const ChecksumFooterView view(in);
  ChecksumFooter f;
  f.group_blocks = view.group_blocks();
  f.offsets.reserve(view.groups());
  f.crcs.reserve(view.groups());
  for (size_t g = 0; g < view.groups(); ++g) {
    f.offsets.push_back(view.offset(g));
    f.crcs.push_back(view.crc(g));
  }
  return f;
}

std::vector<GroupSpan> checksum_group_spans(std::span<const byte_t> stream,
                                            const Header& h,
                                            unsigned group_blocks) {
  const auto lengths = length_bytes(stream, h);
  const size_t nblocks = lengths.size();
  const size_t groups = num_checksum_groups(nblocks, group_blocks);
  std::vector<GroupSpan> spans(groups);
  size_t off = payload_offset(nblocks);
  for (size_t g = 0; g < groups; ++g) {
    GroupSpan& s = spans[g];
    s.first_block = g * group_blocks;
    s.last_block = std::min(nblocks, s.first_block + group_blocks);
    s.payload_begin = off;
    off += scan_lengths(lengths, h, s.first_block, s.last_block,
                        stream.size() - off)
               .checked("checksum_group_spans");
    s.payload_end = off;
  }
  return spans;
}

std::uint32_t checksum_group_crc(std::span<const byte_t> lengths,
                                 std::span<const byte_t> payload) {
  Crc32c crc;
  crc.update(lengths);
  crc.update(payload);
  return crc.value();
}

StreamStats inspect_stream(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  StreamStats s;
  s.version = h.version;
  s.num_blocks = num_blocks(h.num_elements, h.block_len);
  if (stream.size() < payload_offset(s.num_blocks)) {
    throw format_error("inspect_stream: truncated length area");
  }
  double f_sum = 0;
  for (size_t b = 0; b < s.num_blocks; ++b) {
    const std::uint8_t lb = stream[lengths_offset() + b];
    if (!valid_length_byte(lb)) {
      throw format_error("inspect_stream: invalid length byte");
    }
    if (lb == 0) {
      ++s.zero_blocks;
    } else if (lb >= kOutlierFlag) {
      ++s.outlier_blocks;
      f_sum += lb - kOutlierFlag;
    } else {
      f_sum += lb;
    }
    s.payload_bytes += block_payload_bytes(lb, h.block_len,
                                           h.zero_block_bypass());
  }
  if (h.checksummed()) {
    const size_t footer_off = payload_offset(s.num_blocks) + s.payload_bytes;
    if (footer_off > stream.size()) {
      throw format_error("inspect_stream: truncated payload");
    }
    const ChecksumFooter footer =
        ChecksumFooter::deserialize(stream.subspan(footer_off));
    s.footer_bytes = footer.bytes();
    s.checksum_groups = footer.crcs.size();
  }
  const size_t nonzero = s.num_blocks - s.zero_blocks;
  s.mean_fixed_length = nonzero > 0 ? f_sum / static_cast<double>(nonzero) : 0;
  return s;
}

}  // namespace szp::core
