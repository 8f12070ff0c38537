#include "szp/core/block_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "szp/core/stages.hpp"
#include "szp/obs/hostprof/hostprof.hpp"
#include "szp/obs/metrics.hpp"

namespace szp::core {

namespace {

/// Index of the largest magnitude and the bit width of the largest
/// magnitude among the *other* elements.
struct OutlierScan {
  unsigned max_pos = 0;
  std::uint32_t max_mag = 0;
  unsigned rest_width = 0;
};

OutlierScan scan_outlier(std::span<const std::uint32_t> mags) {
  OutlierScan s;
  for (unsigned i = 0; i < mags.size(); ++i) {
    if (mags[i] > s.max_mag) {
      s.max_mag = mags[i];
      s.max_pos = i;
    }
  }
  std::uint32_t rest = 0;
  for (unsigned i = 0; i < mags.size(); ++i) {
    if (i != s.max_pos) rest |= mags[i];
  }
  s.rest_width = static_cast<unsigned>(std::bit_width(rest));
  return s;
}

/// Domain metrics for one encoded block: the F_k bit-width distribution
/// and the zero-block ratio (paper §4.2's compressibility story). Both
/// the serial reference and the device kernels encode through here, so
/// every compression path reports. One branch when collection is off.
void record_encode_metrics(std::uint8_t lb) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static auto& fk = reg.histogram(
      "szp.encode.fk", obs::Histogram::linear_bounds(0.0, 33.0, 33));
  static auto& blocks = reg.counter("szp.encode.blocks");
  static auto& zeros = reg.counter("szp.encode.zero_blocks");
  static auto& outliers = reg.counter("szp.encode.outlier_blocks");
  const unsigned f = lb >= kOutlierFlag ? lb - kOutlierFlag : lb;
  fk.observe(static_cast<double>(f));
  blocks.add();
  if (lb == 0) zeros.add();
  if (lb >= kOutlierFlag) outliers.add();
}

}  // namespace

template <typename T>
std::uint8_t encode_block(std::span<const T> data, size_t n, size_t block,
                          unsigned L, double eb, const Params& params,
                          BlockScratch& scratch, size_t& elems) {
  // QP = load + quantize + Lorenzo predict; FE = sign split, bit-width
  // scan, outlier scan. The split timer closes FE at whichever return
  // fires, so both exits are attributed.
  obs::hostprof::SplitTimer stage(obs::hostprof::Bucket::kQP);
  const size_t begin = block * L;
  const size_t len = std::min<size_t>(L, n - begin);
  elems = len;
  scratch.quant.resize(L);
  scratch.mags.resize(L);
  scratch.signs.resize(L / 8);
  // A tail block's padding elements are zeros, which quantize to 0.
  const std::span<std::int32_t> quant(scratch.quant);
  quantize(data.subspan(begin, len), eb, quant.first(len));
  std::fill(quant.begin() + static_cast<std::ptrdiff_t>(len), quant.end(), 0);
  if (params.lorenzo) {
    if (params.lorenzo_layers == 2) {
      lorenzo2_forward(scratch.quant);
    } else {
      lorenzo_forward(scratch.quant);
    }
  }
  stage.split(obs::hostprof::Bucket::kFE);
  split_signs(scratch.quant, scratch.mags, scratch.signs);
  const unsigned f_all = fixed_length_of(scratch.mags);

  if (params.outlier_mode && f_all > 0) {
    const OutlierScan s = scan_outlier(scratch.mags);
    // Worth it iff the saved bit planes outweigh the 5-byte side record.
    const size_t saved =
        static_cast<size_t>(f_all - s.rest_width) * L / 8;
    if (saved > kOutlierExtraBytes) {
      scratch.outlier_pos = s.max_pos;
      scratch.outlier_mag = s.max_mag;
      scratch.mags[s.max_pos] = 0;  // excluded from the bit planes
      const auto lb = static_cast<std::uint8_t>(kOutlierFlag + s.rest_width);
      record_encode_metrics(lb);
      return lb;
    }
  }
  const auto lb = static_cast<std::uint8_t>(f_all);
  record_encode_metrics(lb);
  return lb;
}

template std::uint8_t encode_block<float>(std::span<const float>, size_t,
                                          size_t, unsigned, double,
                                          const Params&, BlockScratch&,
                                          size_t&);
template std::uint8_t encode_block<double>(std::span<const double>, size_t,
                                           size_t, unsigned, double,
                                           const Params&, BlockScratch&,
                                           size_t&);

size_t encoded_block_bytes(std::uint8_t length_byte, unsigned L,
                           const Params& params) {
  return block_payload_bytes(length_byte, L, params.zero_block_bypass);
}

void write_block_payload(const BlockScratch& scratch, std::uint8_t length_byte,
                         unsigned L, bool shuffle, std::span<byte_t> dst) {
  const size_t groups = L / 8;
  const bool outlier = length_byte >= kOutlierFlag;
  const unsigned f = outlier ? length_byte - kOutlierFlag : length_byte;
  if (dst.empty()) return;  // zero block with bypass
  std::copy(scratch.signs.begin(), scratch.signs.end(), dst.begin());
  if (f > 0) {
    const std::span<byte_t> planes = dst.subspan(groups, f * groups);
    if (shuffle) {
      bit_shuffle(scratch.mags, f, planes);
    } else {
      bit_pack(scratch.mags, f, planes);
    }
  }
  if (outlier) {
    byte_t* tail = dst.data() + groups + static_cast<size_t>(f) * groups;
    tail[0] = static_cast<byte_t>(scratch.outlier_pos);
    std::memcpy(tail + 1, &scratch.outlier_mag, sizeof(std::uint32_t));
  }
}

void read_block_payload(std::span<const byte_t> src, std::uint8_t length_byte,
                        unsigned L, bool shuffle, BlockScratch& scratch) {
  const size_t groups = L / 8;
  const bool outlier = length_byte >= kOutlierFlag;
  const unsigned f = outlier ? length_byte - kOutlierFlag : length_byte;
  scratch.mags.resize(L);
  scratch.quant.resize(L);
  if (src.empty()) {  // zero block
    std::fill(scratch.quant.begin(), scratch.quant.end(), 0);
    return;
  }
  if (f > 0) {
    const std::span<const byte_t> planes = src.subspan(groups, f * groups);
    if (shuffle) {
      bit_unshuffle(planes, f, scratch.mags);
    } else {
      bit_unpack(planes, f, scratch.mags);
    }
  } else {
    std::fill(scratch.mags.begin(), scratch.mags.end(), 0u);
  }
  if (outlier) {
    const byte_t* tail = src.data() + groups + static_cast<size_t>(f) * groups;
    const unsigned pos = tail[0];
    std::uint32_t mag;
    std::memcpy(&mag, tail + 1, sizeof(std::uint32_t));
    if (pos >= L) throw format_error("outlier position out of range");
    scratch.mags[pos] = mag;
  }
  apply_signs(scratch.mags, src.first(groups), scratch.quant);
}

std::span<const byte_t> length_bytes(std::span<const byte_t> stream,
                                     const Header& h) {
  const size_t nblocks = num_blocks(h.num_elements, h.block_len);
  if (stream.size() < payload_offset(nblocks)) {
    throw format_error("truncated length area");
  }
  return stream.subspan(lengths_offset(), nblocks);
}

size_t LengthScan::checked(const std::string& who) const {
  if (bad_byte) throw format_error(who + ": invalid length byte");
  if (over_budget) throw format_error(who + ": truncated payload");
  return bytes;
}

LengthScan scan_lengths(std::span<const byte_t> lengths, const Header& h,
                        size_t first, size_t last, size_t budget) {
  LengthScan s;
  for (s.end = first; s.end < last; ++s.end) {
    const std::uint8_t lb = lengths[s.end];
    if (!valid_length_byte(lb)) {
      s.bad_byte = true;
      break;
    }
    const size_t cl = block_payload_bytes(lb, h.block_len,
                                          h.zero_block_bypass());
    if (cl > budget - s.bytes) {
      s.over_budget = true;
      break;
    }
    s.bytes += cl;
  }
  return s;
}

template <typename T>
void reconstruct_block(const Header& h, std::span<std::int32_t> quant,
                       size_t skip, std::span<T> out) {
  // Two-layer Lorenzo is honoured only under the Lorenzo flag, as encoded.
  if (h.lorenzo()) {
    if (h.lorenzo2()) {
      lorenzo2_inverse(quant);
    } else {
      lorenzo_inverse(quant);
    }
  }
  dequantize(quant.subspan(skip, out.size()), h.eb_abs, out);
}

template <typename T>
void decode_blocks(const Header& h, size_t first,
                   std::span<const byte_t> lengths,
                   std::span<const byte_t> payload, size_t window,
                   std::span<T> out, BlockScratch& scratch) {
  const unsigned L = h.block_len;
  size_t pos = 0;
  for (size_t i = 0; i < lengths.size(); ++i) {
    const size_t b = first + i;
    const std::uint8_t lb = lengths[i];
    const size_t cl = block_payload_bytes(lb, L, h.zero_block_bypass());
    const size_t lo = std::max(b * L, window);
    const size_t hi = std::min({b * L + L, window + out.size(),
                                size_t{h.num_elements}});
    const std::span<T> dst = out.subspan(lo - window, hi - lo);
    if (cl == 0) {
      std::fill(dst.begin(), dst.end(), T{0});
      continue;
    }
    // BB covers undoing the payload packing; QP covers the prediction
    // inverse and dequantize, the mirror of the compress-side split.
    obs::hostprof::SplitTimer stage(obs::hostprof::Bucket::kBB);
    read_block_payload(payload.subspan(pos, cl), lb, L, h.bit_shuffle(),
                       scratch);
    stage.split(obs::hostprof::Bucket::kQP);
    reconstruct_block(h, std::span<std::int32_t>(scratch.quant), lo - b * L,
                      dst);
    pos += cl;
  }
}

template void reconstruct_block<float>(const Header&, std::span<std::int32_t>,
                                       size_t, std::span<float>);
template void reconstruct_block<double>(const Header&,
                                        std::span<std::int32_t>, size_t,
                                        std::span<double>);
template void decode_blocks<float>(const Header&, size_t,
                                   std::span<const byte_t>,
                                   std::span<const byte_t>, size_t,
                                   std::span<float>, BlockScratch&);
template void decode_blocks<double>(const Header&, size_t,
                                    std::span<const byte_t>,
                                    std::span<const byte_t>, size_t,
                                    std::span<double>, BlockScratch&);

}  // namespace szp::core
