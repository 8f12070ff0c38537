#include "szp/baselines/xsz/xsz.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "szp/core/stages.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/util/bytestream.hpp"

namespace szp::xsz {

namespace gs = gpusim;

namespace {

constexpr std::uint8_t kConstantFlag = 0x80;
constexpr unsigned kMaxFixedLength = 32;

struct BlockPlan {
  bool constant = false;
  float midpoint = 0;
  unsigned f = 0;
  size_t cmp_len = 0;
  std::uint8_t meta = 0;
};

size_t nonconstant_len(unsigned f, unsigned L) {
  return (static_cast<size_t>(f) + 1) * L / 8;
}

/// Payload bytes of a block with this meta byte. Throws on a fixed length
/// the encoder never writes, so decode_block sees only f <= 32.
size_t payload_len(std::uint8_t meta, unsigned L) {
  if (meta & kConstantFlag) return sizeof(float);
  if (meta > kMaxFixedLength) throw format_error("xsz: invalid fixed length");
  return nonconstant_len(meta, L);
}

/// Decide constant/non-constant and the fixed length for one block.
BlockPlan plan_block(std::span<const float> block, double eb, unsigned L,
                     std::span<std::int32_t> quant,
                     std::span<std::uint32_t> mags, std::span<byte_t> signs) {
  BlockPlan p;
  float mn = block[0], mx = block[0];
  for (const float v : block) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  if (static_cast<double>(mx) - static_cast<double>(mn) <= 2.0 * eb) {
    // Constant block: flush every point to the range midpoint. This is
    // the cuSZx design decision behind the stripe artifacts (Fig. 16).
    p.constant = true;
    p.midpoint = static_cast<float>(
        (static_cast<double>(mn) + static_cast<double>(mx)) / 2.0);
    p.cmp_len = sizeof(float);
    p.meta = kConstantFlag;
    return p;
  }
  // Non-constant: plain pre-quantization (no Lorenzo in xsz).
  std::vector<float> padded(L, 0.0f);
  std::copy(block.begin(), block.end(), padded.begin());
  core::quantize(padded, eb, quant);
  core::split_signs(quant, mags, signs);
  p.f = core::fixed_length_of(mags);
  p.cmp_len = nonconstant_len(p.f, L);
  p.meta = static_cast<std::uint8_t>(p.f);
  return p;
}

void encode_nonconstant(std::span<const std::uint32_t> mags,
                        std::span<const byte_t> signs, unsigned f, unsigned L,
                        std::span<byte_t> dst) {
  const size_t groups = L / 8;
  std::copy(signs.begin(), signs.end(), dst.begin());
  if (f > 0) core::bit_pack(mags, f, dst.subspan(groups));
}

void decode_block(std::span<const byte_t> payload, std::uint8_t meta,
                  unsigned L, double eb, std::span<float> out) {
  if (meta & kConstantFlag) {
    float mid;
    std::memcpy(&mid, payload.data(), sizeof(float));
    std::fill(out.begin(), out.end(), mid);
    return;
  }
  const unsigned f = meta;
  const size_t groups = L / 8;
  std::vector<std::uint32_t> mags(L, 0u);
  std::vector<std::int32_t> quant(L);
  if (f > 0) core::bit_unpack(payload.subspan(groups), f, mags);
  core::apply_signs(mags, payload.first(groups), quant);
  std::vector<float> full(L);
  core::dequantize(quant, eb, full);
  std::copy(full.begin(), full.begin() + static_cast<long>(out.size()),
            out.begin());
}

double range_of(std::span<const float> data) {
  if (data.empty()) return 0;
  const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
  return static_cast<double>(*mx) - static_cast<double>(*mn);
}

}  // namespace

void Params::validate() const {
  if (block_len == 0 || block_len % 8 != 0) {
    throw format_error("xsz::Params: block_len must be a multiple of 8");
  }
  if (error_bound <= 0) throw format_error("xsz::Params: bad error bound");
}

void Header::serialize(std::span<byte_t> out) const {
  if (out.size() < kSize) throw format_error("xsz::Header: buffer too small");
  ByteWriter w;
  w.put(kMagic);
  w.put(block_len);
  w.put(std::uint16_t{0});
  w.put(num_elements);
  w.put(eb_abs);
  while (w.size() < kSize) w.put(byte_t{0});
  std::copy(w.bytes().begin(), w.bytes().end(), out.begin());
}

Header Header::deserialize(std::span<const byte_t> in) {
  if (in.size() < kSize) throw format_error("xsz::Header: truncated");
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) throw format_error("xsz: bad magic");
  Header h;
  h.block_len = r.get<std::uint16_t>();
  (void)r.get<std::uint16_t>();
  h.num_elements = r.get<std::uint64_t>();
  h.eb_abs = r.get<double>();
  if (h.block_len == 0 || h.block_len % 8 != 0 || h.eb_abs <= 0) {
    throw format_error("xsz::Header: invalid fields");
  }
  return h;
}

size_t max_compressed_bytes(size_t n, unsigned block_len) {
  const size_t nblocks = div_ceil(n, static_cast<size_t>(block_len));
  return Header::kSize + nblocks +
         nblocks * nonconstant_len(kMaxFixedLength, block_len);
}

std::vector<byte_t> compress_serial(std::span<const float> data,
                                    const Params& params,
                                    std::optional<double> value_range) {
  params.validate();
  const double eb = params.mode == core::ErrorMode::kAbs
                        ? params.error_bound
                        : std::max(params.error_bound *
                                       (value_range ? *value_range
                                                    : range_of(data)),
                                   1e-30);
  const unsigned L = params.block_len;
  const size_t n = data.size();
  const size_t nblocks = div_ceil(n, static_cast<size_t>(L));

  Header h;
  h.num_elements = n;
  h.eb_abs = eb;
  h.block_len = static_cast<std::uint16_t>(L);

  std::vector<byte_t> meta(nblocks, 0);
  std::vector<std::vector<byte_t>> payloads(nblocks);
  std::vector<std::int32_t> quant(L);
  std::vector<std::uint32_t> mags(L);
  std::vector<byte_t> signs(L / 8);

  size_t total = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    const size_t begin = b * L;
    const size_t len = std::min<size_t>(L, n - begin);
    const BlockPlan p =
        plan_block(data.subspan(begin, len), eb, L, quant, mags, signs);
    meta[b] = p.meta;
    auto& payload = payloads[b];
    payload.resize(p.cmp_len, byte_t{0});
    if (p.constant) {
      std::memcpy(payload.data(), &p.midpoint, sizeof(float));
    } else {
      encode_nonconstant(mags, signs, p.f, L, payload);
    }
    total += p.cmp_len;
  }

  std::vector<byte_t> out(Header::kSize + nblocks + total, byte_t{0});
  h.serialize(out);
  std::copy(meta.begin(), meta.end(), out.begin() + Header::kSize);
  size_t off = Header::kSize + nblocks;
  for (const auto& payload : payloads) {
    std::copy(payload.begin(), payload.end(), out.begin() + off);
    off += payload.size();
  }
  return out;
}

std::vector<float> decompress_serial(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  const unsigned L = h.block_len;
  const size_t n = h.num_elements;
  const size_t nblocks = div_ceil(n, static_cast<size_t>(L));
  if (stream.size() < Header::kSize + nblocks) {
    throw format_error("xsz: truncated meta");
  }
  std::vector<float> out(n);
  size_t off = Header::kSize + nblocks;
  for (size_t b = 0; b < nblocks; ++b) {
    const std::uint8_t meta = stream[Header::kSize + b];
    const size_t cl = payload_len(meta, L);
    if (off + cl > stream.size()) throw format_error("xsz: truncated payload");
    const size_t begin = b * L;
    const size_t len = std::min<size_t>(L, n - begin);
    decode_block(stream.subspan(off, cl), meta, L, h.eb_abs,
                 std::span(out).subspan(begin, len));
    off += cl;
  }
  return out;
}

DeviceCodecResult compress_device(gs::Device& dev,
                                  const gs::DeviceBuffer<float>& in, size_t n,
                                  const Params& params, double eb_abs,
                                  gs::DeviceBuffer<byte_t>& out) {
  params.validate();
  const unsigned L = params.block_len;
  const size_t nblocks = div_ceil(n, static_cast<size_t>(L));
  if (out.size() < max_compressed_bytes(n, L)) {
    throw format_error("xsz::compress_device: output too small");
  }
  const auto before = dev.snapshot();

  const size_t stride = nonconstant_len(kMaxFixedLength, L);  // worst-case slot
  gs::DeviceBuffer<byte_t> d_scratch(dev, std::max<size_t>(1, nblocks * stride),
                                     byte_t{0});
  gs::DeviceBuffer<byte_t> d_meta(dev, std::max<size_t>(1, nblocks), byte_t{0});
  gs::DeviceBuffer<std::uint64_t> d_lens(dev, std::max<size_t>(1, nblocks), 0);

  constexpr size_t kBlocksPerCta = 8;
  const size_t grid = std::max<size_t>(1, div_ceil(nblocks, kBlocksPerCta));
  const std::span<const float> data = in.span().first(n);

  // Kernel 1: per-block encode into fixed-stride scratch slots. The
  // variable-length concatenation cannot happen here — offsets are only
  // known after the host prefix sum (the cuSZx structure).
  gs::launch(dev, "xsz_encode", grid, [&](const gs::BlockCtx& ctx) {
    std::vector<std::int32_t> quant(L);
    std::vector<std::uint32_t> mags(L);
    std::vector<byte_t> signs(L / 8);
    size_t elems = 0, written = 0;
    for (size_t k = 0; k < kBlocksPerCta; ++k) {
      const size_t b = ctx.block_idx * kBlocksPerCta + k;
      if (b >= nblocks) break;
      const size_t begin = b * L;
      const size_t len = std::min<size_t>(L, n - begin);
      elems += len;
      const BlockPlan p =
          plan_block(data.subspan(begin, len), eb_abs, L, quant, mags, signs);
      d_meta[b] = p.meta;
      d_lens[b] = p.cmp_len;
      const std::span<byte_t> slot = d_scratch.span().subspan(b * stride, stride);
      if (p.constant) {
        std::memcpy(slot.data(), &p.midpoint, sizeof(float));
      } else {
        encode_nonconstant(mags, signs, p.f, L, slot);
      }
      written += p.cmp_len;
    }
    ctx.read(gs::Stage::kBlockEncode, elems * sizeof(float));
    ctx.ops(gs::Stage::kBlockEncode, 2 * elems);
    ctx.write(gs::Stage::kBlockEncode,
              written + kBlocksPerCta * (1 + sizeof(std::uint64_t)));
  });

  // Host round trip: scratch + metadata come back to the CPU, which does
  // the prefix sum and compacts the final stream (cuSZx's "global
  // synchronization on CPU").
  std::vector<byte_t> h_scratch = gs::to_host(dev, d_scratch);
  std::vector<byte_t> h_meta = gs::to_host(dev, d_meta);
  std::vector<std::uint64_t> h_lens = gs::to_host(dev, d_lens);

  Header h;
  h.num_elements = n;
  h.eb_abs = eb_abs;
  h.block_len = static_cast<std::uint16_t>(L);

  size_t total = 0;
  for (size_t b = 0; b < nblocks; ++b) total += h_lens[b];
  const size_t out_size = Header::kSize + nblocks + total;

  std::vector<byte_t> final_stream(out_size, byte_t{0});
  gs::host_stage(dev, nblocks * sizeof(std::uint64_t) + total, [&] {
    h.serialize(final_stream);
    std::copy(h_meta.begin(), h_meta.begin() + static_cast<long>(nblocks),
              final_stream.begin() + Header::kSize);
    size_t off = Header::kSize + nblocks;
    for (size_t b = 0; b < nblocks; ++b) {
      std::memcpy(final_stream.data() + off, h_scratch.data() + b * stride,
                  h_lens[b]);
      off += h_lens[b];
    }
    return 0;
  });

  gs::copy_h2d<byte_t>(dev, out, final_stream);

  DeviceCodecResult res;
  res.bytes = out_size;
  res.trace = dev.snapshot() - before;
  return res;
}

DeviceCodecResult decompress_device(gs::Device& dev,
                                    const gs::DeviceBuffer<byte_t>& cmp,
                                    gs::DeviceBuffer<float>& out) {
  const Header h = Header::deserialize(cmp.span());
  const unsigned L = h.block_len;
  const size_t n = h.num_elements;
  const size_t nblocks = div_ceil(n, static_cast<size_t>(L));
  if (out.size() < n) throw format_error("xsz: output too small");
  const auto before = dev.snapshot();

  // CPU preprocessing: the header + block metadata are copied to the host
  // where the per-block offsets are reconstructed.
  std::vector<byte_t> h_meta(Header::kSize + nblocks);
  gs::copy_d2h<byte_t>(dev, h_meta, cmp, h_meta.size());
  std::vector<std::uint64_t> offsets(std::max<size_t>(1, nblocks), 0);
  gs::host_stage(dev, h_meta.size(), [&] {
    size_t off = Header::kSize + nblocks;
    for (size_t b = 0; b < nblocks; ++b) {
      offsets[b] = off;
      const std::uint8_t meta = h_meta[Header::kSize + b];
      off += payload_len(meta, L);
    }
    return 0;
  });
  gs::DeviceBuffer<std::uint64_t> d_offsets(dev, offsets.size());
  gs::copy_h2d<std::uint64_t>(dev, d_offsets, offsets);

  constexpr size_t kBlocksPerCta = 8;
  const size_t grid = std::max<size_t>(1, div_ceil(nblocks, kBlocksPerCta));
  const std::span<const byte_t> stream = cmp.span();
  const std::span<float> data = out.span().first(n);

  gs::launch(dev, "xsz_decode", grid, [&](const gs::BlockCtx& ctx) {
    size_t elems = 0, read_bytes = 0;
    for (size_t k = 0; k < kBlocksPerCta; ++k) {
      const size_t b = ctx.block_idx * kBlocksPerCta + k;
      if (b >= nblocks) break;
      const std::uint8_t meta = stream[Header::kSize + b];
      const size_t cl = payload_len(meta, L);
      const size_t begin = b * L;
      const size_t len = std::min<size_t>(L, n - begin);
      if (offsets[b] + cl > stream.size()) {
        throw format_error("xsz: truncated payload");
      }
      decode_block(stream.subspan(offsets[b], cl), meta, L, h.eb_abs,
                   data.subspan(begin, len));
      elems += len;
      read_bytes += cl + 1 + sizeof(std::uint64_t);
    }
    ctx.read(gs::Stage::kBlockEncode, read_bytes);
    ctx.ops(gs::Stage::kBlockEncode, 2 * elems);
    ctx.write(gs::Stage::kBlockEncode, elems * sizeof(float));
  });

  // CPU postprocessing (cuSZx decompression needs both pre- and post-
  // processing on the host, paper §5.2): the reconstruction round-trips to
  // the host for a fixup scan over the float stream.
  std::vector<float> h_out = gs::to_host(dev, out);
  gs::host_stage(dev, h_out.size() * 3, [&] { return 0; });

  DeviceCodecResult res;
  res.bytes = n;
  res.trace = dev.snapshot() - before;
  return res;
}

double constant_block_fraction(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  const size_t nblocks =
      div_ceil(static_cast<size_t>(h.num_elements),
               static_cast<size_t>(h.block_len));
  if (nblocks == 0) return 0;
  size_t constant = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    if (stream[Header::kSize + b] & kConstantFlag) ++constant;
  }
  return static_cast<double>(constant) / static_cast<double>(nblocks);
}

}  // namespace szp::xsz
