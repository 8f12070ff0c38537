#include "szp/baselines/mpc/mpc.hpp"

#include <algorithm>
#include <cstring>

#include "szp/gpusim/launch.hpp"
#include "szp/gpusim/scan.hpp"
#include "szp/util/bytestream.hpp"

namespace szp::mpc {

namespace gs = gpusim;

namespace {

constexpr std::uint32_t kMagic = 0x6D355A53;  // "SZ5m"
constexpr size_t kChunkWords = 1024;
constexpr size_t kBitmapBytes = kChunkWords / 8;
constexpr size_t kHeaderBytes = 24;

std::uint32_t zigzag(std::uint32_t delta) {
  const auto s = static_cast<std::int32_t>(delta);
  return (static_cast<std::uint32_t>(s) << 1) ^
         static_cast<std::uint32_t>(s >> 31);
}

std::uint32_t unzigzag(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

/// 32x32 bit transpose: out word b holds bit b of each of the 32 inputs.
void transpose32(const std::uint32_t* in, std::uint32_t* out) {
  for (unsigned b = 0; b < 32; ++b) {
    std::uint32_t w = 0;
    for (unsigned i = 0; i < 32; ++i) {
      w |= ((in[i] >> b) & 1u) << i;
    }
    out[b] = w;
  }
}

/// Compress one chunk of up to kChunkWords words starting at data[begin];
/// returns the number of payload bytes written into `dst` (which must
/// hold kBitmapBytes + 4 * kChunkWords).
size_t encode_chunk(std::span<const std::uint32_t> words, size_t begin,
                    unsigned stride, std::span<byte_t> dst) {
  const size_t len = std::min(kChunkWords, words.size() - begin);
  std::uint32_t planes[kChunkWords] = {};
  {
    std::uint32_t residual[kChunkWords] = {};
    for (size_t i = 0; i < len; ++i) {
      const size_t idx = begin + i;
      const std::uint32_t pred = idx >= stride ? words[idx - stride] : 0;
      residual[i] = zigzag(words[idx] - pred);
    }
    for (size_t g = 0; g * 32 < len; ++g) {
      transpose32(residual + g * 32, planes + g * 32);
    }
  }
  const size_t plane_words = round_up(len, size_t{32});
  std::fill(dst.begin(), dst.begin() + static_cast<long>(kBitmapBytes),
            byte_t{0});
  size_t out = kBitmapBytes;
  for (size_t i = 0; i < plane_words; ++i) {
    if (planes[i] != 0) {
      dst[i / 8] |= static_cast<byte_t>(1u << (i % 8));
      std::memcpy(dst.data() + out, &planes[i], 4);
      out += 4;
    }
  }
  return out;
}

void decode_chunk(std::span<const byte_t> src, size_t begin, size_t len,
                  unsigned stride, std::span<std::uint32_t> words) {
  std::uint32_t planes[kChunkWords] = {};
  const size_t plane_words = round_up(len, size_t{32});
  size_t in = kBitmapBytes;
  for (size_t i = 0; i < plane_words; ++i) {
    if ((src[i / 8] >> (i % 8)) & 1u) {
      if (in + 4 > src.size()) throw format_error("mpc: truncated chunk");
      std::memcpy(&planes[i], src.data() + in, 4);
      in += 4;
    }
  }
  std::uint32_t residual[kChunkWords] = {};
  for (size_t g = 0; g * 32 < plane_words; ++g) {
    transpose32(planes + g * 32, residual + g * 32);
  }
  for (size_t i = 0; i < len; ++i) {
    const size_t idx = begin + i;
    const std::uint32_t pred = idx >= stride ? words[idx - stride] : 0;
    words[idx] = pred + unzigzag(residual[i]);
  }
}

size_t chunk_payload_size(std::span<const byte_t> bitmap, size_t len) {
  size_t nz = 0;
  const size_t plane_words = round_up(len, size_t{32});
  for (size_t i = 0; i < plane_words; ++i) {
    nz += (bitmap[i / 8] >> (i % 8)) & 1u;
  }
  return kBitmapBytes + 4 * nz;
}

}  // namespace

size_t max_compressed_bytes(size_t n) {
  const size_t chunks = div_ceil(std::max<size_t>(n, 1), kChunkWords);
  return kHeaderBytes + chunks * (kBitmapBytes + 4 * kChunkWords);
}

std::vector<byte_t> compress_serial(std::span<const float> data,
                                    const Params& params) {
  if (params.stride == 0) throw format_error("mpc: stride must be positive");
  const size_t n = data.size();
  std::vector<std::uint32_t> words(n);
  if (n != 0) std::memcpy(words.data(), data.data(), n * 4);

  ByteWriter w;
  w.put(kMagic);
  w.put(params.stride);
  w.put(static_cast<std::uint64_t>(n));
  w.put(std::uint64_t{0});  // pad header to kHeaderBytes

  std::vector<byte_t> scratch(kBitmapBytes + 4 * kChunkWords);
  for (size_t begin = 0; begin < n; begin += kChunkWords) {
    const size_t bytes = encode_chunk(words, begin, params.stride, scratch);
    w.put_bytes(std::span<const byte_t>(scratch.data(), bytes));
  }
  return std::move(w).take();
}

std::vector<float> decompress_serial(std::span<const byte_t> stream) {
  ByteReader r(stream);
  if (r.get<std::uint32_t>() != kMagic) throw format_error("mpc: bad magic");
  const auto stride = r.get<std::uint32_t>();
  const auto n = static_cast<size_t>(r.get<std::uint64_t>());
  (void)r.get<std::uint64_t>();
  if (stride == 0) throw format_error("mpc: bad stride");

  std::vector<std::uint32_t> words(n, 0);
  size_t off = kHeaderBytes;
  for (size_t begin = 0; begin < n; begin += kChunkWords) {
    const size_t len = std::min(kChunkWords, n - begin);
    if (off + kBitmapBytes > stream.size()) {
      throw format_error("mpc: truncated bitmap");
    }
    const size_t bytes =
        chunk_payload_size(stream.subspan(off, kBitmapBytes), len);
    if (off + bytes > stream.size()) throw format_error("mpc: truncated");
    decode_chunk(stream.subspan(off, bytes), begin, len, stride, words);
    off += bytes;
  }
  std::vector<float> out(n);
  if (n != 0) std::memcpy(out.data(), words.data(), n * 4);
  return out;
}

DeviceCodecResult compress_device(gs::Device& dev,
                                  const gs::DeviceBuffer<float>& in, size_t n,
                                  const Params& params,
                                  gs::DeviceBuffer<byte_t>& out) {
  if (params.stride == 0) throw format_error("mpc: stride must be positive");
  if (out.size() < max_compressed_bytes(n)) {
    throw format_error("mpc: output buffer too small");
  }
  const auto before = dev.snapshot();
  const size_t chunks = n == 0 ? 0 : div_ceil(n, kChunkWords);
  // Bit-view of the input; kernels read words, never mutate the floats.
  std::vector<std::uint32_t> words(n);
  std::memcpy(words.data(), in.data(), n * 4);

  const std::span<byte_t> stream = out.span();
  gs::ChainedScanState scan_state(dev, std::max<size_t>(1, chunks));
  const size_t stride_slot = kBitmapBytes + 4 * kChunkWords;
  gs::DeviceBuffer<byte_t> d_scratch(dev,
                                     std::max<size_t>(1, chunks * stride_slot));
  gs::DeviceBuffer<std::uint64_t> d_sizes(dev, std::max<size_t>(1, chunks), 0);

  // Single kernel: encode into a per-chunk slot, stitch with the chained
  // scan, and copy the payload to its final offset.
  gs::launch(dev, "mpc_compress", std::max<size_t>(1, chunks),
             [&](const gs::BlockCtx& ctx) {
               const size_t c = ctx.block_idx;
               if (c == 0) {
                 ByteWriter w;
                 w.put(kMagic);
                 w.put(params.stride);
                 w.put(static_cast<std::uint64_t>(n));
                 w.put(std::uint64_t{0});
                 std::copy(w.bytes().begin(), w.bytes().end(), stream.begin());
                 ctx.write(gs::Stage::kOther, kHeaderBytes);
               }
               if (c >= chunks) return;
               const size_t begin = c * kChunkWords;
               const size_t len = std::min(kChunkWords, n - begin);
               const std::span<byte_t> slot =
                   d_scratch.span().subspan(c * stride_slot, stride_slot);
               const size_t bytes =
                   encode_chunk(words, begin, params.stride, slot);
               d_sizes[c] = bytes;
               ctx.read(gs::Stage::kBlockEncode, len * 4);
               ctx.ops(gs::Stage::kBlockEncode, len * 2);

               const std::uint64_t prefix = scan_state.publish_and_lookback(
                   ctx, gs::Stage::kGlobalSync, c, bytes);
               ctx.ops(gs::Stage::kGlobalSync, 1);
               std::copy(slot.begin(), slot.begin() + static_cast<long>(bytes),
                         stream.begin() +
                             static_cast<long>(kHeaderBytes + prefix));
               ctx.write(gs::Stage::kGather, bytes);
               ctx.ops(gs::Stage::kGather, bytes);
             });

  DeviceCodecResult res;
  res.bytes = kHeaderBytes +
              (chunks == 0 ? 0 : scan_state.inclusive_prefix(chunks - 1));
  dev.count([](gs::Trace& t) { t.add_d2h(sizeof(std::uint64_t)); });
  res.trace = dev.snapshot() - before;
  return res;
}

}  // namespace szp::mpc
