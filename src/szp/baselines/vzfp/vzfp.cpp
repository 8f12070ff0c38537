#include "szp/baselines/vzfp/vzfp.hpp"

#include <algorithm>
#include <cmath>

#include "szp/baselines/vzfp/block_codec.hpp"
#include "szp/baselines/vzfp/transform.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/util/bytestream.hpp"

namespace szp::vzfp {

namespace gs = gpusim;

namespace {

struct BlockGrid {
  unsigned ndim = 1;
  size_t ext[3] = {1, 1, 1};     // data extents, slowest first
  size_t blocks[3] = {1, 1, 1};  // block counts per axis
  size_t block_elems = 4;
  size_t num_blocks = 1;

  static BlockGrid from(const data::Dims& dims) {
    if (dims.ndim() < 1 || dims.ndim() > 3) {
      throw format_error("vzfp: 1-3 dims supported (fuse leading axes)");
    }
    BlockGrid g;
    g.ndim = static_cast<unsigned>(dims.ndim());
    g.block_elems = 1;
    g.num_blocks = 1;
    for (unsigned a = 0; a < g.ndim; ++a) {
      g.ext[a] = dims[a];
      g.blocks[a] = div_ceil(dims[a], kBlockEdge);
      g.block_elems *= kBlockEdge;
      g.num_blocks *= g.blocks[a];
    }
    return g;
  }
};

/// Gather one block with edge-replication padding.
void gather_block(std::span<const float> data, const BlockGrid& g,
                  size_t block_idx, std::span<float> out) {
  size_t bc[3] = {0, 0, 0};
  size_t rem = block_idx;
  for (unsigned a = g.ndim; a-- > 0;) {
    bc[a] = rem % g.blocks[a];
    rem /= g.blocks[a];
  }
  size_t o = 0;
  // Iterate local coordinates (slowest axis first, like the data layout).
  const size_t l2 = g.ndim > 2 ? kBlockEdge : 1;
  const size_t l1 = g.ndim > 1 ? kBlockEdge : 1;
  for (size_t i2 = 0; i2 < l2; ++i2) {
    for (size_t i1 = 0; i1 < l1; ++i1) {
      for (size_t i0 = 0; i0 < kBlockEdge; ++i0) {
        size_t c[3] = {0, 0, 0};
        const size_t local[3] = {i2, i1, i0};
        // local coordinates map to the last `ndim` axes.
        for (unsigned a = 0; a < g.ndim; ++a) {
          const size_t axis_local = local[3 - g.ndim + a];
          c[a] = std::min(bc[a] * kBlockEdge + axis_local, g.ext[a] - 1);
        }
        size_t idx = 0;
        for (unsigned a = 0; a < g.ndim; ++a) idx = idx * g.ext[a] + c[a];
        out[o++] = data[idx];
      }
    }
  }
}

/// Scatter one decoded block back (skipping padded positions).
void scatter_block(std::span<const float> block, const BlockGrid& g,
                   size_t block_idx, std::span<float> data) {
  size_t bc[3] = {0, 0, 0};
  size_t rem = block_idx;
  for (unsigned a = g.ndim; a-- > 0;) {
    bc[a] = rem % g.blocks[a];
    rem /= g.blocks[a];
  }
  size_t o = 0;
  const size_t l2 = g.ndim > 2 ? kBlockEdge : 1;
  const size_t l1 = g.ndim > 1 ? kBlockEdge : 1;
  for (size_t i2 = 0; i2 < l2; ++i2) {
    for (size_t i1 = 0; i1 < l1; ++i1) {
      for (size_t i0 = 0; i0 < kBlockEdge; ++i0) {
        const size_t local[3] = {i2, i1, i0};
        size_t c[3] = {0, 0, 0};
        bool in_range = true;
        for (unsigned a = 0; a < g.ndim; ++a) {
          c[a] = bc[a] * kBlockEdge + local[3 - g.ndim + a];
          in_range = in_range && c[a] < g.ext[a];
        }
        if (in_range) {
          size_t idx = 0;
          for (unsigned a = 0; a < g.ndim; ++a) idx = idx * g.ext[a] + c[a];
          data[idx] = block[o];
        }
        ++o;
      }
    }
  }
}

std::uint32_t bits_per_block_of(const Params& p, size_t block_elems) {
  return static_cast<std::uint32_t>(
      std::llround(p.rate * static_cast<double>(block_elems)));
}

}  // namespace

void Params::validate() const {
  if (rate <= 0 || rate > 32) throw format_error("vzfp: rate out of range");
}

void Header::serialize(std::span<byte_t> out) const {
  if (out.size() < kSize) throw format_error("vzfp::Header: buffer too small");
  ByteWriter w;
  w.put(kMagic);
  w.put(bits_per_block);
  w.put(num_elements);
  w.put(ndim);
  w.put(std::uint8_t{0});
  w.put(std::uint16_t{0});
  w.put(std::uint32_t{0});
  for (const std::uint64_t d : dims) w.put(d);
  while (w.size() < kSize) w.put(byte_t{0});
  std::copy(w.bytes().begin(), w.bytes().end(), out.begin());
}

Header Header::deserialize(std::span<const byte_t> in) {
  if (in.size() < kSize) throw format_error("vzfp::Header: truncated");
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) throw format_error("vzfp: bad magic");
  Header h;
  h.bits_per_block = r.get<std::uint32_t>();
  h.num_elements = r.get<std::uint64_t>();
  h.ndim = r.get<std::uint8_t>();
  (void)r.get<std::uint8_t>();
  (void)r.get<std::uint16_t>();
  (void)r.get<std::uint32_t>();
  for (auto& d : h.dims) d = r.get<std::uint64_t>();
  if (h.ndim == 0 || h.ndim > 3) throw format_error("vzfp: bad header");
  return h;
}

size_t compressed_bytes(const data::Dims& dims, const Params& params) {
  params.validate();
  const BlockGrid g = BlockGrid::from(dims);
  const std::uint32_t bits = bits_per_block_of(params, g.block_elems);
  return Header::kSize + g.num_blocks * ((bits + 7) / 8);
}

std::vector<byte_t> compress_serial(std::span<const float> data,
                                    const data::Dims& dims,
                                    const Params& params) {
  params.validate();
  if (data.size() != dims.count()) throw format_error("vzfp: size mismatch");
  const BlockGrid g = BlockGrid::from(dims);
  const std::uint32_t bits = bits_per_block_of(params, g.block_elems);
  const size_t slot = (bits + 7) / 8;

  Header h;
  h.num_elements = data.size();
  h.bits_per_block = bits;
  h.ndim = static_cast<std::uint8_t>(g.ndim);
  for (unsigned a = 0; a < g.ndim; ++a) h.dims[a] = g.ext[a];

  std::vector<byte_t> out(Header::kSize + g.num_blocks * slot, byte_t{0});
  h.serialize(out);
  std::vector<float> block(g.block_elems);
  for (size_t b = 0; b < g.num_blocks; ++b) {
    gather_block(data, g, b, block);
    encode_block(block, g.ndim, bits,
                 std::span(out).subspan(Header::kSize + b * slot, slot));
  }
  return out;
}

std::vector<float> decompress_serial(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  data::Dims dims;
  for (unsigned a = 0; a < h.ndim; ++a) dims.extents.push_back(h.dims[a]);
  const BlockGrid g = BlockGrid::from(dims);
  const size_t slot = h.slot_bytes();
  if (stream.size() < Header::kSize + g.num_blocks * slot) {
    throw format_error("vzfp: truncated stream");
  }
  std::vector<float> out(h.num_elements, 0.0f);
  std::vector<float> block(g.block_elems);
  for (size_t b = 0; b < g.num_blocks; ++b) {
    decode_block(stream.subspan(Header::kSize + b * slot, slot), g.ndim,
                 h.bits_per_block, block);
    scatter_block(block, g, b, out);
  }
  return out;
}

DeviceCodecResult compress_device(gs::Device& dev,
                                  const gs::DeviceBuffer<float>& in,
                                  const data::Dims& dims, const Params& params,
                                  gs::DeviceBuffer<byte_t>& out) {
  params.validate();
  const BlockGrid g = BlockGrid::from(dims);
  const std::uint32_t bits = bits_per_block_of(params, g.block_elems);
  const size_t slot = (bits + 7) / 8;
  const size_t total = Header::kSize + g.num_blocks * slot;
  if (in.size() < dims.count() || out.size() < total) {
    throw format_error("vzfp::compress_device: bad buffer sizes");
  }
  const auto before = dev.snapshot();

  Header h;
  h.num_elements = dims.count();
  h.bits_per_block = bits;
  h.ndim = static_cast<std::uint8_t>(g.ndim);
  for (unsigned a = 0; a < g.ndim; ++a) h.dims[a] = g.ext[a];

  std::fill(out.span().begin(), out.span().begin() + static_cast<long>(total),
            byte_t{0});
  const std::span<const float> data = in.span().first(dims.count());
  const std::span<byte_t> stream = out.span();

  constexpr size_t kBlocksPerCta = 32;
  const size_t grid = std::max<size_t>(1, div_ceil(g.num_blocks, kBlocksPerCta));
  gs::launch(dev, "vzfp_compress", grid, [&](const gs::BlockCtx& ctx) {
    if (ctx.block_idx == 0) {
      h.serialize(stream.first(Header::kSize));
      ctx.write(gs::Stage::kOther, Header::kSize);
    }
    std::vector<float> block(g.block_elems);
    size_t done = 0;
    for (size_t k = 0; k < kBlocksPerCta; ++k) {
      const size_t b = ctx.block_idx * kBlocksPerCta + k;
      if (b >= g.num_blocks) break;
      gather_block(data, g, b, block);
      encode_block(block, g.ndim, bits,
                   stream.subspan(Header::kSize + b * slot, slot));
      ++done;
    }
    ctx.read(gs::Stage::kTransform, done * g.block_elems * 4);
    ctx.write(gs::Stage::kTransform, done * slot);
    ctx.ops(gs::Stage::kTransform, done * g.block_elems);
  });

  DeviceCodecResult res;
  res.bytes = total;
  res.trace = dev.snapshot() - before;
  return res;
}

DeviceCodecResult decompress_device(gs::Device& dev,
                                    const gs::DeviceBuffer<byte_t>& cmp,
                                    gs::DeviceBuffer<float>& out) {
  const Header h = Header::deserialize(cmp.span());
  dev.count([](gs::Trace& t) { t.add_d2h(Header::kSize); });
  data::Dims dims;
  for (unsigned a = 0; a < h.ndim; ++a) dims.extents.push_back(h.dims[a]);
  const BlockGrid g = BlockGrid::from(dims);
  const size_t slot = h.slot_bytes();
  if (out.size() < h.num_elements) throw format_error("vzfp: output too small");
  const auto before = dev.snapshot();

  const std::span<const byte_t> stream = cmp.span();
  const std::span<float> data = out.span().first(h.num_elements);

  constexpr size_t kBlocksPerCta = 32;
  const size_t grid = std::max<size_t>(1, div_ceil(g.num_blocks, kBlocksPerCta));
  gs::launch(dev, "vzfp_decompress", grid, [&](const gs::BlockCtx& ctx) {
    std::vector<float> block(g.block_elems);
    size_t done = 0;
    for (size_t k = 0; k < kBlocksPerCta; ++k) {
      const size_t b = ctx.block_idx * kBlocksPerCta + k;
      if (b >= g.num_blocks) break;
      if (Header::kSize + (b + 1) * slot > stream.size()) {
        throw format_error("vzfp: truncated stream");
      }
      decode_block(stream.subspan(Header::kSize + b * slot, slot), g.ndim,
                   h.bits_per_block, block);
      scatter_block(block, g, b, data);
      ++done;
    }
    ctx.read(gs::Stage::kTransform, done * slot);
    ctx.write(gs::Stage::kTransform, done * g.block_elems * 4);
    ctx.ops(gs::Stage::kTransform, done * g.block_elems);
  });

  DeviceCodecResult res;
  res.bytes = h.num_elements;
  res.trace = dev.snapshot() - before;
  return res;
}

}  // namespace szp::vzfp
