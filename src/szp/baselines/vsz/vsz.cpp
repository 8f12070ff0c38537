#include "szp/baselines/vsz/vsz.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "szp/gpusim/launch.hpp"
#include "szp/util/bytestream.hpp"

namespace szp::vsz {

namespace gs = gpusim;

namespace {

// |r| <= 2^27 leaves headroom for three axis differences (x8 growth).
constexpr std::int64_t kMaxQuant = std::int64_t{1} << 27;

struct Outlier {
  std::uint64_t index;
  std::int32_t delta;
};

void quantize_nd(std::span<const float> in, double eb,
                 std::span<std::int32_t> out) {
  const double inv = 1.0 / (2.0 * eb);
  for (size_t i = 0; i < in.size(); ++i) {
    const double scaled = static_cast<double>(in[i]) * inv;
    if (!(std::abs(scaled) < static_cast<double>(kMaxQuant))) {
      throw format_error("vsz: error bound too small for data magnitude");
    }
    out[i] = static_cast<std::int32_t>(std::llround(scaled));
  }
}

/// delta -> (code, is_outlier). Code 0 is reserved for outliers.
inline std::uint16_t symbol_of(std::int32_t delta, std::uint32_t radius,
                               bool& outlier) {
  const std::int64_t shifted =
      static_cast<std::int64_t>(delta) + static_cast<std::int64_t>(radius);
  if (shifted <= 0 || shifted >= 2 * static_cast<std::int64_t>(radius)) {
    outlier = true;
    return 0;
  }
  outlier = false;
  return static_cast<std::uint16_t>(shifted);
}

double range_of(std::span<const float> data) {
  if (data.empty()) return 0;
  const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
  return static_cast<double>(*mx) - static_cast<double>(*mn);
}

size_t chunk_scratch_stride(std::uint32_t chunk) {
  // Worst case: kMaxCodeLength bits per symbol, byte-aligned, plus slack.
  return static_cast<size_t>(chunk) * HuffmanCodebook::kMaxCodeLength / 8 + 16;
}

/// Assemble the final stream from the pieces (shared by serial and the
/// device host-concat phase, guaranteeing identical bytes).
std::vector<byte_t> assemble_stream(
    const Header& h, const HuffmanCodebook& book,
    std::span<const std::uint64_t> chunk_bytes,
    const std::vector<std::vector<byte_t>>& encoded,
    std::span<const Outlier> outliers) {
  ByteWriter w;
  std::vector<byte_t> header_bytes(Header::kSize);
  h.serialize(header_bytes);
  w.put_bytes(header_bytes);
  w.put_bytes(book.serialize());
  for (const std::uint64_t cb : chunk_bytes) w.put(cb);
  for (const auto& chunk : encoded) w.put_bytes(chunk);
  for (const Outlier& o : outliers) {
    w.put(o.index);
    w.put(o.delta);
  }
  return std::move(w).take();
}

}  // namespace

void Params::validate() const {
  if (error_bound <= 0) throw format_error("vsz::Params: bad error bound");
  if (radius < 2 || radius > 32768) {
    throw format_error("vsz::Params: radius out of range");
  }
  if (chunk == 0) throw format_error("vsz::Params: chunk must be positive");
}

void Header::serialize(std::span<byte_t> out) const {
  if (out.size() < kSize) throw format_error("vsz::Header: buffer too small");
  ByteWriter w;
  w.put(kMagic);
  w.put(radius);
  w.put(chunk);
  w.put(ndim);
  w.put(std::uint8_t{0});
  w.put(std::uint16_t{0});
  w.put(num_elements);
  w.put(eb_abs);
  w.put(num_outliers);
  w.put(encoded_bytes);
  for (const std::uint64_t d : dims) w.put(d);
  while (w.size() < kSize) w.put(byte_t{0});
  std::copy(w.bytes().begin(), w.bytes().end(), out.begin());
}

Header Header::deserialize(std::span<const byte_t> in) {
  if (in.size() < kSize) throw format_error("vsz::Header: truncated");
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) throw format_error("vsz: bad magic");
  Header h;
  h.radius = r.get<std::uint32_t>();
  h.chunk = r.get<std::uint32_t>();
  h.ndim = r.get<std::uint8_t>();
  (void)r.get<std::uint8_t>();
  (void)r.get<std::uint16_t>();
  h.num_elements = r.get<std::uint64_t>();
  h.eb_abs = r.get<double>();
  h.num_outliers = r.get<std::uint64_t>();
  h.encoded_bytes = r.get<std::uint64_t>();
  for (auto& d : h.dims) d = r.get<std::uint64_t>();
  if (h.ndim == 0 || h.ndim > 3 || h.chunk == 0 || h.radius < 2 ||
      h.eb_abs <= 0) {
    throw format_error("vsz::Header: invalid fields");
  }
  return h;
}

Grid Header::grid() const {
  Grid g;
  for (unsigned a = 0; a < ndim; ++a) g.extents.push_back(dims[a]);
  return g;
}

size_t Header::num_chunks() const {
  return num_elements == 0 ? 0 : div_ceil<size_t>(num_elements, chunk);
}

size_t max_compressed_bytes(size_t n) {
  return Header::kSize + 65536 + (n / 1024 + 2) * 8 + 4 * n + 12 * n + 64;
}

// ------------------------------------------------------------- serial ----

std::vector<byte_t> compress_serial(std::span<const float> data,
                                    const Grid& grid, const Params& params,
                                    std::optional<double> value_range) {
  params.validate();
  if (grid.count() != data.size()) {
    throw format_error("vsz: grid does not match data size");
  }
  if (grid.ndim() == 0 || grid.ndim() > 3) {
    throw format_error("vsz: 1-3 dims supported (fuse leading axes)");
  }
  const double eb =
      params.mode == core::ErrorMode::kAbs
          ? params.error_bound
          : std::max(params.error_bound *
                         (value_range ? *value_range : range_of(data)),
                     1e-30);
  const size_t n = data.size();
  const std::uint32_t num_symbols = 2 * params.radius;

  // S1: dual-quant (pre-quantize + N-D Lorenzo).
  std::vector<std::int32_t> deltas(n);
  quantize_nd(data, eb, deltas);
  lorenzo_nd_forward(deltas, grid);

  // S2: symbolize with outlier escape.
  std::vector<std::uint16_t> codes(n);
  std::vector<Outlier> outliers;
  for (size_t i = 0; i < n; ++i) {
    bool is_outlier = false;
    codes[i] = symbol_of(deltas[i], params.radius, is_outlier);
    if (is_outlier) outliers.push_back({i, deltas[i]});
  }

  // S3: histogram + canonical codebook (the CPU-side step in cuSZ).
  std::vector<std::uint64_t> freq(num_symbols, 0);
  for (const std::uint16_t c : codes) ++freq[c];
  const HuffmanCodebook book = HuffmanCodebook::build(freq);

  // S4: chunked Huffman encoding, each chunk byte-aligned.
  const size_t nchunks = n == 0 ? 0 : div_ceil<size_t>(n, params.chunk);
  std::vector<std::uint64_t> chunk_bytes(nchunks, 0);
  std::vector<std::vector<byte_t>> encoded(nchunks);
  std::uint64_t total_encoded = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t begin = c * params.chunk;
    const size_t len = std::min<size_t>(params.chunk, n - begin);
    encoded[c] = huffman_encode(
        std::span(codes).subspan(begin, len), book);
    chunk_bytes[c] = encoded[c].size();
    total_encoded += encoded[c].size();
  }

  Header h;
  h.num_elements = n;
  h.eb_abs = eb;
  h.radius = params.radius;
  h.chunk = params.chunk;
  h.num_outliers = outliers.size();
  h.encoded_bytes = total_encoded;
  h.ndim = static_cast<std::uint8_t>(grid.ndim());
  for (size_t a = 0; a < grid.ndim(); ++a) h.dims[a] = grid.extents[a];

  return assemble_stream(h, book, chunk_bytes, encoded, outliers);
}

std::vector<float> decompress_serial(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  const size_t n = h.num_elements;
  const std::uint32_t num_symbols = 2 * h.radius;
  const size_t nchunks = h.num_chunks();

  ByteReader r(stream);
  (void)r.get_bytes(Header::kSize);
  const HuffmanCodebook book =
      HuffmanCodebook::deserialize(r.get_bytes(num_symbols));
  std::vector<std::uint64_t> chunk_bytes(nchunks);
  for (auto& cb : chunk_bytes) cb = r.get<std::uint64_t>();

  std::vector<std::int32_t> deltas(n, 0);
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t begin = c * h.chunk;
    const size_t len = std::min<size_t>(h.chunk, n - begin);
    const auto chunk_bits = r.get_bytes(chunk_bytes[c]);
    const auto symbols = huffman_decode(chunk_bits, book, len);
    for (size_t i = 0; i < len; ++i) {
      deltas[begin + i] = static_cast<std::int32_t>(symbols[i]) -
                          static_cast<std::int32_t>(h.radius);
    }
  }
  // Patch outliers (their in-stream code 0 decoded to -radius above).
  for (std::uint64_t o = 0; o < h.num_outliers; ++o) {
    const auto idx = r.get<std::uint64_t>();
    const auto delta = r.get<std::int32_t>();
    if (idx >= n) throw format_error("vsz: outlier index out of range");
    deltas[idx] = delta;
  }

  const Grid grid = h.grid();
  if (grid.count() != n) throw format_error("vsz: header grid mismatch");
  lorenzo_nd_inverse(deltas, grid);

  std::vector<float> out(n);
  const double scale = 2.0 * h.eb_abs;
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<double>(deltas[i]) * scale);
  }
  return out;
}

// ------------------------------------------------------------- device ----

DeviceCodecResult compress_device(gs::Device& dev,
                                  const gs::DeviceBuffer<float>& in,
                                  const Grid& grid, const Params& params,
                                  double eb_abs,
                                  gs::DeviceBuffer<byte_t>& out) {
  params.validate();
  const size_t n = grid.count();
  if (in.size() < n || out.size() < max_compressed_bytes(n)) {
    throw format_error("vsz::compress_device: bad buffer sizes");
  }
  const auto before = dev.snapshot();
  const std::uint32_t num_symbols = 2 * params.radius;
  constexpr size_t kTile = 65536;
  const size_t tiles = std::max<size_t>(1, div_ceil(n, kTile));
  const std::span<const float> data = in.span().first(n);

  // Kernel 1: element-wise pre-quantization.
  gs::DeviceBuffer<std::int32_t> d_deltas(dev, std::max<size_t>(1, n));
  gs::launch(dev, "vsz_quant", tiles, [&](const gs::BlockCtx& ctx) {
    const size_t begin = ctx.block_idx * kTile;
    const size_t end = std::min(n, begin + kTile);
    if (begin >= end) return;
    quantize_nd(data.subspan(begin, end - begin), eb_abs,
                d_deltas.span().subspan(begin, end - begin));
    ctx.read(gs::Stage::kQuantPredict, (end - begin) * 4);
    ctx.write(gs::Stage::kQuantPredict, (end - begin) * 4);
    ctx.ops(gs::Stage::kQuantPredict, end - begin);
  });

  // Kernels 2..: one axis-difference kernel per dimension (lines are
  // independent, so each kernel parallelises over lines).
  for (size_t axis = 0; axis < grid.ndim(); ++axis) {
    gs::launch(dev, "vsz_lorenzo_axis", 1, [&](const gs::BlockCtx& ctx) {
      axis_diff(d_deltas.span().first(n), grid, axis);
      ctx.read(gs::Stage::kQuantPredict, n * 4);
      ctx.write(gs::Stage::kQuantPredict, n * 4);
      ctx.ops(gs::Stage::kQuantPredict, n);
    });
  }

  // Kernel: symbolize + outlier append (atomic, order fixed on the host).
  gs::DeviceBuffer<std::uint16_t> d_codes(dev, std::max<size_t>(1, n));
  gs::DeviceBuffer<std::uint64_t> d_outlier_count(dev, 1, 0);
  gs::DeviceBuffer<std::uint64_t> d_outlier_idx(dev, std::max<size_t>(1, n));
  gs::DeviceBuffer<std::int32_t> d_outlier_val(dev, std::max<size_t>(1, n));
  gs::launch(dev, "vsz_symbolize", tiles, [&](const gs::BlockCtx& ctx) {
    const size_t begin = ctx.block_idx * kTile;
    const size_t end = std::min(n, begin + kTile);
    std::atomic_ref<std::uint64_t> counter(d_outlier_count[0]);
    for (size_t i = begin; i < end; ++i) {
      bool is_outlier = false;
      d_codes[i] = symbol_of(d_deltas[i], params.radius, is_outlier);
      if (is_outlier) {
        const std::uint64_t slot = counter.fetch_add(1);
        d_outlier_idx[slot] = i;
        d_outlier_val[slot] = d_deltas[i];
      }
    }
    if (end > begin) {
      ctx.read(gs::Stage::kOther, (end - begin) * 4);
      ctx.write(gs::Stage::kOther, (end - begin) * 2);
      ctx.ops(gs::Stage::kOther, end - begin);
    }
  });

  // Kernel: histogram (shared-memory style: local then atomic merge).
  gs::DeviceBuffer<std::uint64_t> d_hist(dev, num_symbols, 0);
  gs::launch(dev, "vsz_histogram", tiles, [&](const gs::BlockCtx& ctx) {
    const size_t begin = ctx.block_idx * kTile;
    const size_t end = std::min(n, begin + kTile);
    if (begin >= end) return;
    std::vector<std::uint64_t> local(num_symbols, 0);
    for (size_t i = begin; i < end; ++i) ++local[d_codes[i]];
    for (std::uint32_t s = 0; s < num_symbols; ++s) {
      if (local[s] != 0) {
        std::atomic_ref<std::uint64_t>(d_hist[s]).fetch_add(local[s]);
      }
    }
    ctx.read(gs::Stage::kHistogram, (end - begin) * 2);
    ctx.ops(gs::Stage::kHistogram, end - begin);
    ctx.write(gs::Stage::kHistogram, num_symbols * 8);
  });

  // Host: codebook build (cuSZ's CPU Huffman-tree step).
  const std::vector<std::uint64_t> h_hist = gs::to_host(dev, d_hist);
  const HuffmanCodebook book = gs::host_stage(
      dev, static_cast<std::uint64_t>(num_symbols) * 64,
      [&] { return HuffmanCodebook::build(h_hist); });
  gs::DeviceBuffer<byte_t> d_book(dev, num_symbols);
  gs::copy_h2d<byte_t>(dev, d_book, book.serialize());

  // Kernel: per-chunk Huffman encode into fixed-stride scratch.
  const size_t nchunks = n == 0 ? 0 : div_ceil<size_t>(n, params.chunk);
  const size_t stride = chunk_scratch_stride(params.chunk);
  gs::DeviceBuffer<byte_t> d_scratch(dev, std::max<size_t>(1, nchunks * stride),
                                     byte_t{0});
  gs::DeviceBuffer<std::uint64_t> d_chunk_bytes(dev,
                                                std::max<size_t>(1, nchunks), 0);
  gs::launch(dev, "vsz_encode", std::max<size_t>(1, nchunks),
             [&](const gs::BlockCtx& ctx) {
               const size_t c = ctx.block_idx;
               if (c >= nchunks) return;
               const size_t begin = c * params.chunk;
               const size_t len = std::min<size_t>(params.chunk, n - begin);
               const auto bits = huffman_encode(
                   std::span<const std::uint16_t>(d_codes.span())
                       .subspan(begin, len),
                   book);
               if (bits.size() > stride) {
                 throw format_error("vsz: chunk scratch overflow");
               }
               std::copy(bits.begin(), bits.end(),
                         d_scratch.span().begin() + c * stride);
               d_chunk_bytes[c] = bits.size();
               ctx.read(gs::Stage::kHuffman, len * 2);
               ctx.write(gs::Stage::kHuffman, bits.size() + 8);
               ctx.ops(gs::Stage::kHuffman, len);
             });

  // Host round trip: the dense scratch comes back, the CPU concatenates
  // the variable-length chunks and sorts the outlier list.
  const std::vector<byte_t> h_scratch = gs::to_host(dev, d_scratch);
  const std::vector<std::uint64_t> h_chunk_bytes = gs::to_host(dev, d_chunk_bytes);
  const std::uint64_t n_outliers = gs::to_host(dev, d_outlier_count)[0];
  std::vector<std::uint64_t> h_oidx(n_outliers);
  std::vector<std::int32_t> h_oval(n_outliers);
  gs::copy_d2h<std::uint64_t>(dev, h_oidx, d_outlier_idx, n_outliers);
  gs::copy_d2h<std::int32_t>(dev, h_oval, d_outlier_val, n_outliers);

  std::vector<Outlier> outliers(n_outliers);
  for (std::uint64_t i = 0; i < n_outliers; ++i) {
    outliers[i] = {h_oidx[i], h_oval[i]};
  }

  Header h;
  h.num_elements = n;
  h.eb_abs = eb_abs;
  h.radius = params.radius;
  h.chunk = params.chunk;
  h.num_outliers = n_outliers;
  h.ndim = static_cast<std::uint8_t>(grid.ndim());
  for (size_t a = 0; a < grid.ndim(); ++a) h.dims[a] = grid.extents[a];

  std::uint64_t total_encoded = 0;
  for (size_t c = 0; c < nchunks; ++c) total_encoded += h_chunk_bytes[c];
  h.encoded_bytes = total_encoded;

  const std::vector<byte_t> final_stream = gs::host_stage(
      dev, h_scratch.size() + total_encoded + n_outliers * 12, [&] {
        std::sort(outliers.begin(), outliers.end(),
                  [](const Outlier& a, const Outlier& b) {
                    return a.index < b.index;
                  });
        std::vector<std::vector<byte_t>> encoded(nchunks);
        for (size_t c = 0; c < nchunks; ++c) {
          const auto* src = h_scratch.data() + c * stride;
          encoded[c].assign(src, src + h_chunk_bytes[c]);
        }
        return assemble_stream(h, book, h_chunk_bytes, encoded, outliers);
      });

  if (final_stream.size() > out.size()) {
    throw format_error("vsz: output buffer too small");
  }
  gs::copy_h2d<byte_t>(dev, out, final_stream);

  DeviceCodecResult res;
  res.bytes = final_stream.size();
  res.trace = dev.snapshot() - before;
  return res;
}

DeviceCodecResult decompress_device(gs::Device& dev,
                                    const gs::DeviceBuffer<byte_t>& cmp,
                                    gs::DeviceBuffer<float>& out) {
  const Header h = Header::deserialize(cmp.span());
  dev.count([](gs::Trace& t) { t.add_d2h(Header::kSize); });
  const size_t n = h.num_elements;
  if (out.size() < n) throw format_error("vsz: output too small");
  const auto before = dev.snapshot();
  const std::uint32_t num_symbols = 2 * h.radius;
  const size_t nchunks = h.num_chunks();

  // Host preprocessing: codebook + chunk offsets.
  std::vector<byte_t> h_meta(Header::kSize + num_symbols + nchunks * 8);
  gs::copy_d2h<byte_t>(dev, h_meta, cmp, h_meta.size());
  ByteReader r(h_meta);
  (void)r.get_bytes(Header::kSize);
  const HuffmanCodebook book = HuffmanCodebook::deserialize(
      r.get_bytes(num_symbols));
  std::vector<std::uint64_t> chunk_offset(std::max<size_t>(1, nchunks), 0);
  std::vector<std::uint64_t> chunk_bytes(std::max<size_t>(1, nchunks), 0);
  gs::host_stage(dev, h_meta.size(), [&] {
    std::uint64_t off = Header::kSize + num_symbols + nchunks * 8;
    for (size_t c = 0; c < nchunks; ++c) {
      chunk_bytes[c] = r.get<std::uint64_t>();
      chunk_offset[c] = off;
      off += chunk_bytes[c];
    }
    return 0;
  });
  gs::DeviceBuffer<std::uint64_t> d_offsets(dev, chunk_offset.size());
  gs::copy_h2d<std::uint64_t>(dev, d_offsets, chunk_offset);

  // Kernel: per-chunk Huffman decode.
  gs::DeviceBuffer<std::uint16_t> d_codes(dev, std::max<size_t>(1, n));
  const std::span<const byte_t> stream = cmp.span();
  gs::launch(dev, "vsz_decode", std::max<size_t>(1, nchunks),
             [&](const gs::BlockCtx& ctx) {
               const size_t c = ctx.block_idx;
               if (c >= nchunks) return;
               const size_t begin = c * h.chunk;
               const size_t len = std::min<size_t>(h.chunk, n - begin);
               if (chunk_offset[c] + chunk_bytes[c] > stream.size()) {
                 throw format_error("vsz: truncated chunk");
               }
               const auto symbols = huffman_decode(
                   stream.subspan(chunk_offset[c], chunk_bytes[c]), book, len);
               std::copy(symbols.begin(), symbols.end(),
                         d_codes.span().begin() + begin);
               ctx.read(gs::Stage::kHuffman, chunk_bytes[c]);
               ctx.write(gs::Stage::kHuffman, len * 2);
               ctx.ops(gs::Stage::kHuffman, len);
             });

  // Host outlier merge: codes come back, outliers are patched on the CPU,
  // and the delta array is re-uploaded (the sparse-gather host step).
  std::vector<std::uint16_t> h_codes = gs::to_host(dev, d_codes);
  const size_t outlier_off = Header::kSize + num_symbols + nchunks * 8 +
                             h.encoded_bytes;
  std::vector<byte_t> h_outliers(h.num_outliers * 12);
  if (!h_outliers.empty()) {
    std::vector<byte_t> tail(cmp.size() - outlier_off);
    // Copy just the outlier region.
    std::memcpy(tail.data(), cmp.data() + outlier_off, tail.size());
    dev.count([&](gs::Trace& t) { t.add_d2h(h_outliers.size()); });
    std::copy(tail.begin(), tail.begin() + static_cast<long>(h_outliers.size()),
              h_outliers.begin());
  }
  std::vector<std::int32_t> h_deltas(std::max<size_t>(1, n));
  gs::host_stage(dev, n * 6 + h_outliers.size(), [&] {
    for (size_t i = 0; i < n; ++i) {
      h_deltas[i] = static_cast<std::int32_t>(h_codes[i]) -
                    static_cast<std::int32_t>(h.radius);
    }
    ByteReader orr(h_outliers);
    for (std::uint64_t o = 0; o < h.num_outliers; ++o) {
      const auto idx = orr.get<std::uint64_t>();
      const auto delta = orr.get<std::int32_t>();
      if (idx >= n) throw format_error("vsz: outlier index out of range");
      h_deltas[idx] = delta;
    }
    return 0;
  });
  gs::DeviceBuffer<std::int32_t> d_deltas(dev, std::max<size_t>(1, n));
  gs::copy_h2d<std::int32_t>(dev, d_deltas, h_deltas);

  // Kernels: inverse Lorenzo = one prefix-sum kernel per axis.
  const Grid grid = h.grid();
  if (grid.count() != n) throw format_error("vsz: header grid mismatch");
  for (size_t a = grid.ndim(); a-- > 0;) {
    gs::launch(dev, "vsz_lorenzo_inv_axis", 1, [&](const gs::BlockCtx& ctx) {
      axis_prefix_sum(d_deltas.span().first(n), grid, a);
      ctx.read(gs::Stage::kQuantPredict, n * 4);
      ctx.write(gs::Stage::kQuantPredict, n * 4);
      ctx.ops(gs::Stage::kQuantPredict, n);
    });
  }

  // Kernel: dequantize.
  constexpr size_t kTile = 65536;
  const size_t tiles = std::max<size_t>(1, div_ceil(n, kTile));
  const double scale = 2.0 * h.eb_abs;
  gs::launch(dev, "vsz_dequant", tiles, [&](const gs::BlockCtx& ctx) {
    const size_t begin = ctx.block_idx * kTile;
    const size_t end = std::min(n, begin + kTile);
    for (size_t i = begin; i < end; ++i) {
      out[i] = static_cast<float>(static_cast<double>(d_deltas[i]) * scale);
    }
    if (end > begin) {
      ctx.read(gs::Stage::kQuantPredict, (end - begin) * 4);
      ctx.write(gs::Stage::kQuantPredict, (end - begin) * 4);
      ctx.ops(gs::Stage::kQuantPredict, end - begin);
    }
  });

  DeviceCodecResult res;
  res.bytes = n;
  res.trace = dev.snapshot() - before;
  return res;
}

}  // namespace szp::vsz
