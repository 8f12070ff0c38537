#include "szp/core/host_codec.hpp"

#include <cstring>

#include "szp/core/random_access.hpp"
#include "szp/obs/hostprof/hostprof.hpp"

namespace szp::core {

namespace hostprof = obs::hostprof;

namespace {

/// Cache line granularity for the cross-chunk output-sharing counter.
constexpr std::uint64_t kCacheLineBytes = 64;

/// Contiguous block range [begin, end) owned by one executor task.
struct BlockRange {
  size_t begin = 0, end = 0;
};

BlockRange chunk_range(size_t nblocks, size_t nchunks, size_t c) {
  const size_t per = div_ceil(nblocks, nchunks);
  BlockRange r;
  r.begin = std::min(nblocks, c * per);
  r.end = std::min(nblocks, r.begin + per);
  return r;
}

/// Chunks worth creating for `nblocks` of work on `exec`: one per executor
/// slot, never more than the block count (empty chunks are legal but
/// pointless).
size_t chunk_count(size_t nblocks, const Executor& exec) {
  return std::max<size_t>(1,
                          std::min<size_t>(exec.width(),
                                           std::max<size_t>(1, nblocks)));
}

template <typename T>
std::vector<byte_t> compress_impl(std::span<const T> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  params.validate();
  const unsigned L = params.block_len;
  const size_t n = data.size();
  const size_t nblocks = num_blocks(n, L);
  const Header h = Header::make(params, n, eb_abs, std::is_same_v<T, double>);

  const size_t nchunks = chunk_count(nblocks, exec);
  if (scratch.chunks.size() < nchunks) scratch.chunks.resize(nchunks);
  scratch.chunk_bytes.assign(nchunks, 0);
  scratch.chunk_offset.assign(nchunks, 0);

  const size_t groups =
      num_checksum_groups(nblocks, params.checksum_group_blocks);
  const size_t footer_bytes =
      h.checksummed() ? ChecksumFooter::bytes_for(groups) : 0;

  // The length byte area is written in place during pass 1 (disjoint per
  // chunk); payload bytes go to per-chunk arenas first because their final
  // offsets are only known after the prefix sum.
  std::vector<byte_t> out(payload_offset(nblocks), byte_t{0});

  // Pass 1 (parallel): per-block quantize/predict/encode; lengths to the
  // stream, payloads to the chunk arena.
  exec.run(nchunks, [&](size_t c) {
    const BlockRange r = chunk_range(nblocks, nchunks, c);
    HostScratch::Chunk& ch = scratch.chunks[c];
    size_t used = 0;
    for (size_t b = r.begin; b < r.end; ++b) {
      size_t lane_elems = 0;
      const std::uint8_t lb =
          encode_block<T>(data, n, b, L, eb_abs, params, ch.block, lane_elems);
      out[lengths_offset() + b] = lb;
      const size_t cl = encoded_block_bytes(lb, L, params);
      if (cl == 0) continue;
      const hostprof::ScopedTimer bb(hostprof::Bucket::kBB);
      // The arena only grows: write_block_payload fills every byte, so
      // bytes left from an earlier call are overwritten, not re-zeroed.
      if (ch.payload.size() < used + cl) ch.payload.resize(used + cl);
      write_block_payload(ch.block, lb, L, params.bit_shuffle,
                          std::span(ch.payload).subspan(used, cl));
      used += cl;
    }
    scratch.chunk_bytes[c] = used;
  });

  // Global synchronization: exclusive prefix sum over the chunk totals
  // (block offsets within a chunk are implied by arena order).
  std::uint64_t total_payload = 0;
  {
    const hostprof::ScopedTimer gs(hostprof::Bucket::kGS);
    for (size_t c = 0; c < nchunks; ++c) {
      scratch.chunk_offset[c] = total_payload;
      total_payload += scratch.chunk_bytes[c];
    }
  }

  const size_t base = payload_offset(nblocks);
  out.resize(base + total_payload + footer_bytes, byte_t{0});
  h.serialize(std::span(out).first(Header::kSize));

  // Pass 2 (parallel): scatter each chunk's arena to its synchronized
  // offset — consecutive blocks are consecutive in the stream, so one
  // memcpy per chunk.
  exec.run(nchunks, [&](size_t c) {
    if (scratch.chunk_bytes[c] == 0) return;
    const hostprof::ScopedTimer bb(hostprof::Bucket::kBB);
    std::memcpy(out.data() + base + scratch.chunk_offset[c],
                scratch.chunks[c].payload.data(), scratch.chunk_bytes[c]);
  });

  if (h.checksummed()) {
    ChecksumFooter footer;
    footer.group_blocks = params.checksum_group_blocks;
    const auto spans =
        checksum_group_spans(out, h, params.checksum_group_blocks);
    footer.offsets.resize(spans.size());
    footer.crcs.resize(spans.size());
    const size_t gchunks = chunk_count(spans.size(), exec);
    exec.run(gchunks, [&](size_t c) {
      const hostprof::ScopedTimer crc(hostprof::Bucket::kChecksum);
      const BlockRange r = chunk_range(spans.size(), gchunks, c);
      for (size_t g = r.begin; g < r.end; ++g) {
        footer.offsets[g] = spans[g].payload_begin - base;
        footer.crcs[g] = checksum_group_crc(spans[g].lengths_in(out),
                                            spans[g].payload_in(out));
      }
    });
    footer.serialize(std::span(out).subspan(base + total_payload,
                                            footer_bytes));
  }

  // Deterministic counters: everything below derives from serial state
  // (submission-side sizes and the post-GS offsets), so the fingerprint is
  // stable run to run regardless of which worker claimed which chunk.
  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    prof.count(hostprof::HostCounter::kCompressCalls);
    prof.count(hostprof::HostCounter::kBlocksEncoded, nblocks);
    prof.count(hostprof::HostCounter::kBytesRead, n * sizeof(T));
    prof.count(hostprof::HostCounter::kBytesWritten, out.size());
    prof.count(hostprof::HostCounter::kChunks, nchunks);
    for (size_t c = 1; c < nchunks; ++c) {
      // Adjacent chunks whose boundary lands mid cache line: the pass-2
      // scatter has two threads writing the same 64-byte line.
      if (scratch.chunk_bytes[c] == 0 || scratch.chunk_bytes[c - 1] == 0) {
        continue;
      }
      const std::uint64_t at = base + scratch.chunk_offset[c];
      if ((at - 1) / kCacheLineBytes == at / kCacheLineBytes) {
        prof.count(hostprof::HostCounter::kFalseSharedBoundaries);
      }
    }
    for (size_t c = 0; c < nchunks; ++c) {
      const BlockRange r = chunk_range(nblocks, nchunks, c);
      prof.observe_chunk(r.end - r.begin, scratch.chunk_bytes[c]);
    }
  }
  return out;
}

/// Bounds-checked reads of a stream through a StreamFetch, counting the
/// bytes fetched.
class StreamSource {
 public:
  StreamSource(const StreamFetch& fetch, size_t size)
      : fetch_(fetch), size_(size) {}

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t fetched() const { return fetched_; }

  /// Bytes [off, off + len); format_error if they run past the stream.
  std::span<const byte_t> read(size_t off, size_t len) {
    if (off > size_ || len > size_ - off) {
      throw format_error("decompress: stream truncated");
    }
    if (len == 0) return {};
    const std::span<const byte_t> got = fetch_(off, len);
    if (got.size() != len) throw format_error("decompress: short read");
    fetched_ += len;
    return got;
  }

 private:
  const StreamFetch& fetch_;
  size_t size_;
  std::uint64_t fetched_ = 0;
};

StreamFetch in_memory(std::span<const byte_t> stream) {
  return [stream](size_t off, size_t len) { return stream.subspan(off, len); };
}

/// Parse a stream header for a decoder of element type T.
template <typename T>
Header parse_header(StreamSource& src) {
  const Header h = Header::deserialize(src.read(0, Header::kSize));
  if (h.is_f64() != std::is_same_v<T, double>) {
    throw format_error("decompress: stream data type mismatch (f32 vs f64)");
  }
  return h;
}

/// Blocks covering elements [begin, end) of a stream.
BlockRange covered_blocks(const Header& h, size_t begin, size_t end) {
  if (begin > end || end > h.num_elements) {
    throw format_error("decompress: range out of bounds");
  }
  const size_t first = begin / h.block_len;
  return {first, begin == end ? first : div_ceil(end, size_t{h.block_len})};
}

/// The fetched, verified bytes behind a block range.
struct Located {
  size_t first = 0;                  // block of lengths[0]
  std::span<const byte_t> lengths;   // length bytes of blocks [first, ...)
  size_t payload_at = 0;             // payload-area offset of payload[0]
  std::span<const byte_t> payload;
  std::vector<std::uint64_t> starts;  // payload-area offset where each
                                      // chunk starts; [nchunks] = range end
};

/// The decoders' global synchronization: fetch and verify what decoding
/// blocks `r` in `nchunks` chunks needs.
///
/// v2 seeks. The footer is the stream's last 16 + 12*G bytes, so the
/// header and the footer give every checksum group's payload start, and
/// only the groups covering `r` are fetched: their length bytes, then
/// their payload. Each covering group is checked in full before anything
/// is decoded: a budgeted scan of its length bytes, its chain (the scan
/// ends exactly at the next group's footer offset, or at the footer), and
/// the CRC of the bytes the scan assigned it. A forged footer entry
/// therefore fails a chain or CRC check.
/// v1 has no footer: it is one group starting at the payload area,
/// scanned from block 0 to r.end, with only the range's payload fetched;
/// a scan that reaches the last block must end at the stream's end.
Located locate(StreamSource& src, const Header& h, BlockRange r,
               size_t nchunks) {
  const size_t nblocks = num_blocks(h.num_elements, h.block_len);
  const size_t base = payload_offset(nblocks);
  if (src.size() < base) {
    throw format_error("decompress: truncated length area");
  }
  // Scanned blocks [first, last) in groups of `step`; payload-area offsets
  // [p0, p1) bound their payload.
  size_t step = r.end, first = 0, last = r.end, p0 = 0;
  size_t p1 = src.size() - base;
  ChecksumFooter footer;
  if (h.checksummed()) {
    step = h.checksum_group_blocks;
    const size_t groups = num_checksum_groups(nblocks, step);
    const size_t footer_bytes = ChecksumFooter::bytes_for(groups);
    if (p1 < footer_bytes) throw format_error("decompress: truncated payload");
    {
      const hostprof::ScopedTimer crc(hostprof::Bucket::kChecksum);
      footer = ChecksumFooter::deserialize(
          src.read(src.size() - footer_bytes, footer_bytes));
    }
    if (footer.group_blocks != step || footer.crcs.size() != groups) {
      throw format_error("decompress: checksum group layout mismatch");
    }
    // offsets[groups] is where the last group ends: at the footer.
    footer.offsets.push_back(p1 - footer_bytes);
    const size_t g_lo = r.begin / step;
    const size_t g_hi = r.begin == r.end ? g_lo : div_ceil(r.end, step);
    // An empty range covers no group and scans nothing.
    first = g_lo < g_hi ? g_lo * step : r.begin;
    last = g_lo < g_hi ? std::min(nblocks, g_hi * step) : r.begin;
    p0 = footer.offsets[g_lo];
    p1 = footer.offsets[g_hi];
    if (footer.offsets[0] != 0 || p0 > p1 || p1 > footer.offsets.back()) {
      throw format_error("decompress: checksum group offsets out of range");
    }
  }

  Located loc;
  loc.first = first;
  loc.lengths = src.read(lengths_offset() + first, last - first);
  if (h.checksummed()) {
    loc.payload_at = p0;
    loc.payload = src.read(base + p0, p1 - p0);
  }
  loc.starts.resize(nchunks + 1);
  const auto mark = [&](size_t m) {
    return m < nchunks
               ? r.begin + chunk_range(r.end - r.begin, nchunks, m).begin
               : r.end;
  };
  size_t pos = p0;
  size_t m = 0;
  for (size_t gf = first; gf < last; gf += step) {
    const size_t gl = std::min(last, gf + step);
    const size_t at = pos;
    hostprof::SplitTimer stage(hostprof::Bucket::kGS);
    for (size_t b = gf; b < gl;) {
      for (; m <= nchunks && mark(m) == b; ++m) loc.starts[m] = pos;
      const size_t stop = m <= nchunks ? std::min(mark(m), gl) : gl;
      pos += scan_lengths(loc.lengths, h, b - first, stop - first, p1 - pos)
                 .checked("decompress");
      b = stop;
    }
    if (!h.checksummed()) continue;
    const size_t g = gf / step;
    if (pos != footer.offsets[g + 1]) {
      throw format_error("decompress: checksum group " + std::to_string(g) +
                         " does not end at the next group's offset");
    }
    stage.split(hostprof::Bucket::kChecksum);
    if (footer.crcs[g] !=
        checksum_group_crc(loc.lengths.subspan(gf - first, gl - gf),
                           loc.payload.subspan(at - p0, pos - at))) {
      throw format_error("decompress: checksum mismatch in group " +
                         std::to_string(g));
    }
  }
  for (; m <= nchunks; ++m) loc.starts[m] = pos;
  if (!h.checksummed() && last == nblocks && pos != p1) {
    throw format_error("decompress: bytes after the last block");
  }
  if (!h.checksummed()) {
    loc.payload_at = loc.starts.front();
    loc.payload = src.read(base + loc.payload_at,
                           loc.starts.back() - loc.payload_at);
  }
  return loc;
}

/// The host decoder: elements [begin, end), one executor task per chunk
/// of the covering blocks, written straight into the result. Chunk c
/// decodes with `pooled->chunks[c]`; without pooled scratch the decode is
/// one chunk on a local lane.
template <typename T>
std::vector<T> decode_host(StreamSource& src, const Header& h, size_t begin,
                           size_t end, Executor& exec, HostScratch* pooled) {
  const BlockRange r = covered_blocks(h, begin, end);
  const size_t nchunks = pooled ? chunk_count(r.end - r.begin, exec) : 1;
  const Located loc = locate(src, h, r, nchunks);
  if (pooled && pooled->chunks.size() < nchunks) pooled->chunks.resize(nchunks);
  BlockScratch local;
  std::vector<T> out(end - begin);
  exec.run(nchunks, [&](size_t c) {
    const BlockRange cr = chunk_range(r.end - r.begin, nchunks, c);
    const size_t b0 = r.begin + cr.begin;
    decode_blocks<T>(
        h, b0, loc.lengths.subspan(b0 - loc.first, cr.end - cr.begin),
        loc.payload.subspan(loc.starts[c] - loc.payload_at,
                            loc.starts[c + 1] - loc.starts[c]),
        begin, out, pooled ? pooled->chunks[c].block : local);
  });
  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    prof.count(hostprof::HostCounter::kDecompressCalls);
    prof.count(hostprof::HostCounter::kBlocksDecoded, r.end - r.begin);
    prof.count(hostprof::HostCounter::kBytesRead, src.fetched());
    prof.count(hostprof::HostCounter::kBytesWritten, out.size() * sizeof(T));
    prof.count(hostprof::HostCounter::kChunks, nchunks);
  }
  return out;
}

template <typename T>
std::vector<T> decode_all(std::span<const byte_t> stream, Executor& exec,
                          HostScratch& scratch) {
  const StreamFetch fetch = in_memory(stream);
  StreamSource src(fetch, stream.size());
  const Header h = parse_header<T>(src);
  return decode_host<T>(src, h, 0, h.num_elements, exec, &scratch);
}

}  // namespace

Executor& serial_executor() {
  static Executor exec;
  return exec;
}

double value_range_of(std::span<const float> data) {
  if (data.empty()) return 0;
  const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
  return static_cast<double>(*mx) - static_cast<double>(*mn);
}

double value_range_of(std::span<const double> data) {
  if (data.empty()) return 0;
  const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
  return *mx - *mn;
}

std::vector<byte_t> compress_host(std::span<const float> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  return compress_impl(data, params, eb_abs, exec, scratch);
}

std::vector<byte_t> compress_host(std::span<const double> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  return compress_impl(data, params, eb_abs, exec, scratch);
}

std::vector<float> decompress_host(std::span<const byte_t> stream,
                                   Executor& exec, HostScratch& scratch) {
  return decode_all<float>(stream, exec, scratch);
}

std::vector<double> decompress_host_f64(std::span<const byte_t> stream,
                                        Executor& exec, HostScratch& scratch) {
  return decode_all<double>(stream, exec, scratch);
}

std::vector<float> decompress_range(const StreamFetch& fetch,
                                    size_t stream_size, size_t begin,
                                    size_t end) {
  StreamSource src(fetch, stream_size);
  const Header h = parse_header<float>(src);
  return decode_host<float>(src, h, begin, end, serial_executor(), nullptr);
}

std::vector<float> decompress_range(std::span<const byte_t> stream,
                                    size_t begin, size_t end) {
  return decompress_range(in_memory(stream), stream.size(), begin, end);
}

size_t range_payload_bytes(std::span<const byte_t> stream, size_t begin,
                           size_t end) {
  const StreamFetch fetch = in_memory(stream);
  StreamSource src(fetch, stream.size());
  const Header h = Header::deserialize(src.read(0, Header::kSize));
  const Located loc = locate(src, h, covered_blocks(h, begin, end), 1);
  return loc.starts[1] - loc.starts[0];
}

size_t compressed_bytes_probe(std::span<const float> data,
                              const Params& params, double eb_abs,
                              Executor& exec, HostScratch& scratch) {
  params.validate();
  const unsigned L = params.block_len;
  const size_t nblocks = num_blocks(data.size(), L);
  const size_t nchunks = chunk_count(nblocks, exec);
  if (scratch.chunks.size() < nchunks) scratch.chunks.resize(nchunks);
  scratch.chunk_bytes.assign(nchunks, 0);
  exec.run(nchunks, [&](size_t c) {
    const BlockRange r = chunk_range(nblocks, nchunks, c);
    HostScratch::Chunk& ch = scratch.chunks[c];
    std::uint64_t bytes = 0;
    for (size_t b = r.begin; b < r.end; ++b) {
      size_t elems = 0;
      const std::uint8_t lb = encode_block<float>(data, data.size(), b, L,
                                                  eb_abs, params, ch.block,
                                                  elems);
      bytes += encoded_block_bytes(lb, L, params);
    }
    scratch.chunk_bytes[c] = bytes;
  });
  size_t total = payload_offset(nblocks);
  for (size_t c = 0; c < nchunks; ++c) total += scratch.chunk_bytes[c];
  if (params.checksum_group_blocks > 0) {
    total += ChecksumFooter::bytes_for(
        num_checksum_groups(nblocks, params.checksum_group_blocks));
  }
  return total;
}

}  // namespace szp::core
