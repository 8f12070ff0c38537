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
        footer.crcs[g] = checksum_group_crc(out, spans[g]);
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

/// Parse a stream header for a decoder of element type T.
template <typename T>
Header parse_header(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
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

/// The decoder's global synchronization: one validated walk of the length
/// bytes up to `r.end`, recording where each of `nchunks` chunks of the
/// range starts its payload (starts[nchunks] = end of the range's
/// payload); then v2 streams CRC-check the groups covering the range.
void locate_chunks(std::span<const byte_t> stream, const Header& h,
                   BlockRange r, size_t nchunks,
                   std::vector<std::uint64_t>& starts) {
  {
    const hostprof::ScopedTimer gs(hostprof::Bucket::kGS);
    const auto lengths = length_bytes(stream, h);
    starts.resize(nchunks + 1);
    size_t off = payload_offset(lengths.size());
    for (size_t c = 0, from = 0; c <= nchunks; ++c) {
      const size_t to =
          c < nchunks ? r.begin + chunk_range(r.end - r.begin, nchunks, c).begin
                      : r.end;
      off += scan_lengths(lengths, h, from, to, stream.size() - off)
                 .checked("decompress");
      starts[c] = off;
      from = to;
    }
  }
  const hostprof::ScopedTimer crc(hostprof::Bucket::kChecksum);
  verify_checksums(stream, h, r.begin, r.end);
}

/// The host decoder: elements [begin, end) of `stream`, one executor task
/// per chunk of the covering blocks, written straight into the result.
template <typename T>
std::vector<T> decode_host(std::span<const byte_t> stream, const Header& h,
                           size_t begin, size_t end, Executor& exec,
                           HostScratch& scratch) {
  const BlockRange r = covered_blocks(h, begin, end);
  const size_t nchunks = chunk_count(r.end - r.begin, exec);
  locate_chunks(stream, h, r, nchunks, scratch.chunk_offset);
  if (scratch.chunks.size() < nchunks) scratch.chunks.resize(nchunks);
  std::vector<T> out(end - begin);
  exec.run(nchunks, [&](size_t c) {
    const BlockRange cr = chunk_range(r.end - r.begin, nchunks, c);
    decode_blocks<T>(stream, h, r.begin + cr.begin, r.begin + cr.end,
                     scratch.chunk_offset[c], begin, out,
                     scratch.chunks[c].block);
  });
  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    prof.count(hostprof::HostCounter::kDecompressCalls);
    prof.count(hostprof::HostCounter::kBlocksDecoded, r.end - r.begin);
    prof.count(hostprof::HostCounter::kBytesRead, stream.size());
    prof.count(hostprof::HostCounter::kBytesWritten, out.size() * sizeof(T));
    prof.count(hostprof::HostCounter::kChunks, nchunks);
  }
  return out;
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
  const Header h = parse_header<float>(stream);
  return decode_host<float>(stream, h, 0, h.num_elements, exec, scratch);
}

std::vector<double> decompress_host_f64(std::span<const byte_t> stream,
                                        Executor& exec, HostScratch& scratch) {
  const Header h = parse_header<double>(stream);
  return decode_host<double>(stream, h, 0, h.num_elements, exec, scratch);
}

std::vector<float> decompress_range(std::span<const byte_t> stream,
                                    size_t begin, size_t end) {
  HostScratch scratch;
  return decode_host<float>(stream, parse_header<float>(stream), begin, end,
                            serial_executor(), scratch);
}

size_t range_payload_bytes(std::span<const byte_t> stream, size_t begin,
                           size_t end) {
  const Header h = Header::deserialize(stream);
  std::vector<std::uint64_t> starts;
  locate_chunks(stream, h, covered_blocks(h, begin, end), 1, starts);
  return starts[1] - starts[0];
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
