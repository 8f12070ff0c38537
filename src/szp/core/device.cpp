#include "szp/core/device.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "szp/core/block_codec.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/gpusim/scan.hpp"
#include "szp/gpusim/view.hpp"
#include "szp/gpusim/warp.hpp"
#include "szp/gpusim/warp_sync.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::core {

namespace gs = gpusim;
namespace w = gpusim::warp;

namespace {

/// szp-blocks handled per warp: one per lane, as in the CUDA kernel.
constexpr size_t kBlocksPerWarp = w::kWarpSize;

/// In-kernel bookkeeping for the v2 checksum footer. Each warp credits its
/// blocks once their stream bytes are final; the credit that completes a
/// checksum group CRCs that group, and the credit that completes the LAST
/// group runs `on_all` (footer write on compress, footer check on
/// decompress). This keeps integrity inside the single codec kernel — no
/// extra launch, no host stage — exactly as the CUDA kernel would chain it
/// off global atomics after its Global-Synchronization step.
class GroupChecksumState {
 public:
  GroupChecksumState(size_t nblocks, unsigned group_blocks)
      : group_blocks_(group_blocks),
        nblocks_(nblocks),
        groups_(num_checksum_groups(nblocks, group_blocks)),
        begins_(groups_, 0),
        ends_(groups_, 0),
        crcs_(groups_, 0),
        counts_(groups_) {}

  [[nodiscard]] size_t groups() const { return groups_; }
  [[nodiscard]] std::uint64_t begin(size_t g) const { return begins_[g]; }
  [[nodiscard]] std::uint32_t crc(size_t g) const { return crcs_[g]; }
  /// Stream offset just past the payload (== footer position); only valid
  /// once every group has completed.
  [[nodiscard]] std::uint64_t footer_offset() const { return ends_.back(); }

  /// Publish block `b`'s payload extent [off, off+len) if it opens or
  /// closes a group. Must precede the owning warp's credit() call.
  void publish_boundary(size_t b, std::uint64_t off, std::uint64_t len) {
    const size_t g = b / group_blocks_;
    if (b % group_blocks_ == 0) begins_[g] = off;
    if (b + 1 == nblocks_ || (b + 1) % group_blocks_ == 0) {
      ends_[g] = off + len;
    }
  }

  /// Credit blocks [first, first+count) as final in `stream`. The
  /// release/acquire ordering on the group counters makes every earlier
  /// warp's payload writes visible to whichever warp ends up CRC-ing;
  /// the sync_release/sync_acquire hooks teach the sanitizer's racecheck
  /// the same edges. `view` is the stream's checked device view (mutable
  /// on compress, const on decompress), used to declare the CRC reads.
  template <typename View, typename OnAll>
  void credit(std::span<const byte_t> stream, const View& view,
              const gs::BlockCtx& ctx, size_t first, size_t count,
              OnAll&& on_all) {
    if (count == 0) return;
    const size_t g_lo = first / group_blocks_;
    const size_t g_hi = (first + count - 1) / group_blocks_;
    for (size_t g = g_lo; g <= g_hi; ++g) {
      const size_t gfirst = g * group_blocks_;
      const size_t glast = std::min(nblocks_, gfirst + group_blocks_);
      const auto add = static_cast<std::uint32_t>(
          std::min(first + count, glast) - std::max(first, gfirst));
      const auto size = static_cast<std::uint32_t>(glast - gfirst);
      ctx.sync_release(&counts_[g]);
      ctx.atomic_rmw_op();
      if (counts_[g].fetch_add(add, std::memory_order_acq_rel) + add !=
          size) {
        continue;
      }
      // Last contributor: every byte of group g is in place (and every
      // earlier contributor's clock is joined through the counter).
      ctx.sync_acquire(&counts_[g]);
      const GroupSpan span{gfirst, glast, begins_[g], ends_[g]};
      (void)view.load_span(lengths_offset() + span.first_block,
                           span.last_block - span.first_block);
      (void)view.load_span(span.payload_begin,
                           span.payload_end - span.payload_begin);
      crcs_[g] = checksum_group_crc(span.lengths_in(stream),
                                    span.payload_in(stream));
      const std::uint64_t covered = (span.last_block - span.first_block) +
                                    (span.payload_end - span.payload_begin);
      ctx.read(gs::Stage::kOther, covered);
      ctx.ops(gs::Stage::kOther, covered);
      ctx.sync_release(&done_);
      ctx.atomic_rmw_op();
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == groups_) {
        ctx.sync_acquire(&done_);
        on_all();
      }
    }
  }

 private:
  unsigned group_blocks_;
  size_t nblocks_;
  size_t groups_;
  std::vector<std::uint64_t> begins_, ends_;
  std::vector<std::uint32_t> crcs_;
  std::vector<std::atomic<std::uint32_t>> counts_;
  std::atomic<size_t> done_{0};
};

}  // namespace

size_t max_compressed_bytes(size_t n, unsigned block_len,
                            unsigned checksum_group_blocks) {
  const size_t nblocks = num_blocks(n, block_len);
  // 1 length byte + worst-case (F=31 -> 32 bit planes incl. sign map) plus
  // the outlier side record, plus the integrity footer.
  return Header::kSize + nblocks +
         nblocks * (static_cast<size_t>(block_len) * 4 + kOutlierExtraBytes) +
         ChecksumFooter::bytes_for(
             num_checksum_groups(nblocks, checksum_group_blocks));
}

template <typename T>
DeviceCodecResult compress_device_impl(gs::Device& dev,
                                       const gs::DeviceBuffer<T>& in, size_t n,
                                       const Params& params, double eb_abs,
                                       gs::DeviceBuffer<byte_t>& out) {
  params.validate();
  const unsigned L = params.block_len;
  const size_t nblocks = num_blocks(n, L);
  if (out.size() < max_compressed_bytes(n, L, params.checksum_group_blocks)) {
    throw format_error("compress_device: output buffer too small");
  }
  // Per-call attribution without stopping the world: a device-wide
  // snapshot diff would throw once other streams have ops in flight.
  const gs::OpTraceScope op_trace;

  const Header h =
      Header::make(params, n, eb_abs, std::is_same_v<T, double>);

  const size_t base = payload_offset(nblocks);
  const size_t warps = std::max<size_t>(1, div_ceil(nblocks, kBlocksPerWarp));
  const std::span<const T> data = in.span().first(n);
  const std::span<byte_t> stream = out.span();

  std::optional<GroupChecksumState> chk;
  if (h.checksummed()) chk.emplace(nblocks, params.checksum_group_blocks);
  // Footer writer; runs inside the kernel, on the warp whose group credit
  // completed the last checksum group.
  const auto write_footer = [&](const gs::BlockCtx& ctx) {
    ChecksumFooter footer;
    footer.group_blocks = params.checksum_group_blocks;
    footer.offsets.reserve(chk->groups());
    footer.crcs.reserve(chk->groups());
    for (size_t g = 0; g < chk->groups(); ++g) {
      footer.offsets.push_back(chk->begin(g) - base);
      footer.crcs.push_back(chk->crc(g));
    }
    const size_t off = chk->groups() == 0 ? base : chk->footer_offset();
    const auto sv = gs::device_view(out, ctx);
    footer.serialize(sv.store_span(off, footer.bytes()));
    ctx.write(gs::Stage::kOther, footer.bytes());
  };

  std::uint64_t total_payload = 0;

  if (params.scan == ScanAlgo::kChained) {
    // --- The paper's design: everything in ONE kernel. ---
    gs::ChainedScanState scan_state(dev, warps);

    gs::launch(dev, "szp_compress", warps, [&](const gs::BlockCtx& ctx) {
      const auto dv = gs::device_view(in, ctx);
      const auto sv = gs::device_view(out, ctx);
      if (ctx.block_idx == 0) {
        h.serialize(sv.store_span(0, Header::kSize));
        ctx.write(gs::Stage::kOther, Header::kSize);
      }
      std::array<BlockScratch, w::kWarpSize> scratch;
      std::array<std::uint8_t, w::kWarpSize> lbs{};
      w::Lanes<std::uint64_t> lane_len{};
      size_t elems = 0, nonzero_elems = 0, payload_bytes = 0;
      const size_t first_block = ctx.block_idx * kBlocksPerWarp;
      // Declare this warp's slice of the input to the sanitizer (the
      // encode_block calls below read it through the captured raw span).
      const size_t in_begin = std::min(n, first_block * L);
      const size_t in_end =
          std::min(n, (first_block + kBlocksPerWarp) * size_t{L});
      (void)dv.load_span(in_begin, in_end - in_begin);

      // S1+S2: per-lane quantization, prediction, fixed-length selection.
      // QP time is the encode_block calls; the remaining loop body (length
      // selection + length-byte store) is attributed to FE.
      const bool tr = obs::tracing_enabled();
      const bool tm = tr || ctx.profiled();
      const std::uint64_t sec0 = tm ? obs::now_ns() : 0;
      std::uint64_t qp_ns = 0;
      for (unsigned lane = 0; lane < w::kWarpSize; ++lane) {
        const size_t block = first_block + lane;
        if (block >= nblocks) continue;
        size_t lane_elems = 0;
        const std::uint64_t lane_t0 = tm ? obs::now_ns() : 0;
        lbs[lane] = encode_block<T>(data, n, block, L, eb_abs, params,
                                    scratch[lane], lane_elems);
        if (tm) qp_ns += obs::now_ns() - lane_t0;
        elems += lane_elems;
        lane_len[lane] = encoded_block_bytes(lbs[lane], L, params);
        if (lane_len[lane] > 0) nonzero_elems += L;
        sv.store(lengths_offset() + block, lbs[lane]);
      }
      const size_t active = std::min(kBlocksPerWarp, nblocks - first_block);
      ctx.read(gs::Stage::kQuantPredict, elems * sizeof(T));
      ctx.ops(gs::Stage::kQuantPredict, elems);
      ctx.ops(gs::Stage::kFixedLenEncode, elems + nonzero_elems);
      ctx.write(gs::Stage::kFixedLenEncode, active);
      if (tm) {
        const std::uint64_t sec1 = obs::now_ns();
        const std::uint64_t fe_ns =
            sec1 - sec0 > qp_ns ? sec1 - sec0 - qp_ns : 0;
        ctx.stage_ns(gs::Stage::kQuantPredict, qp_ns);
        ctx.stage_ns(gs::Stage::kFixedLenEncode, fe_ns);
        if (tr) {
          // Emit back-to-back so the lane nests cleanly in trace viewers;
          // durations are the measured split of the fused S1+S2 loop.
          obs::complete("stage", "QP", sec0, qp_ns, "blocks", active);
          obs::complete("stage", "FE", sec0 + qp_ns, fe_ns, "blocks", active);
        }
      }

      // S3: warp-level scan (shuffle) + global chained scan.
      obs::Span gs_span("stage", "GS", "warp", ctx.block_idx);
      const std::uint64_t gs_t0 = tm ? obs::now_ns() : 0;
      const w::Lanes<std::uint64_t> lane_off =
          w::exclusive_scan_sync(ctx, w::kFullMask, lane_len);
      const std::uint64_t aggregate =
          w::reduce_add_sync(ctx, w::kFullMask, lane_len);
      const std::uint64_t prefix = scan_state.publish_and_lookback(
          ctx, gs::Stage::kGlobalSync, ctx.block_idx, aggregate);
      // One offset computed per block plus one restore per non-zero block.
      ctx.ops(gs::Stage::kGlobalSync, active + nonzero_elems / L);
      if (tm) ctx.stage_ns(gs::Stage::kGlobalSync, obs::now_ns() - gs_t0);
      gs_span.close();

      // S4: bit-shuffle payload store at the synchronized offsets.
      obs::Span bb_span("stage", "BB", "warp", ctx.block_idx);
      const std::uint64_t bb_t0 = tm ? obs::now_ns() : 0;
      for (unsigned lane = 0; lane < w::kWarpSize; ++lane) {
        const size_t block = first_block + lane;
        if (block >= nblocks || lane_len[lane] == 0) continue;
        const size_t off = base + prefix + lane_off[lane];
        write_block_payload(scratch[lane], lbs[lane], L, params.bit_shuffle,
                            sv.store_span(off, lane_len[lane]));
        payload_bytes += lane_len[lane];
      }
      ctx.write(gs::Stage::kBitShuffle, payload_bytes);
      // Shuffle register work runs per element of every non-zero block.
      ctx.ops(gs::Stage::kBitShuffle, nonzero_elems);
      if (tm) ctx.stage_ns(gs::Stage::kBitShuffle, obs::now_ns() - bb_t0);
      bb_span.close();

      // S5 (format v2): credit finished blocks to their checksum groups;
      // completing a group CRCs it, completing the last writes the footer.
      if (chk) {
        for (unsigned lane = 0; lane < active; ++lane) {
          chk->publish_boundary(first_block + lane,
                                base + prefix + lane_off[lane],
                                lane_len[lane]);
        }
        chk->credit(stream, sv, ctx, first_block, active,
                    [&] { write_footer(ctx); });
        if (chk->groups() == 0 && ctx.block_idx == 0) write_footer(ctx);
      }
    });

    total_payload = scan_state.inclusive_prefix(warps - 1);
    dev.trace().add_d2h(sizeof(std::uint64_t));  // compressed size readback
    gs::for_each_op_trace(
        [](gs::Trace& t) { t.add_d2h(sizeof(std::uint64_t)); });
  } else {
    // --- Two-pass ablation: multi-kernel (lengths, scan, payload). ---
    gs::DeviceBuffer<std::uint64_t> lens(dev, std::max<size_t>(1, nblocks), 0);

    gs::launch(dev, "szp_lengths", warps, [&](const gs::BlockCtx& ctx) {
      const auto dv = gs::device_view(in, ctx);
      const auto sv = gs::device_view(out, ctx);
      const auto lv = gs::device_view(lens, ctx);
      if (ctx.block_idx == 0) {
        h.serialize(sv.store_span(0, Header::kSize));
        ctx.write(gs::Stage::kOther, Header::kSize);
      }
      BlockScratch scratch;
      size_t elems = 0, nonzero_elems = 0;
      const size_t first_block = ctx.block_idx * kBlocksPerWarp;
      const size_t in_begin = std::min(n, first_block * L);
      const size_t in_end =
          std::min(n, (first_block + kBlocksPerWarp) * size_t{L});
      (void)dv.load_span(in_begin, in_end - in_begin);
      const bool tm = ctx.profiled();
      const std::uint64_t sec0 = tm ? obs::now_ns() : 0;
      std::uint64_t qp_ns = 0;
      for (unsigned lane = 0; lane < w::kWarpSize; ++lane) {
        const size_t block = first_block + lane;
        if (block >= nblocks) continue;
        size_t lane_elems = 0;
        const std::uint64_t lane_t0 = tm ? obs::now_ns() : 0;
        const std::uint8_t lb = encode_block<T>(data, n, block, L, eb_abs,
                                                params, scratch, lane_elems);
        if (tm) qp_ns += obs::now_ns() - lane_t0;
        elems += lane_elems;
        const size_t cl = encoded_block_bytes(lb, L, params);
        if (cl > 0) nonzero_elems += L;
        lv.store(block, cl);
        sv.store(lengths_offset() + block, lb);
      }
      ctx.read(gs::Stage::kQuantPredict, elems * sizeof(T));
      ctx.ops(gs::Stage::kQuantPredict, elems);
      ctx.ops(gs::Stage::kFixedLenEncode, elems + nonzero_elems);
      ctx.write(gs::Stage::kFixedLenEncode,
                std::min(kBlocksPerWarp, nblocks - first_block) +
                    kBlocksPerWarp * sizeof(std::uint64_t));
      if (tm) {
        const std::uint64_t total = obs::now_ns() - sec0;
        ctx.stage_ns(gs::Stage::kQuantPredict, qp_ns);
        ctx.stage_ns(gs::Stage::kFixedLenEncode,
                     total > qp_ns ? total - qp_ns : 0);
      }
    });

    total_payload = gs::twopass_exclusive_scan(dev, lens,
                                               gs::Stage::kGlobalSync);

    gs::launch(dev, "szp_payload", warps, [&](const gs::BlockCtx& ctx) {
      const auto dv = gs::device_view(in, ctx);
      const auto sv = gs::device_view(out, ctx);
      const auto lv = gs::device_view(lens, ctx);
      BlockScratch scratch;
      size_t elems = 0, payload_bytes = 0;
      const size_t first_block = ctx.block_idx * kBlocksPerWarp;
      const size_t in_begin = std::min(n, first_block * L);
      const size_t in_end =
          std::min(n, (first_block + kBlocksPerWarp) * size_t{L});
      (void)dv.load_span(in_begin, in_end - in_begin);
      const bool tm = ctx.profiled();
      const std::uint64_t sec0 = tm ? obs::now_ns() : 0;
      std::uint64_t qp_ns = 0;
      for (unsigned lane = 0; lane < w::kWarpSize; ++lane) {
        const size_t block = first_block + lane;
        if (block >= nblocks) continue;
        const auto lb =
            static_cast<std::uint8_t>(sv.load(lengths_offset() + block));
        const size_t cl = encoded_block_bytes(lb, L, params);
        if (cl == 0) continue;
        size_t lane_elems = 0;
        const std::uint64_t lane_t0 = tm ? obs::now_ns() : 0;
        // Re-derive the quantized block (no inter-kernel scratch survives).
        (void)encode_block<T>(data, n, block, L, eb_abs, params, scratch,
                              lane_elems);
        if (tm) qp_ns += obs::now_ns() - lane_t0;
        elems += lane_elems;
        write_block_payload(scratch, lb, L, params.bit_shuffle,
                            sv.store_span(base + lv.load(block), cl));
        payload_bytes += cl;
      }
      ctx.read(gs::Stage::kQuantPredict, elems * sizeof(T));
      ctx.ops(gs::Stage::kQuantPredict, elems);
      ctx.write(gs::Stage::kBitShuffle, payload_bytes);
      ctx.ops(gs::Stage::kBitShuffle, payload_bytes);
      if (tm) {
        const std::uint64_t total = obs::now_ns() - sec0;
        ctx.stage_ns(gs::Stage::kQuantPredict, qp_ns);
        ctx.stage_ns(gs::Stage::kBitShuffle,
                     total > qp_ns ? total - qp_ns : 0);
      }
    });
    dev.trace().add_d2h(sizeof(std::uint64_t));
    gs::for_each_op_trace(
        [](gs::Trace& t) { t.add_d2h(sizeof(std::uint64_t)); });

    // The multi-kernel ablation checksums in a fourth kernel (one group
    // per lane), reusing the scanned offsets still sitting in `lens`.
    if (h.checksummed()) {
      const unsigned gb = params.checksum_group_blocks;
      const size_t groups = num_checksum_groups(nblocks, gb);
      ChecksumFooter footer;
      footer.group_blocks = gb;
      footer.offsets.resize(groups);
      footer.crcs.resize(groups);
      const size_t cwarps = std::max<size_t>(1, div_ceil(groups,
                                                         kBlocksPerWarp));
      gs::launch(dev, "szp_checksum", cwarps, [&](const gs::BlockCtx& ctx) {
        const auto sv = gs::device_view(out, ctx);
        const auto lv = gs::device_view(lens, ctx);
        const bool tm = ctx.profiled();
        const std::uint64_t sec0 = tm ? obs::now_ns() : 0;
        std::uint64_t covered = 0;
        for (unsigned lane = 0; lane < w::kWarpSize; ++lane) {
          const size_t g = ctx.block_idx * kBlocksPerWarp + lane;
          if (g >= groups) continue;
          GroupSpan span;
          span.first_block = g * gb;
          span.last_block = std::min(nblocks, span.first_block + gb);
          span.payload_begin = base + lv.load(span.first_block);
          span.payload_end = span.last_block == nblocks
                                 ? base + total_payload
                                 : base + lv.load(span.last_block);
          footer.offsets[g] = span.payload_begin - base;
          (void)sv.load_span(lengths_offset() + span.first_block,
                             span.last_block - span.first_block);
          (void)sv.load_span(span.payload_begin,
                             span.payload_end - span.payload_begin);
          footer.crcs[g] = checksum_group_crc(span.lengths_in(stream),
                                              span.payload_in(stream));
          covered += (span.last_block - span.first_block) +
                     (span.payload_end - span.payload_begin);
        }
        ctx.read(gs::Stage::kOther, covered);
        ctx.ops(gs::Stage::kOther, covered);
        if (tm) ctx.stage_ns(gs::Stage::kOther, obs::now_ns() - sec0);
      });
      const auto hv = gs::host_view(out);
      footer.serialize(hv.store_span(base + total_payload, footer.bytes()));
      dev.trace().add_write(gs::Stage::kOther, footer.bytes());
      gs::for_each_op_trace(
          [&](gs::Trace& t) { t.add_write(gs::Stage::kOther, footer.bytes()); });
    }
  }

  const size_t footer_bytes =
      h.checksummed() ? ChecksumFooter::bytes_for(num_checksum_groups(
                            nblocks, params.checksum_group_blocks))
                      : 0;

  DeviceCodecResult res;
  res.bytes = base + total_payload + footer_bytes;
  res.trace = op_trace.snapshot();
  return res;
}

template <typename T>
DeviceCodecResult decompress_device_impl(gs::Device& dev,
                                         const gs::DeviceBuffer<byte_t>& cmp,
                                         gs::DeviceBuffer<T>& out,
                                         size_t stream_bytes) {
  // The logical stream may be shorter than the buffer holding it (pooled
  // leases round sizes up): truncation checks must measure the stream,
  // not the lease's capacity.
  if (stream_bytes == 0) stream_bytes = cmp.size();
  if (stream_bytes > cmp.size()) {
    throw format_error("decompress_device: stream_bytes exceeds buffer");
  }
  // Header fields (n, eb, L) travel with the API call in the CUDA tool;
  // reading them costs one tiny D2H.
  const Header h = Header::deserialize(cmp.span().first(stream_bytes));
  if (h.is_f64() != std::is_same_v<T, double>) {
    throw format_error("decompress_device: stream data type mismatch");
  }
  dev.trace().add_d2h(Header::kSize);
  gs::for_each_op_trace([](gs::Trace& t) { t.add_d2h(Header::kSize); });
  const unsigned L = h.block_len;
  const size_t n = h.num_elements;
  const size_t nblocks = num_blocks(n, L);
  if (out.size() < n) {
    throw format_error("decompress_device: output buffer too small");
  }
  // Per-call attribution without stopping the world: a device-wide
  // snapshot diff would throw once other streams have ops in flight.
  const gs::OpTraceScope op_trace;
  if (stream_bytes < payload_offset(nblocks)) {
    throw format_error("decompress_device: truncated length area");
  }

  const size_t base = payload_offset(nblocks);
  const size_t warps = std::max<size_t>(1, div_ceil(nblocks, kBlocksPerWarp));
  const std::span<const byte_t> stream = cmp.span().first(stream_bytes);
  const std::span<T> data = out.span().first(n);
  gs::ChainedScanState scan_state(dev, warps);

  std::optional<GroupChecksumState> chk;
  if (h.checksummed()) chk.emplace(nblocks, h.checksum_group_blocks);
  // Footer checker; runs inside the kernel once every group's actual CRC
  // is known, on the warp whose credit completed the last group.
  const auto check_footer = [&](const gs::BlockCtx& ctx) {
    const size_t footer_off = chk->groups() == 0 ? base : chk->footer_offset();
    if (footer_off > stream.size()) {
      throw format_error("decompress_device: truncated payload");
    }
    const auto cv = gs::device_view(cmp, ctx);
    (void)cv.load_span(footer_off, stream.size() - footer_off);
    const ChecksumFooter footer =
        ChecksumFooter::deserialize(stream.subspan(footer_off));
    ctx.read(gs::Stage::kOther, footer.bytes());
    if (footer.group_blocks != h.checksum_group_blocks ||
        footer.crcs.size() != chk->groups()) {
      throw format_error("decompress_device: checksum group layout mismatch");
    }
    // A v2 stream ends at its footer, as the host decoders require.
    if (footer_off + footer.bytes() != stream.size()) {
      throw format_error("decompress_device: bytes after the footer");
    }
    for (size_t g = 0; g < chk->groups(); ++g) {
      if (footer.offsets[g] != chk->begin(g) - base ||
          footer.crcs[g] != chk->crc(g)) {
        throw format_error("decompress_device: checksum mismatch in group " +
                           std::to_string(g));
      }
    }
  };

  gs::launch(dev, "szp_decompress", warps, [&](const gs::BlockCtx& ctx) {
    const auto cv = gs::device_view(cmp, ctx);
    const auto ov = gs::device_view(out, ctx);
    std::array<std::uint8_t, w::kWarpSize> lbs{};
    w::Lanes<std::uint64_t> lane_len{};
    const size_t first_block = ctx.block_idx * kBlocksPerWarp;
    const size_t active = std::min(kBlocksPerWarp, nblocks - first_block);
    // Declare this warp's output slice (zero-fill or decode fills every
    // element of it through the captured raw span below).
    const size_t out_begin = std::min(n, first_block * size_t{L});
    const size_t out_end =
        std::min(n, (first_block + kBlocksPerWarp) * size_t{L});
    (void)ov.store_span(out_begin, out_end - out_begin);

    // Read per-block length bytes (FE is nearly free in decompression).
    const bool tr = obs::tracing_enabled();
    const bool tm = tr || ctx.profiled();
    obs::Span fe_span("stage", "FE", "warp", ctx.block_idx);
    const std::uint64_t fe_t0 = tm ? obs::now_ns() : 0;
    size_t nonzero_blocks = 0;
    (void)cv.load_span(lengths_offset() + first_block, active);
    for (unsigned lane = 0; lane < active; ++lane) {
      lbs[lane] = stream[lengths_offset() + first_block + lane];
      if (!valid_length_byte(lbs[lane])) {
        throw format_error("decompress_device: invalid length byte");
      }
      lane_len[lane] = block_payload_bytes(lbs[lane], L,
                                           h.zero_block_bypass());
      if (lane_len[lane] > 0) ++nonzero_blocks;
    }
    ctx.read(gs::Stage::kFixedLenEncode, active);
    ctx.ops(gs::Stage::kFixedLenEncode, active);
    if (tm) ctx.stage_ns(gs::Stage::kFixedLenEncode, obs::now_ns() - fe_t0);
    fe_span.close();

    obs::Span gs_span("stage", "GS", "warp", ctx.block_idx);
    const std::uint64_t gs_t0 = tm ? obs::now_ns() : 0;
    const w::Lanes<std::uint64_t> lane_off =
        w::exclusive_scan_sync(ctx, w::kFullMask, lane_len);
    const std::uint64_t aggregate =
        w::reduce_add_sync(ctx, w::kFullMask, lane_len);
    const std::uint64_t prefix = scan_state.publish_and_lookback(
        ctx, gs::Stage::kGlobalSync, ctx.block_idx, aggregate);
    ctx.ops(gs::Stage::kGlobalSync, active + nonzero_blocks);
    if (tm) ctx.stage_ns(gs::Stage::kGlobalSync, obs::now_ns() - gs_t0);
    gs_span.close();

    // BB time is the payload unshuffle (read_block_payload); the rest of
    // the decode loop (inverse prediction + dequantize + store) is QP.
    const std::uint64_t sec0 = tm ? obs::now_ns() : 0;
    std::uint64_t bb_ns = 0;
    BlockScratch scratch;
    size_t elems = 0, payload_bytes = 0;
    for (unsigned lane = 0; lane < active; ++lane) {
      const size_t block = first_block + lane;
      const size_t begin = block * L;
      const size_t len = std::min<size_t>(L, n - begin);
      elems += len;
      if (lane_len[lane] == 0) {
        std::fill(data.begin() + begin, data.begin() + begin + len, T{0});
        continue;
      }
      const size_t off = base + prefix + lane_off[lane];
      if (off + lane_len[lane] > stream.size()) {
        throw format_error("decompress_device: truncated payload");
      }
      const std::uint64_t lane_t0 = tm ? obs::now_ns() : 0;
      (void)cv.load_span(off, lane_len[lane]);
      read_block_payload(stream.subspan(off, lane_len[lane]), lbs[lane], L,
                         h.bit_shuffle(), scratch);
      if (tm) bb_ns += obs::now_ns() - lane_t0;
      reconstruct_block(h, std::span<std::int32_t>(scratch.quant), 0,
                        data.subspan(begin, len));
      payload_bytes += lane_len[lane];
    }
    ctx.read(gs::Stage::kBitShuffle, payload_bytes);
    ctx.ops(gs::Stage::kBitShuffle, nonzero_blocks * L);
    ctx.write(gs::Stage::kQuantPredict, elems * sizeof(T));
    // Reverse QP = prefix-sum + scale: two passes over the block.
    ctx.ops(gs::Stage::kQuantPredict, 2 * elems);
    if (tm) {
      const std::uint64_t sec1 = obs::now_ns();
      const std::uint64_t dq_ns =
          sec1 - sec0 > bb_ns ? sec1 - sec0 - bb_ns : 0;
      ctx.stage_ns(gs::Stage::kBitShuffle, bb_ns);
      ctx.stage_ns(gs::Stage::kQuantPredict, dq_ns);
      if (tr) {
        // Back-to-back synthetic split of the fused decode loop (see the
        // matching QP/FE emission in the compress kernel).
        obs::complete("stage", "BB", sec0, bb_ns, "blocks", active);
        obs::complete("stage", "QP", sec0 + bb_ns, dq_ns, "blocks", active);
      }
    }

    // Format v2: verify group CRCs alongside decoding. Block outputs are
    // discarded when any group (or the footer itself) fails.
    if (chk) {
      for (unsigned lane = 0; lane < active; ++lane) {
        chk->publish_boundary(first_block + lane,
                              base + prefix + lane_off[lane],
                              lane_len[lane]);
      }
      chk->credit(stream, cv, ctx, first_block, active,
                  [&] { check_footer(ctx); });
      if (chk->groups() == 0 && ctx.block_idx == 0) check_footer(ctx);
    }
  });

  DeviceCodecResult res;
  res.bytes = n;
  res.trace = op_trace.snapshot();
  return res;
}

DeviceCodecResult compress_device(gs::Device& dev,
                                  const gs::DeviceBuffer<float>& in, size_t n,
                                  const Params& params, double eb_abs,
                                  gs::DeviceBuffer<byte_t>& out) {
  return compress_device_impl(dev, in, n, params, eb_abs, out);
}

DeviceCodecResult compress_device_f64(gs::Device& dev,
                                      const gs::DeviceBuffer<double>& in,
                                      size_t n, const Params& params,
                                      double eb_abs,
                                      gs::DeviceBuffer<byte_t>& out) {
  return compress_device_impl(dev, in, n, params, eb_abs, out);
}

DeviceCodecResult decompress_device(gs::Device& dev,
                                    const gs::DeviceBuffer<byte_t>& cmp,
                                    gs::DeviceBuffer<float>& out,
                                    size_t stream_bytes) {
  return decompress_device_impl(dev, cmp, out, stream_bytes);
}

DeviceCodecResult decompress_device_f64(gs::Device& dev,
                                        const gs::DeviceBuffer<byte_t>& cmp,
                                        gs::DeviceBuffer<double>& out,
                                        size_t stream_bytes) {
  return decompress_device_impl(dev, cmp, out, stream_bytes);
}

}  // namespace szp::core
