#include "szp/gpusim/scan.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "szp/gpusim/view.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::gpusim {

std::uint64_t ChainedScanState::publish_and_lookback(const BlockCtx& ctx,
                                                     Stage stage, size_t p,
                                                     std::uint64_t aggregate) {
  if ((aggregate & ~kValueMask) != 0) {
    throw format_error("ChainedScanState: aggregate exceeds 62 bits");
  }
  // Raw storage: the descriptor words are the synchronization objects
  // themselves, accessed with atomic_ref; the sanitizer learns the
  // happens-before edges via the sync_release/sync_acquire hooks next to
  // each release-store / acquire-load pair.
  std::uint64_t* st = state_.raw_data();
  std::atomic_ref<std::uint64_t> self(st[p]);

  if (p == 0) {
    // Partition 0's inclusive prefix is its aggregate; publish directly.
    ctx.sync_release(&st[p]);
    self.store((kFlagPrefix << kFlagShift) | aggregate,
               std::memory_order_release);
    ctx.atomic_store_op();
    ctx.write(stage, sizeof(std::uint64_t));
    return 0;
  }

  ctx.sync_release(&st[p]);
  self.store((kFlagAggregate << kFlagShift) | aggregate,
             std::memory_order_release);
  ctx.atomic_store_op();
  ctx.write(stage, sizeof(std::uint64_t));

  const std::uint64_t t0_ns = obs::tracing_enabled() ? obs::now_ns() : 0;
  std::uint64_t exclusive = 0;
  std::uint64_t reads = 0;
  size_t i = p;
  std::uint64_t spins = 0;
  while (i > 0) {
    std::atomic_ref<std::uint64_t> pred(st[i - 1]);
    const std::uint64_t word = pred.load(std::memory_order_acquire);
    ++reads;
    const std::uint64_t flag = word >> kFlagShift;
    if (flag == kFlagPrefix) {
      ctx.sync_acquire(&st[i - 1]);
      exclusive += word & kValueMask;
      break;
    }
    if (flag == kFlagAggregate) {
      ctx.sync_acquire(&st[i - 1]);
      exclusive += word & kValueMask;
      --i;
      continue;
    }
    // Predecessor has not published yet: yield and retry. The launch
    // scheduler claims blocks in increasing order, so progress is
    // guaranteed; the cap converts a logic bug into an error, not a hang.
    // If another block of this launch threw (corrupt input), its prefix
    // will never be published — bail out instead of spinning to the cap.
    if (ctx.aborted()) {
      throw format_error("ChainedScanState: lookback aborted");
    }
    if (++spins > (std::uint64_t{1} << 34)) {
      throw format_error("ChainedScanState: lookback stalled");
    }
    std::this_thread::yield();
  }
  // Descriptor polling is schedule-dependent (how many predecessors had
  // published a prefix), so the profiler books it separately from the
  // deterministic stage counters.
  ctx.lookback_read(stage, reads * sizeof(std::uint64_t));
  ctx.lookback(reads, spins);
  // The GS tail-latency story (paper §4.3): how far this partition had to
  // walk back, and how long it spun on unpublished descriptors.
  if (obs::tracing_enabled()) {
    obs::complete("gs", "lookback", t0_ns, obs::now_ns() - t0_ns, "depth",
                  reads, "spins", spins);
  }

  ctx.sync_release(&st[p]);
  self.store((kFlagPrefix << kFlagShift) | ((exclusive + aggregate) & kValueMask),
             std::memory_order_release);
  ctx.atomic_store_op();
  ctx.write(stage, sizeof(std::uint64_t));
  return exclusive;
}

std::uint64_t ChainedScanState::inclusive_prefix(size_t p) {
  std::atomic_ref<std::uint64_t> ref(state_.raw_data()[p]);
  const std::uint64_t word = ref.load(std::memory_order_acquire);
  if ((word >> kFlagShift) != kFlagPrefix) {
    throw format_error("ChainedScanState: prefix not published");
  }
  return word & kValueMask;
}

std::uint64_t chained_exclusive_scan(Device& dev,
                                     DeviceBuffer<std::uint64_t>& data,
                                     Stage stage, size_t items_per_block) {
  const size_t n = data.size();
  if (n == 0) return 0;
  const size_t blocks = div_ceil(n, items_per_block);
  ChainedScanState scan_state(dev, blocks);

  launch(dev, "chained_exclusive_scan", blocks, [&](const BlockCtx& ctx) {
    const std::uint64_t t0 = ctx.profiled() ? obs::now_ns() : 0;
    const auto dv = device_view(data, ctx);
    const size_t begin = ctx.block_idx * items_per_block;
    const size_t end = std::min(n, begin + items_per_block);
    // Local (in-register) scan of this partition's tile.
    std::uint64_t aggregate = 0;
    for (const std::uint64_t v : dv.load_span(begin, end - begin)) {
      aggregate += v;
    }
    ctx.read(stage, (end - begin) * sizeof(std::uint64_t));

    const std::uint64_t exclusive =
        scan_state.publish_and_lookback(ctx, stage, ctx.block_idx, aggregate);

    std::uint64_t running = exclusive;
    for (std::uint64_t& slot : dv.store_span(begin, end - begin)) {
      const std::uint64_t v = slot;
      slot = running;
      running += v;
    }
    ctx.write(stage, (end - begin) * sizeof(std::uint64_t));
    if (ctx.profiled()) ctx.stage_ns(stage, obs::now_ns() - t0);
  });

  return scan_state.inclusive_prefix(blocks - 1);
}

std::uint64_t twopass_exclusive_scan(Device& dev,
                                     DeviceBuffer<std::uint64_t>& data,
                                     Stage stage, size_t items_per_block) {
  const size_t n = data.size();
  if (n == 0) return 0;
  const size_t blocks = div_ceil(n, items_per_block);
  DeviceBuffer<std::uint64_t> partials(dev, blocks, std::uint64_t{0});

  // Kernel 1: per-block reduction.
  launch(dev, "twopass_reduce", blocks, [&](const BlockCtx& ctx) {
    const std::uint64_t t0 = ctx.profiled() ? obs::now_ns() : 0;
    const auto dv = device_view(data, ctx);
    const auto pv = device_view(partials, ctx);
    const size_t begin = ctx.block_idx * items_per_block;
    const size_t end = std::min(n, begin + items_per_block);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : dv.load_span(begin, end - begin)) sum += v;
    pv.store(ctx.block_idx, sum);
    ctx.read(stage, (end - begin) * sizeof(std::uint64_t));
    ctx.write(stage, sizeof(std::uint64_t));
    if (ctx.profiled()) ctx.stage_ns(stage, obs::now_ns() - t0);
  });

  // Kernel 2: single-block scan of the partials.
  std::uint64_t total = 0;
  launch(dev, "twopass_spine", 1, [&](const BlockCtx& ctx) {
    const std::uint64_t t0 = ctx.profiled() ? obs::now_ns() : 0;
    const auto pv = device_view(partials, ctx);
    (void)pv.load_span(0, blocks);  // declare the read side of the rewrite
    std::uint64_t running = 0;
    for (std::uint64_t& slot : pv.store_span(0, blocks)) {
      const std::uint64_t v = slot;
      slot = running;
      running += v;
    }
    total = running;
    ctx.read(stage, blocks * sizeof(std::uint64_t));
    ctx.write(stage, blocks * sizeof(std::uint64_t));
    if (ctx.profiled()) ctx.stage_ns(stage, obs::now_ns() - t0);
  });

  // Kernel 3: per-block local scan + offset.
  launch(dev, "twopass_downsweep", blocks, [&](const BlockCtx& ctx) {
    const std::uint64_t t0 = ctx.profiled() ? obs::now_ns() : 0;
    const auto dv = device_view(data, ctx);
    const auto pv = device_view(partials, ctx);
    const size_t begin = ctx.block_idx * items_per_block;
    const size_t end = std::min(n, begin + items_per_block);
    std::uint64_t running = pv.load(ctx.block_idx);
    (void)dv.load_span(begin, end - begin);  // read side of the rewrite
    for (std::uint64_t& slot : dv.store_span(begin, end - begin)) {
      const std::uint64_t v = slot;
      slot = running;
      running += v;
    }
    ctx.read(stage, (end - begin + 1) * sizeof(std::uint64_t));
    ctx.write(stage, (end - begin) * sizeof(std::uint64_t));
    if (ctx.profiled()) ctx.stage_ns(stage, obs::now_ns() - t0);
  });

  return total;
}

}  // namespace szp::gpusim
