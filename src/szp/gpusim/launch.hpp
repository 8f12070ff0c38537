// Kernel launch: executes a grid of thread blocks on the device's worker
// pool. Each thread block is written at warp granularity (one warp per
// block, as cuSZp configures); the warp-level primitives live in warp.hpp.
#pragma once

#include <atomic>
#include <functional>

#include "szp/gpusim/device.hpp"
#include "szp/gpusim/sanitize/checker.hpp"

namespace szp::gpusim {

/// Per-block execution context handed to the kernel body.
struct BlockCtx {
  size_t block_idx = 0;
  size_t grid_blocks = 0;
  Trace* trace = nullptr;
  const std::atomic<bool>* abort_flag = nullptr;
  /// Sanitizer state for this launch; nullptr when disabled (every hook
  /// below is a single null-check then).
  sanitize::LaunchCheck* devcheck = nullptr;
  /// Profiler accumulator for this launch; nullptr when disabled (same
  /// one-branch contract as the sanitizer).
  profile::LaunchProf* prof = nullptr;
  /// Per-op trace chain captured on the launching thread (block workers
  /// run on other threads, so the thread-local head is not visible here);
  /// nullptr when no scope was open at launch.
  OpTraceScope* op_sink = nullptr;

  /// Stage counts: each adds once to the Device's Trace and once to every
  /// scope in the op_sink chain (gpusim::count). While profiling, that
  /// chain starts with the launch's own scope, whose diff is the profile.
  void read(Stage s, std::uint64_t bytes) const {
    count(*trace, op_sink, [&](Trace& t) { t.add_read(s, bytes); });
  }
  void write(Stage s, std::uint64_t bytes) const {
    count(*trace, op_sink, [&](Trace& t) { t.add_write(s, bytes); });
  }
  void ops(Stage s, std::uint64_t n) const {
    count(*trace, op_sink, [&](Trace& t) { t.add_ops(s, n); });
  }

  /// Chained-scan lookback descriptor polling. Counts toward the trace
  /// like read(), but the profiler books it in the schedule section: how
  /// many descriptors a partition walks depends on publication timing,
  /// so it must stay out of the deterministic stage counters.
  void lookback_read(Stage s, std::uint64_t bytes) const {
    read(s, bytes);
    if (prof != nullptr) prof->add_lookback_bytes(s, bytes);
  }

  [[nodiscard]] bool profiled() const { return prof != nullptr; }

  /// Timing attribution for the codec stages; kernels call this with a
  /// measured per-lane duration when `profiled()` (or tracing) is on.
  void stage_ns(Stage s, std::uint64_t ns) const {
    if (prof != nullptr) prof->add_stage_ns(s, ns);
  }

  /// Atomic-operation accounting: release publishes (descriptor stores)
  /// and read-modify-writes (checksum credits). One decoupled-lookback
  /// walk is recorded with its descriptor-read depth and spin count.
  void atomic_store_op() const {
    if (prof != nullptr) prof->count_atomic_store();
  }
  void atomic_rmw_op() const {
    if (prof != nullptr) prof->count_atomic_rmw();
  }
  void lookback(std::uint64_t depth, std::uint64_t spins) const {
    if (prof != nullptr) prof->record_lookback(depth, spins);
  }

  /// True once any block of this launch has thrown: spin-waits (e.g. the
  /// chained-scan lookback) must bail out instead of waiting on a
  /// descriptor that will never be published.
  [[nodiscard]] bool aborted() const {
    return abort_flag != nullptr &&
           abort_flag->load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t actor() const {
    return static_cast<std::uint32_t>(block_idx);
  }

  /// Racecheck happens-before edges. Kernels call these next to the
  /// release/acquire atomics they synchronize through (chained-scan flag
  /// publishes, checksum group credits); `key` is the atomic's address.
  void sync_release(const void* key) const {
    if (devcheck != nullptr) devcheck->sync_release(actor(), key);
  }
  void sync_acquire(const void* key) const {
    if (devcheck != nullptr) devcheck->sync_acquire(actor(), key);
  }

  /// Synccheck. Kernels declare divergence (set_active_mask) and the
  /// lanes arriving at each block-wide barrier; warp primitives declare
  /// their participation mask via the *_sync wrappers in warp_sync.hpp.
  void set_active_mask(std::uint32_t mask) const {
    if (devcheck != nullptr) devcheck->set_active_mask(actor(), mask);
  }
  void block_barrier(std::uint32_t arrived_mask = 0xffffffffu) const {
    if (devcheck != nullptr) devcheck->block_barrier(actor(), arrived_mask);
    if (prof != nullptr) prof->count_barrier();
  }
  void warp_op(const char* op, profile::WarpOp kind,
               std::uint32_t mask) const {
    if (devcheck != nullptr) devcheck->warp_op(actor(), op, mask);
    if (prof != nullptr) prof->count_warp_op(kind);
  }
};

namespace detail {
/// Runs `body` for block indices [0, grid_blocks) on the worker pool.
/// Blocks are claimed in increasing index order, which together with
/// yielding spin-waits guarantees forward progress for chained-scan
/// lookback even when workers outnumber hardware threads.
void run_blocks(Device& dev, const char* kernel_name, size_t grid_blocks,
                const std::function<void(const BlockCtx&)>& body);

/// Submits the launch to dev.default_stream(), which executes it inline
/// on the calling thread — identical to calling run_blocks directly, plus
/// timeline/lane attribution. Defined in stream.cpp (Stream is only
/// forward-declared here).
void launch_on_default_stream(Device& dev, const char* kernel_name,
                              size_t grid_blocks,
                              std::function<void(const BlockCtx&)> body);
}  // namespace detail

/// Launch a kernel: `body(const BlockCtx&)` is invoked once per block.
/// Synchronous — routed through the device's inline default stream, so
/// the call returns after all blocks retire and exceptions propagate.
template <typename F>
void launch(Device& dev, const char* kernel_name, size_t grid_blocks,
            F&& body) {
  detail::launch_on_default_stream(
      dev, kernel_name, grid_blocks,
      std::function<void(const BlockCtx&)>(std::forward<F>(body)));
}

}  // namespace szp::gpusim
