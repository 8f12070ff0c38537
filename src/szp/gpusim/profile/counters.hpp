// Hot-path collection structures for the gpusim kernel profiler.
//
// This header is what the runtime layers (launch.hpp, view.hpp,
// buffer.hpp, warp_sync.hpp) include: a per-launch accumulator
// (LaunchProf) and a per-buffer traffic record (BufferProf), both built
// from relaxed atomics so concurrent thread blocks can account without
// locks. The aggregation/report side lives in profile.hpp / report.hpp.
//
// Disabled fast path: a Device without profiling hands out null
// LaunchProf/BufferProf pointers and every instrumentation site is a
// single null-pointer branch — the same contract as the sanitizer.
//
// Stage bytes/ops are not counted here: they are the launch's own
// gpusim::Trace diff, collected by a per-launch OpTraceScope while
// profiling (launch.cpp). This accumulator keeps only what the Trace
// lacks.
//
// Counters are split into two families:
//   * deterministic — a pure function of the input and codec config
//     (stage bytes/ops, warp-primitive counts, atomic publish/RMW
//     counts, barrier counts, per-buffer traffic). Two identical runs
//     produce identical values under any schedule.
//   * schedule/timing — wall clocks and contention artifacts (per-block
//     wall time, lookback depth/spin histograms, lookback descriptor
//     polling bytes). These vary run to run and are reported separately
//     so the deterministic section stays byte-comparable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "szp/gpusim/trace.hpp"
#include "szp/obs/profiling.hpp"

namespace szp::gpusim::profile {

/// Warp primitives the *_sync wrappers declare (warp_sync.hpp).
enum class WarpOp : std::uint8_t {
  kShfl = 0,
  kShflUp,
  kShflDown,
  kBallot,
  kInclusiveScan,
  kExclusiveScan,
  kReduceMax,
  kReduceAdd,
  kCount_,
};

inline constexpr unsigned kNumWarpOps = static_cast<unsigned>(WarpOp::kCount_);

[[nodiscard]] std::string_view warp_op_name(WarpOp op);

/// Per-buffer device traffic, hooked through the checked views: bytes
/// moved and transactions issued (one load/store or one ranged span
/// declaration = one transaction, mirroring coalesced-access accounting).
/// Owned by the profiler for the session, shared with the buffer like
/// the sanitizer's BufferShadow so views stay UAF-safe.
struct BufferProf {
  std::uint64_t id = 0;
  std::size_t elem_bytes = 0;
  std::size_t elems = 0;
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<std::uint64_t> read_transactions{0};
  std::atomic<std::uint64_t> write_transactions{0};
  std::atomic<std::uint64_t> pool_reuses{0};
  std::atomic<bool> freed{false};

  void on_read(std::uint64_t bytes) {
    read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    read_transactions.fetch_add(1, std::memory_order_relaxed);
  }
  void on_write(std::uint64_t bytes) {
    write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    write_transactions.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Per-launch accumulator. Created by the profiler at launch entry,
/// handed to every BlockCtx of the launch, archived (as a value-typed
/// LaunchProfile) at launch exit.
class LaunchProf {
 public:
  LaunchProf(std::string kernel, std::size_t grid_blocks, unsigned workers,
             std::string stream = "default")
      : kernel_(std::move(kernel)),
        stream_(std::move(stream)),
        grid_blocks_(grid_blocks),
        workers_(workers),
        block_wall_ns_(grid_blocks) {}

  // --- deterministic counters -------------------------------------------
  void count_warp_op(WarpOp op) {
    warp_ops_[static_cast<unsigned>(op)].fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  void count_atomic_store() {
    atomic_stores_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_atomic_rmw() {
    atomic_rmws_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_barrier() { barriers_.fetch_add(1, std::memory_order_relaxed); }

  // --- schedule/timing counters -----------------------------------------
  /// One decoupled-lookback walk: `depth` descriptor reads, `spins`
  /// yield-retries on unpublished descriptors. The walk count itself is
  /// deterministic (one per non-first partition); depth and spins are
  /// schedule artifacts — the hardware's "CAS retry" analogue.
  void record_lookback(std::uint64_t depth, std::uint64_t spins) {
    lookback_calls_.fetch_add(1, std::memory_order_relaxed);
    lookback_depth_.observe(depth);
    lookback_spins_.observe(spins);
  }
  /// Descriptor-polling traffic (depth * descriptor size), which the
  /// Trace books as reads of `s`. Kept out of the deterministic stage
  /// counters: how many descriptors a partition reads depends on which
  /// predecessors had published a prefix.
  void add_lookback_bytes(Stage s, std::uint64_t bytes) {
    lookback_bytes_[idx(s)].fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_stage_ns(Stage s, std::uint64_t ns) {
    stage_ns_[idx(s)].fetch_add(ns, std::memory_order_relaxed);
  }
  /// Per-block wall time; each block index is written by exactly one
  /// worker, so the slots are race-free by construction.
  void block_done(std::size_t block_idx, std::uint64_t wall_ns) {
    block_wall_ns_[block_idx].store(wall_ns, std::memory_order_relaxed);
    blocks_run_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- readbacks (aggregation side; see profile.cpp) --------------------
  [[nodiscard]] const std::string& kernel() const { return kernel_; }
  [[nodiscard]] const std::string& stream() const { return stream_; }
  [[nodiscard]] std::size_t grid_blocks() const { return grid_blocks_; }
  [[nodiscard]] unsigned workers() const { return workers_; }
  [[nodiscard]] std::uint64_t stage_ns(unsigned s) const {
    return stage_ns_[s].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t warp_op_count(unsigned op) const {
    return warp_ops_[op].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t atomic_stores() const {
    return atomic_stores_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t atomic_rmws() const {
    return atomic_rmws_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t barriers() const {
    return barriers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lookback_calls() const {
    return lookback_calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lookback_bytes(unsigned s) const {
    return lookback_bytes_[s].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_run() const {
    return blocks_run_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t block_wall_ns(std::size_t i) const {
    return block_wall_ns_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] const obs::AtomicPow2Hist<20>& lookback_depth() const {
    return lookback_depth_;
  }
  [[nodiscard]] const obs::AtomicPow2Hist<28>& lookback_spins() const {
    return lookback_spins_;
  }

 private:
  static constexpr unsigned idx(Stage s) { return static_cast<unsigned>(s); }

  std::string kernel_;
  std::string stream_;
  std::size_t grid_blocks_;
  unsigned workers_;
  std::array<std::atomic<std::uint64_t>, kNumStages> stage_ns_{};
  std::array<std::atomic<std::uint64_t>, kNumWarpOps> warp_ops_{};
  std::atomic<std::uint64_t> atomic_stores_{0};
  std::atomic<std::uint64_t> atomic_rmws_{0};
  std::atomic<std::uint64_t> barriers_{0};
  std::atomic<std::uint64_t> lookback_calls_{0};
  std::array<std::atomic<std::uint64_t>, kNumStages> lookback_bytes_{};
  obs::AtomicPow2Hist<20> lookback_depth_;
  obs::AtomicPow2Hist<28> lookback_spins_;
  std::vector<std::atomic<std::uint64_t>> block_wall_ns_;
  std::atomic<std::uint64_t> blocks_run_{0};
};

}  // namespace szp::gpusim::profile
