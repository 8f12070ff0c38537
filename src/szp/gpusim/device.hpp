// Simulated GPU device: owns the trace counters, an allocation ledger and
// the worker pool used to execute kernel thread-blocks.
//
// This is the substrate substitution for CUDA described in DESIGN.md §2:
// codecs are written as kernels against this runtime so that structural
// properties (kernel counts, host round-trips, scan forward-progress) are
// exercised by real code.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "szp/gpusim/profile/profile.hpp"
#include "szp/gpusim/sanitize/report.hpp"
#include "szp/gpusim/trace.hpp"
#include "szp/util/common.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::gpusim {

namespace sanitize {
class Checker;
}  // namespace sanitize

class Stream;

class Device {
 public:
  /// `workers` = number of host threads used to execute thread blocks.
  /// 0 picks a default based on hardware concurrency (at least 2, so the
  /// chained-scan lookback is exercised concurrently even on 1-core hosts).
  /// Sanitizer tools are picked up from SZP_DEVCHECK (sanitize::
  /// tools_from_env); throws format_error on an unknown tool name. The
  /// profiler is picked up from SZP_PROFILE (profile::options_from_env).
  explicit Device(unsigned workers = 0);

  /// Explicit sanitizer activation (tests, --devcheck tooling); ignores
  /// the environment (profiler stays off).
  Device(unsigned workers, sanitize::Tools devcheck);

  /// Explicit sanitizer + profiler activation; ignores the environment.
  Device(unsigned workers, sanitize::Tools devcheck, profile::Options prof);

  /// When env activation requested abort_on_teardown and findings exist,
  /// runs the leak sweep, prints the report to stderr and aborts — the
  /// compute-sanitizer --error-exitcode analogue for unattended runs.
  /// User Streams must be destroyed before their Device.
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Sanitizer engine; nullptr when no tool is enabled (the zero-overhead
  /// fast path: instrumentation sites check this one pointer).
  [[nodiscard]] sanitize::Checker* checker() const { return checker_.get(); }

  /// Snapshot of sanitizer findings (empty when disabled).
  [[nodiscard]] sanitize::Report sanitize_report() const;
  /// Leak sweep now (normally run at teardown). No-op when disabled.
  void sanitize_finalize();
  /// Drop collected findings (tools print-then-clear before teardown).
  void clear_sanitize_findings();

  /// Kernel profiler; nullptr when disabled (instrumentation sites check
  /// the per-launch/per-buffer pointers derived from this one).
  [[nodiscard]] profile::Profiler* profiler() const { return profiler_.get(); }

  /// Value-typed copy of everything the profiler collected (empty
  /// SessionProfile when disabled).
  [[nodiscard]] profile::SessionProfile profile_snapshot() const;
  /// Drop collected profile data; throws std::logic_error while a kernel
  /// launch is in flight (same torn-state hazard as reset_trace).
  void reset_profile();

  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Host-side count (memcpys, readbacks, host stages): adds `fn(Trace&)`
  /// once to this device's Trace and once to each OpTraceScope open on
  /// the calling thread. Kernels count through BlockCtx instead.
  template <typename Fn>
  void count(const Fn& fn) {
    gpusim::count(trace_, OpTraceScope::current(), fn);
  }

  /// Consistent counter snapshot. Throws std::logic_error if a kernel
  /// launch is in flight OR any stream still has queued/executing async
  /// operations: work still executing would keep mutating the counters,
  /// so the "snapshot" could mix values from different points in time
  /// (the Trace::snapshot()/reset() torn-read hazard). Call
  /// synchronize() first when streams are in use.
  [[nodiscard]] TraceSnapshot snapshot() const;

  /// Zero the trace counters (and restart the profile's memcpy bytes,
  /// which are read off them); same quiescence requirement as snapshot().
  void reset_trace();

  // --- async runtime (streams) ------------------------------------------

  /// The default stream: executes submitted operations inline on the
  /// caller's thread (a per-thread-default-stream analogue), which is
  /// exactly the legacy synchronous behavior — launch()/copy_* are
  /// wrappers over it. Always present.
  [[nodiscard]] Stream& default_stream();

  /// Drain every registered stream (cudaDeviceSynchronize analogue).
  /// Rethrows the first stored stream error after all streams drained.
  /// Streams must not be destroyed concurrently with this call.
  void synchronize();

  /// Async operations submitted to stream queues and not yet retired.
  /// Part of the snapshot()/reset quiescence test.
  [[nodiscard]] unsigned async_ops_pending() const {
    return async_pending_.load(std::memory_order_acquire);
  }

  /// Stream bookkeeping (called by Stream).
  void register_stream(Stream* s);
  void unregister_stream(Stream* s);
  void add_async_pending() {
    async_pending_.fetch_add(1, std::memory_order_acq_rel);
  }
  void sub_async_pending() {
    async_pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] std::uint32_t next_stream_id() {
    return next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- timeline (per-op records for overlap accounting) -----------------

  /// Opt-in recording of every stream op (kind, stream lane, wall
  /// timestamps, per-op trace). Off by default: recording allocates per
  /// op. The perfmodel overlap report consumes the result.
  void set_timeline_enabled(bool on) {
    timeline_enabled_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool timeline_enabled() const {
    return timeline_enabled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<OpRecord> timeline() const;
  void clear_timeline();
  void append_op_record(OpRecord rec);

  /// Number of launches currently executing blocks on this device.
  /// Nonzero only when observed from inside a kernel body (or another
  /// thread racing a launch).
  [[nodiscard]] unsigned launches_in_flight() const {
    return launches_in_flight_.load(std::memory_order_relaxed);
  }

  /// Launch bookkeeping (paired, called by detail::run_blocks).
  void begin_launch() {
    launches_in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_launch() {
    launches_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Allocation ledger (bytes currently registered by DeviceBuffers).
  void register_alloc(size_t bytes) {
    alloc_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void register_free(size_t bytes) {
    alloc_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] size_t bytes_allocated() const {
    return alloc_bytes_.load(std::memory_order_relaxed);
  }

  /// Fault-injection hook: invoked with the kernel name after each launch
  /// fully retires (all blocks done, no exception). Tests use it to corrupt
  /// device memory between pipeline stages. Empty by default.
  ///
  /// The hook is handed out as a shared_ptr copied under a mutex: with
  /// launches running on stream threads, set/clear from the host would
  /// otherwise race the unsynchronized read at the end of run_blocks (a
  /// hook could even be destroyed mid-invocation).
  using KernelHook = std::function<void(const std::string&)>;
  void set_post_kernel_hook(KernelHook hook);
  void clear_post_kernel_hook();
  [[nodiscard]] std::shared_ptr<const KernelHook> post_kernel_hook() const;

 private:
  unsigned workers_;
  Trace trace_;
  std::atomic<unsigned> launches_in_flight_{0};
  std::atomic<unsigned> async_pending_{0};
  std::atomic<size_t> alloc_bytes_{0};
  mutable Mutex hook_mutex_;
  std::shared_ptr<const KernelHook> post_kernel_hook_
      SZP_GUARDED_BY(hook_mutex_);
  std::unique_ptr<sanitize::Checker> checker_;
  std::unique_ptr<profile::Profiler> profiler_;

  // Async runtime state. The default stream is created eagerly (after the
  // checker, which it registers with) and runs inline; user streams
  // register here so synchronize() can drain them.
  mutable Mutex streams_mutex_;
  std::vector<Stream*> streams_ SZP_GUARDED_BY(streams_mutex_);
  std::atomic<std::uint32_t> next_stream_id_{1};  // 0 = default stream
  std::unique_ptr<Stream> default_stream_;

  std::atomic<bool> timeline_enabled_{false};
  mutable Mutex timeline_mutex_;
  std::vector<OpRecord> timeline_ SZP_GUARDED_BY(timeline_mutex_);
};

}  // namespace szp::gpusim
