// Instrumentation counters for the simulated device runtime.
//
// Kernels account their global-memory traffic and arithmetic per pipeline
// stage; memcpys and host-side stages are accounted by the runtime. The
// perfmodel module turns snapshots of these counters into modeled times.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace szp::gpusim {

/// Pipeline stages used for attribution. The first four are cuSZp's own
/// stages (paper Fig. 21); the rest cover the baseline codecs.
enum class Stage : unsigned {
  kQuantPredict = 0,  // QP: pre-quantization + Lorenzo
  kFixedLenEncode,    // FE: sign map + fixed-length selection
  kGlobalSync,        // GS: prefix-sum synchronization
  kBitShuffle,        // BB: bit-shuffle + payload store
  kTransform,         // vzfp decorrelating transform
  kHistogram,         // vsz histogram
  kHuffman,           // vsz Huffman encode/decode
  kBlockEncode,       // xsz constant/nonconstant block coding
  kGather,            // scatter/gather of compressed payloads
  kOther,
  kCount_,
};

[[nodiscard]] std::string_view stage_name(Stage s);

inline constexpr unsigned kNumStages = static_cast<unsigned>(Stage::kCount_);

/// Plain-value copy of the counters; supports diffing. operator- is
/// saturating (wrap-free): a counter that is smaller in the minuend than
/// in the subtrahend yields 0 rather than wrapping to ~2^64, so a diff
/// against a later snapshot never explodes downstream byte/op totals.
struct TraceSnapshot {
  struct StageCounts {
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    std::uint64_t ops = 0;
  };
  std::array<StageCounts, kNumStages> stages{};
  std::uint64_t kernel_launches = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t d2d_bytes = 0;
  std::uint64_t host_bytes = 0;  // bytes processed by host-CPU stages
  std::uint64_t host_stages = 0;

  [[nodiscard]] TraceSnapshot operator-(const TraceSnapshot& rhs) const;

  [[nodiscard]] std::uint64_t total_device_read_bytes() const;
  [[nodiscard]] std::uint64_t total_device_write_bytes() const;
  [[nodiscard]] std::uint64_t total_ops() const;
  [[nodiscard]] std::uint64_t total_memcpy_bytes() const {
    return h2d_bytes + d2h_bytes + d2d_bytes;
  }
};

/// Thread-safe counters; owned by a Device.
class Trace {
 public:
  void add_read(Stage s, std::uint64_t bytes) {
    stages_[idx(s)].read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_write(Stage s, std::uint64_t bytes) {
    stages_[idx(s)].write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_ops(Stage s, std::uint64_t n) {
    stages_[idx(s)].ops.fetch_add(n, std::memory_order_relaxed);
  }
  void add_kernel_launch() {
    kernel_launches_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_h2d(std::uint64_t bytes) {
    h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_d2h(std::uint64_t bytes) {
    d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_d2d(std::uint64_t bytes) {
    d2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_host_stage(std::uint64_t bytes) {
    host_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    host_stages_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copy all counters. NOT atomic as a whole: each counter is loaded
  /// independently, so a kernel running concurrently can leave the copy
  /// internally inconsistent (stage A pre-update, stage B post-update).
  /// Callers must quiesce the device first — prefer Device::snapshot(),
  /// which asserts that no launch is in flight.
  [[nodiscard]] TraceSnapshot snapshot() const;

  /// Zero all counters. Same contract as snapshot(): racing a live
  /// kernel mixes pre- and post-reset values (the launch would add its
  /// remaining traffic on top of the zeroed counters, attributing part
  /// of the old run to the new epoch). Prefer Device::reset_trace().
  void reset();

 private:
  static constexpr unsigned idx(Stage s) { return static_cast<unsigned>(s); }

  struct AtomicStage {
    std::atomic<std::uint64_t> read_bytes{0};
    std::atomic<std::uint64_t> write_bytes{0};
    std::atomic<std::uint64_t> ops{0};
  };
  std::array<AtomicStage, kNumStages> stages_{};
  std::atomic<std::uint64_t> kernel_launches_{0};
  std::atomic<std::uint64_t> h2d_bytes_{0};
  std::atomic<std::uint64_t> d2h_bytes_{0};
  std::atomic<std::uint64_t> d2d_bytes_{0};
  std::atomic<std::uint64_t> host_bytes_{0};
  std::atomic<std::uint64_t> host_stages_{0};
};

// --- per-operation trace attribution -----------------------------------

/// Thread-local per-operation trace sink. The device-wide Trace can only
/// be snapshotted while the device is quiescent, which made before/after
/// diffs impossible once streams run operations concurrently. An
/// OpTraceScope on the submitting thread collects a private copy of every
/// counter the operation adds (kernel block workers receive the scope
/// pointer through BlockCtx, memcpys/host stages consult the thread-local
/// head directly), so each stream op carries its own consistent
/// TraceSnapshot without stopping the world.
///
/// Scopes nest (an engine-level scope around a codec call that itself
/// opens per-op scopes): count() walks the parent chain and adds to each
/// scope, so outer scopes see the sum of their inner ops.
class OpTraceScope {
 public:
  OpTraceScope();
  ~OpTraceScope();
  OpTraceScope(const OpTraceScope&) = delete;
  OpTraceScope& operator=(const OpTraceScope&) = delete;

  [[nodiscard]] TraceSnapshot snapshot() const { return local_.snapshot(); }
  [[nodiscard]] Trace& trace() { return local_; }
  [[nodiscard]] OpTraceScope* parent() const { return parent_; }

  /// Innermost scope on this thread (nullptr when none is open).
  [[nodiscard]] static OpTraceScope* current();

 private:
  Trace local_;
  OpTraceScope* parent_ = nullptr;
};

/// The one entry point for a device-side count: applies `fn(Trace&)` to
/// the owning Device's Trace and to every scope in the chain headed at
/// `head`. Kernel block workers pass the head captured on the launching
/// thread (BlockCtx); host-side sites go through Device::count, which
/// passes the calling thread's head.
template <typename Fn>
inline void count(Trace& device, OpTraceScope* head, const Fn& fn) {
  fn(device);
  for (OpTraceScope* s = head; s != nullptr; s = s->parent()) fn(s->trace());
}

// --- device timeline (stream op records) -------------------------------

/// Kind of one stream operation, for the device timeline and the
/// perfmodel overlap schedule (which engine an op occupies).
enum class OpKind : std::uint8_t {
  kKernel,
  kMemcpyH2D,
  kMemcpyD2H,
  kMemcpyD2D,
  kHostTask,
  kEventRecord,
  kEventWait,
};

[[nodiscard]] std::string_view op_kind_name(OpKind k);

/// One executed stream operation, appended to the owning Device's
/// timeline when timeline recording is enabled. `trace` is the op's own
/// counter diff (collected through an OpTraceScope), which is what the
/// overlap model costs; `t_begin/end_ns` are measured wall timestamps for
/// reporting only. `seq` is the submission index within the stream, so a
/// per-stream sort reconstructs FIFO order from the interleaved log.
struct OpRecord {
  std::uint32_t stream_id = 0;
  std::string stream;
  std::string name;
  OpKind kind = OpKind::kHostTask;
  std::uint64_t seq = 0;
  std::uint64_t event_id = 0;  // record/wait ops only
  std::uint64_t t_begin_ns = 0;
  std::uint64_t t_end_ns = 0;
  TraceSnapshot trace;
};

}  // namespace szp::gpusim
