// Per-thread host execution profiler for the parallel host backend.
//
// The gpusim profiler (szp/gpusim/profile/) answers "where does the
// simulated device spend its time"; this module answers the same question
// for the engine's ThreadPool + host codec, where ROADMAP item 1's
// regression lives (4 threads slower than serial). Activation mirrors the
// kernel profiler:
//   * `SZP_HOSTPROF=1` (or `on`) — collect in memory; callers snapshot
//     explicitly (szp_cli, tests).
//   * `SZP_HOSTPROF=<path>` — additionally write the JSON report there at
//     process exit.
//   * explicit Profiler::instance().set_enabled(true) — tests/benches.
//
// Attribution model: samples accumulate in the calling thread's event
// lane (szp/obs/lane.hpp). A lane is listed from its first sample after
// reset() and survives thread exit until the next reset().
// Lane wall time (registration → snapshot) splits into
//   work     = qp + fe + gs + bb + checksum     (codec stage buckets)
//   overhead = queue_wait + dispatch + barrier  (executor buckets)
//   idle     = the unattributed residual
// so per-lane attribution always sums to 100% of lane wall time.
//
// Determinism contract: the ThreadPool claims chunks dynamically
// (fetch_add), so *per-lane* numbers vary run to run and live in the
// timing section. Counters (blocks, bytes, chunk-size histograms,
// cache-line-sharing incidents) are updated only with values that are a
// pure function of (data, params, executor width), so the counter section
// — and counter_fingerprint() — is byte-identical across runs at a fixed
// thread count.
//
// Disabled overhead is one relaxed atomic load + branch per site, under
// the same budget as the obs tracer (tests/obs/test_hostprof.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "szp/obs/lane.hpp"
#include "szp/obs/profiling.hpp"

namespace szp::obs::hostprof {

/// The one-branch fast path: every sample helper checks this first.
[[nodiscard]] inline bool enabled() {
  return (obs::detail::g_mode.load(std::memory_order_relaxed) &
          obs::detail::kHostprof) != 0;
}

/// Profiler configuration, parsed from SZP_HOSTPROF (the value's shape
/// is obs::options_from_string's).
using Options = obs::ProfilerOptions;
using obs::HistSnapshot;
using obs::options_from_string;

/// Read SZP_HOSTPROF from the environment (sets from_env when armed).
[[nodiscard]] Options options_from_env();

/// Where a sampled nanosecond interval is attributed.
enum class Bucket : unsigned {
  kQueueWait,  // worker: waiting on cv_start_ for a batch
  kDispatch,   // caller: batch publish + worker wakeup
  kQP,         // quantize + Lorenzo prediction (inverse on decode)
  kFE,         // sign split + fixed-length scan + outlier scan
  kGS,         // serial chunk-offset prefix sum / offset rebuild
  kBB,         // payload write + pass-2 scatter / payload read
  kChecksum,   // checksum-group CRC pass / verify
  kBarrier,    // caller: cv_done_ wait for the offset-pass barrier
  kCount_,
};
inline constexpr unsigned kNumBuckets = static_cast<unsigned>(Bucket::kCount_);
[[nodiscard]] std::string_view bucket_name(Bucket b);

/// Deterministic counters (see the determinism contract above).
enum class HostCounter : unsigned {
  kCompressCalls,
  kDecompressCalls,
  kBatches,         // executor batches submitted
  kTasks,           // chunk tasks submitted (sum of batch sizes)
  kBlocksEncoded,
  kBlocksDecoded,
  kBytesRead,       // element bytes in (compress) + stream bytes fetched (decode)
  kBytesWritten,    // stream bytes out (compress) + element bytes out (decode)
  kChunks,          // chunk count across calls
  kFalseSharedBoundaries,  // adjacent chunks sharing a 64B output line
  kCount_,
};
inline constexpr unsigned kNumHostCounters =
    static_cast<unsigned>(HostCounter::kCount_);
[[nodiscard]] std::string_view counter_name(HostCounter c);

// --- snapshot value types (plain data, exporter input) -----------------

struct ThreadSnapshot {
  std::uint32_t tid = 0;    // lane id, registration order
  std::string label;        // "szp-worker-0", "szp-caller-0", ...
  bool alive = true;
  std::uint64_t wall_ns = 0;  // first sample → snapshot (or exit)
  std::array<std::uint64_t, kNumBuckets> bucket_ns{};
  std::uint64_t idle_ns = 0;  // wall - sum(bucket_ns), clamped at 0
  std::uint64_t tasks = 0;    // chunk tasks this lane claimed
  std::uint64_t batches = 0;  // batches this lane submitted
};

struct Snapshot {
  std::array<std::uint64_t, kNumHostCounters> counters{};
  HistSnapshot chunk_blocks;         // blocks per compress chunk
  HistSnapshot chunk_payload_bytes;  // payload bytes per compress chunk
  std::vector<ThreadSnapshot> threads;

  [[nodiscard]] std::uint64_t counter(HostCounter c) const {
    return counters[static_cast<unsigned>(c)];
  }
};

// --- the profiler ------------------------------------------------------

/// Process-wide collector over the event lanes: per-thread samples live
/// in the lanes, the deterministic counters here.
class Profiler {
 public:
  static Profiler& instance();

  void set_enabled(bool on) { set_observer(obs::detail::kHostprof, on); }
  [[nodiscard]] bool is_enabled() const { return enabled(); }

  /// Timing samples (callers check enabled(); these always record).
  void add_time(Bucket b, std::uint64_t ns);
  void note_task();   // calling lane claimed one chunk task
  void note_batch();  // calling lane submitted one executor batch

  /// Deterministic counters (callers check enabled()).
  void count(HostCounter c, std::uint64_t n = 1);
  void observe_chunk(std::uint64_t blocks, std::uint64_t payload_bytes);

  /// Value-typed copy of everything collected so far.
  [[nodiscard]] Snapshot snapshot() const;
  /// Zero counters and lane samples; stop listing lanes until their next
  /// sample, which frees exited threads' lanes.
  void reset();

  /// SZP_HOSTPROF=<path> export target ("" = none).
  void set_export_path(std::string path);
  [[nodiscard]] std::string export_path() const;

 private:
  Profiler() = default;
  struct Registry;
  Registry& registry() const;
};

// ------------------------------------------------------------ helpers ----

/// RAII bucket timer: attributes construction..destruction to `b`.
/// One branch when disabled (no clock read).
class ScopedTimer {
 public:
  explicit ScopedTimer(Bucket b) {
    if (enabled()) {
      active_ = true;
      b_ = b;
      t0_ = now_ns();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  /// Attribute the elapsed time now instead of at scope exit (idempotent).
  void stop() {
    if (!active_) return;
    active_ = false;
    Profiler::instance().add_time(b_, now_ns() - t0_);
  }

 private:
  bool active_ = false;
  Bucket b_ = Bucket::kQueueWait;
  std::uint64_t t0_ = 0;
};

/// Timer that attributes consecutive phases of one scope to different
/// buckets: time up to each split() goes to the current bucket, the
/// remainder (to destruction or the next split) to the new one.
class SplitTimer {
 public:
  explicit SplitTimer(Bucket b) {
    if (enabled()) {
      active_ = true;
      b_ = b;
      t0_ = now_ns();
    }
  }
  SplitTimer(const SplitTimer&) = delete;
  SplitTimer& operator=(const SplitTimer&) = delete;
  ~SplitTimer() {
    if (active_) Profiler::instance().add_time(b_, now_ns() - t0_);
  }

  void split(Bucket next) {
    if (!active_) return;
    const std::uint64_t t = now_ns();
    Profiler::instance().add_time(b_, t - t0_);
    b_ = next;
    t0_ = t;
  }

 private:
  bool active_ = false;
  Bucket b_ = Bucket::kQueueWait;
  std::uint64_t t0_ = 0;
};

/// Process SZP_HOSTPROF once: enable collection, and when a path was
/// given, write the JSON report there at process exit (std::atexit).
/// Idempotent and cheap; the ThreadPool constructor calls it.
void init_from_env();

}  // namespace szp::obs::hostprof
