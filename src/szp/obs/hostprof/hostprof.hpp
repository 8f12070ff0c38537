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
// Attribution model: every instrumented thread owns a lane, registered
// lazily on its first sample and surviving thread exit until reset().
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

#include "szp/obs/tracer.hpp"  // now_ns()

namespace szp::obs::hostprof {

namespace detail {
/// Global enable flag; inline so the fast-path check inlines everywhere.
inline std::atomic<bool> g_hostprof{false};
}  // namespace detail

/// The one-branch fast path: every sample helper checks this first.
[[nodiscard]] inline bool enabled() {
  return detail::g_hostprof.load(std::memory_order_relaxed);
}

/// Profiler configuration, parsed from SZP_HOSTPROF.
struct Options {
  bool enabled = false;
  bool from_env = false;
  /// Non-empty when SZP_HOSTPROF named a file: the JSON report is written
  /// there at process exit.
  std::string export_path;

  [[nodiscard]] static Options off() { return {}; }
  [[nodiscard]] static Options on() {
    Options o;
    o.enabled = true;
    return o;
  }
};

/// Parse an SZP_HOSTPROF-style value: "" / "0" / "off" → disabled,
/// "1" / "on" → collect only, anything else → collect + export path.
[[nodiscard]] Options options_from_string(std::string_view spec);

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

struct HistSnapshot {
  std::vector<std::uint64_t> buckets;  // pow2 buckets, bucket i ~ bit_width i
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
};

struct ThreadSnapshot {
  std::uint32_t tid = 0;    // hostprof lane id, registration order
  std::string label;        // "szp-worker-0", "szp-caller", ...
  bool alive = true;
  std::uint64_t wall_ns = 0;  // lane registration → snapshot (or exit)
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

/// Process-wide collector. Threads register a lane lazily on their first
/// sample; lanes survive thread exit until reset() so short-lived worker
/// pools keep their rows in the report.
class Profiler {
 public:
  static Profiler& instance();

  void set_enabled(bool on) {
    detail::g_hostprof.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool is_enabled() const { return enabled(); }

  /// Timing samples (callers check enabled(); these always record).
  void add_time(Bucket b, std::uint64_t ns);
  void note_task();   // calling lane claimed one chunk task
  void note_batch();  // calling lane submitted one executor batch

  /// Label the calling lane "<prefix><index>" if it has no label yet.
  void label_thread(std::string_view prefix, unsigned index);
  /// Label the calling lane unconditionally.
  void set_thread_label(std::string label);

  /// Deterministic counters (callers check enabled()).
  void count(HostCounter c, std::uint64_t n = 1);
  void observe_chunk(std::uint64_t blocks, std::uint64_t payload_bytes);

  /// Value-typed copy of everything collected so far.
  [[nodiscard]] Snapshot snapshot() const;
  /// Zero counters and live lanes; drop lanes of exited threads.
  void reset();

  /// SZP_HOSTPROF=<path> export target ("" = none).
  void set_export_path(std::string path);
  [[nodiscard]] std::string export_path() const;

  // Implementation detail (public so the thread-local registration helper
  // in hostprof.cpp can hold a shared_ptr to its lane).
  struct ThreadSlot;

 private:
  Profiler() = default;
  [[nodiscard]] ThreadSlot& local_slot();
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
