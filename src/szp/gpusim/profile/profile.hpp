// gpusim kernel profiler: Nsight-Compute-style counter collection for
// the simulated device runtime.
//
// Activation mirrors the sanitizer:
//   * `SZP_PROFILE=1` (or `on`) — Devices built with the default ctor
//     collect profiles in memory; callers snapshot them explicitly
//     (szp_cli --profile, Engine::device_roundtrip).
//   * `SZP_PROFILE=<path>` — additionally registers every env-activated
//     Device with a process-wide Collector that writes the combined
//     profile JSON at exit (harness runs, ad-hoc tools).
//   * explicit `Device(workers, tools, profile::Options)` — tests.
//
// Disabled overhead is one null-pointer branch per instrumentation
// site, guarded by the same budget as the obs tracer (test_profile).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "szp/gpusim/profile/counters.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::gpusim::profile {

/// Profiler configuration, resolved once at Device construction (the
/// SZP_PROFILE value's shape is obs::options_from_string's).
using Options = obs::ProfilerOptions;
using obs::HistSnapshot;
using obs::options_from_string;

/// Read SZP_PROFILE from the environment (sets from_env when armed).
[[nodiscard]] Options options_from_env();

// --- snapshot value types (plain data, exporter input) -----------------

struct StageProfile {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;  // timing family, not deterministic

  [[nodiscard]] bool counters_empty() const {
    return read_bytes == 0 && write_bytes == 0 && ops == 0;
  }
};

/// Per-launch wall-clock load-balance statistics over the block grid.
struct BlockStats {
  std::uint64_t executed = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0;
  /// max / mean block wall time: 1.0 = perfectly balanced grid,
  /// large values = straggler blocks dominated the launch.
  double imbalance = 0;
  /// sum(block wall) / launch wall: effective blocks in flight — the
  /// simulated runtime's occupancy analogue (capped by worker count).
  double avg_concurrency = 0;
};

struct LaunchProfile {
  std::string kernel;
  /// Stream lane the launch executed on ("default" for the sync API).
  std::string stream;
  std::uint64_t grid_blocks = 0;
  unsigned workers = 0;

  // deterministic counter section
  std::array<StageProfile, kNumStages> stages{};
  std::array<std::uint64_t, kNumWarpOps> warp_ops{};
  std::uint64_t atomic_stores = 0;
  std::uint64_t atomic_rmws = 0;
  std::uint64_t barriers = 0;
  std::uint64_t lookback_calls = 0;

  // schedule section (varies run to run)
  std::uint64_t lookback_read_bytes = 0;
  HistSnapshot lookback_depth;
  HistSnapshot lookback_spins;

  // timing section
  std::uint64_t wall_ns = 0;
  BlockStats blocks;
};

struct BufferStats {
  std::uint64_t id = 0;
  std::size_t elem_bytes = 0;
  std::size_t elements = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_transactions = 0;
  std::uint64_t write_transactions = 0;
  std::uint64_t pool_reuses = 0;
  bool freed = false;
};

/// Bytes are the Device Trace's (since the last reset_profile or
/// reset_trace), so they include the codecs' header and size readbacks;
/// counts are copy_h2d/copy_d2h/copy_d2d calls.
struct MemcpyStats {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t d2d_bytes = 0;
  std::uint64_t h2d_count = 0;
  std::uint64_t d2h_count = 0;
  std::uint64_t d2d_count = 0;
};

/// Everything one Device collected: the exporter unit.
struct SessionProfile {
  unsigned workers = 0;
  std::vector<LaunchProfile> launches;
  std::vector<BufferStats> buffers;
  MemcpyStats memcpy;
};

// --- the profiler ------------------------------------------------------

/// Owned by a Device when profiling is enabled. Thread-safe: launches
/// are serialized by the Device, but buffer registration and memcpys
/// can race with snapshots from other threads. Reads memcpy bytes off
/// the owning Device's `trace`, which must outlive the profiler.
class Profiler {
 public:
  Profiler(Options opts, unsigned workers, const Trace& trace);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] const Options& options() const { return opts_; }

  /// Launch lifecycle (called from run_blocks). `stream` names the lane
  /// the launch runs on ("default" for the synchronous API); `counts` is
  /// the launch's own Trace diff.
  [[nodiscard]] std::shared_ptr<LaunchProf> begin_launch(
      std::string kernel, std::size_t grid_blocks,
      std::string stream = "default");
  void end_launch(const std::shared_ptr<LaunchProf>& lp, std::uint64_t wall_ns,
                  const TraceSnapshot& counts);

  /// Buffer lifecycle (called from DeviceBuffer).
  [[nodiscard]] std::shared_ptr<BufferProf> on_alloc(std::size_t elem_bytes,
                                                     std::size_t elems);
  /// One copy_* call of `kind` (kMemcpyH2D/D2H/D2D).
  void on_memcpy(OpKind kind);

  /// Value-typed copy of everything collected so far.
  [[nodiscard]] SessionProfile snapshot() const;
  /// Number of launches archived so far (for slicing roundtrips).
  [[nodiscard]] std::size_t launch_count() const;
  /// Drop all collected launches/buffers/memcpy totals.
  void reset();
  /// Restart the memcpy bytes at the Trace's current values.
  void rebase_memcpy();

 private:
  Options opts_;
  unsigned workers_;
  const Trace& trace_;
  mutable Mutex mu_;
  std::vector<LaunchProfile> launches_ SZP_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<BufferProf>> buffers_ SZP_GUARDED_BY(mu_);
  std::uint64_t next_buffer_id_ SZP_GUARDED_BY(mu_) = 0;
  MemcpyStats memcpy_counts_ SZP_GUARDED_BY(mu_);
  TraceSnapshot memcpy_base_ SZP_GUARDED_BY(mu_);
};

/// Archive a finished LaunchProf into a value-typed LaunchProfile; the
/// stage counters are `counts` less the lookback polling.
[[nodiscard]] LaunchProfile archive_launch(const LaunchProf& lp,
                                           std::uint64_t wall_ns,
                                           const TraceSnapshot& counts);

// --- process-wide collection for SZP_PROFILE=<path> --------------------

/// Gathers SessionProfiles from env-activated Devices and writes the
/// combined profile JSON at process exit (std::atexit, hooked on first
/// registration like obs::init_from_env).
class Collector {
 public:
  static Collector& instance();

  /// Called by env-activated Devices at teardown (and by explicit
  /// flushes); archives a finished session.
  void archive(SessionProfile session);
  /// Write all archived sessions to `path`; returns false on I/O error.
  bool write(const std::string& path) const;
  [[nodiscard]] std::size_t session_count() const;
  void set_export_path(std::string path);
  void clear();

 private:
  Collector() = default;
  mutable Mutex mu_;
  std::vector<SessionProfile> sessions_ SZP_GUARDED_BY(mu_);
  std::string export_path_ SZP_GUARDED_BY(mu_);
};

}  // namespace szp::gpusim::profile
