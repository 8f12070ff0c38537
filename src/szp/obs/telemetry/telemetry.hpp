// Always-on telemetry substrate: built-in counters/gauges that are live
// from process start (no enable flag — they are plain relaxed atomics
// touched only at request granularity, never per element), plus the
// one-call environment initializer the CLI tools run at startup.
//
// Env knobs (see docs/OBSERVABILITY.md):
//   SZP_TELEMETRY  "1"/"on" enables the flight recorder + metrics
//                  registry; comma-separated directives add exposition:
//                    snapshot=<path> periodically write the exposition
//                                    text to <path> (atomic rename)
//                    period=<ms>     snapshot period (default 1000)
//                  (a port=<n> directive logs a warning: there is no
//                  scrape socket)
//   SZP_LOG        <level>[:<path>] — set the log level; with a path,
//                  add a JSON-lines sink there.
//   SZP_CRASH_DIR  <dir> — install the crash handler; fatal signals /
//                  unhandled exceptions write a post-mortem bundle
//                  into <dir>.
#pragma once

#include <atomic>
#include <cstdint>

namespace szp::obs::telemetry {

/// Built-in always-on instruments. Separate from obs::Registry because
/// (a) they must be readable from a signal context (no mutex) and
/// (b) they are on even when SZP_STATS-style metrics are off.
struct Builtins {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::int64_t> queue_depth{0};    // pipeline jobs in flight
  std::atomic<std::int64_t> pool_in_use{0};    // gpusim buffer-pool slots
  std::atomic<std::uint64_t> log_records{0};
  /// Trace ID of the most recently completed request (exposition
  /// attaches it to szp_requests_total as an exemplar).
  std::atomic<std::uint64_t> last_trace_id{0};
};

/// The process-wide instance (immortal, lock-free).
[[nodiscard]] Builtins& builtins();

/// Monotonic ns since process start (same epoch as obs::now_ns()).
[[nodiscard]] std::uint64_t uptime_ns();

/// Process SZP_TELEMETRY / SZP_LOG / SZP_CRASH_DIR once (idempotent),
/// and chain to obs::init_from_env() for SZP_TRACE / SZP_STATS. Safe to
/// call from every tool main().
void init_from_env();

}  // namespace szp::obs::telemetry
