// Environment-variable knobs shared by the bench harnesses.
#pragma once

#include <string>

namespace szp {

/// SZP_BENCH_SCALE: multiplies the default synthetic field sizes used by
/// the figure/table benches. 1.0 keeps CI-friendly sizes; larger values
/// approach the paper's full dataset dimensions. Defaults to 1.0.
[[nodiscard]] double bench_scale();

/// SZP_BENCH_OUTDIR: directory where benches drop artifacts (PGM images,
/// CSV series). Defaults to "bench_artifacts".
[[nodiscard]] std::string bench_outdir();

/// SZP_TRACE: when set (to an output path), the obs tracer records the
/// run and writes Chrome-trace JSON there at process exit. Empty when
/// unset. Consumed by obs::init_from_env().
[[nodiscard]] std::string trace_env_path();

/// SZP_STATS: when set to anything but "" / "0", the obs metrics
/// registry collects during the run and a text summary goes to stderr at
/// process exit. Consumed by obs::init_from_env().
[[nodiscard]] bool stats_env_enabled();

/// SZP_PROFILE raw value: "" when unset, "1"/"on" for collect-only, or an
/// output path for collect + JSON export at process exit. Devices parse it
/// themselves (gpusim::profile::options_from_env); this accessor is for
/// tools/benches that want to report or branch on the setting.
[[nodiscard]] std::string profile_env_spec();

/// SZP_HOSTPROF raw value, same shape as SZP_PROFILE but for the host
/// execution profiler (obs::hostprof::options_from_env parses it).
[[nodiscard]] std::string hostprof_env_spec();

/// SZP_TELEMETRY raw value: "" when unset; "1"/"on" enables the flight
/// recorder + metrics, comma-separated directives (snapshot=<path>,
/// period=<ms>) add a periodic exposition snapshot file. Parsed by
/// obs::telemetry::init_from_env().
[[nodiscard]] std::string telemetry_env_spec();

/// SZP_LOG raw value: "" when unset, else "<level>[:<path>]" — log level
/// plus an optional JSON-lines sink path. Parsed by
/// obs::telemetry::init_from_env().
[[nodiscard]] std::string log_env_spec();

/// SZP_CRASH_DIR: directory for post-mortem crash bundles ("" when
/// unset; setting it installs the crash handler). Parsed by
/// obs::telemetry::init_from_env().
[[nodiscard]] std::string crash_dir_env();

}  // namespace szp
