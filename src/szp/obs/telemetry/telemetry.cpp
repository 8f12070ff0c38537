#include "szp/obs/telemetry/telemetry.hpp"

#include <cstdlib>
#include <string>

#include "szp/obs/log.hpp"
#include "szp/obs/metrics.hpp"
#include "szp/obs/telemetry/crash_handler.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/telemetry/server.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/env.hpp"

namespace szp::obs::telemetry {

Builtins& builtins() {
  static Builtins* b = new Builtins();  // immortal, lock-free
  return *b;
}

std::uint64_t uptime_ns() { return now_ns(); }

namespace {

void shutdown_telemetry() {
  TelemetryServer::instance().stop();
  Logger::instance().flush();
}

/// Parse one comma-separated SZP_TELEMETRY directive into opts; any
/// recognized (or bare enabling) value flips `enable`.
void apply_directive(const std::string& d, TelemetryServer::Options& opts,
                     bool& enable) {
  if (d.empty() || d == "0" || d == "off") return;
  enable = true;
  if (d.rfind("port=", 0) == 0) {
    SZP_LOG_WARN("telemetry",
                 "SZP_TELEMETRY %s ignored: there is no scrape socket; use "
                 "snapshot=<path>",
                 d.c_str());
  } else if (d.rfind("snapshot=", 0) == 0) {
    opts.snapshot_path = d.substr(9);
  } else if (d.rfind("period=", 0) == 0) {
    const long ms = std::strtol(d.c_str() + 7, nullptr, 10);
    if (ms > 0) opts.snapshot_period_ms = static_cast<int>(ms);
  }
  // "1"/"on"/unknown directives: just enable.
}

}  // namespace

void init_from_env() {
  static const bool done = [] {
    // Pin the clock epoch before anything else, so uptime and every
    // event timestamp share t=0 at init.
    (void)now_ns();

    bool hooked = false;

    // SZP_LOG=<level>[:<path>]
    const std::string log_spec = szp::log_env_spec();
    if (!log_spec.empty()) {
      const std::size_t colon = log_spec.find(':');
      Logger& log = Logger::instance();
      log.set_level(parse_log_level(log_spec.substr(0, colon)));
      if (colon != std::string::npos) {
        const std::string path = log_spec.substr(colon + 1);
        if (!path.empty() && !log.set_json_sink(path)) {
          SZP_LOG_WARN("telemetry", "cannot open SZP_LOG sink %s",
                       path.c_str());
        }
      }
      hooked = true;
    }

    // SZP_TELEMETRY=1|on|snapshot=..,period=..
    const std::string spec = szp::telemetry_env_spec();
    if (!spec.empty()) {
      TelemetryServer::Options opts;
      bool enable = false;
      std::size_t start = 0;
      while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        apply_directive(spec.substr(start, end - start), opts, enable);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (enable) {
        // The always-on tier: flight recorder + builtins + exposition.
        // The registry's per-block domain instruments stay behind
        // SZP_STATS (chained below) — they cost real time in the codec
        // inner loops and would blow the <2% overhead contract.
        fr::set_enabled(true);
        TelemetryServer::instance().start(opts);
        hooked = true;
      }
    }

    // SZP_CRASH_DIR=<dir>
    const std::string crash_dir = szp::crash_dir_env();
    if (!crash_dir.empty()) {
      if (!crash::install({crash_dir})) {
        SZP_LOG_WARN("telemetry", "cannot use SZP_CRASH_DIR %s",
                     crash_dir.c_str());
      }
    }

    if (hooked) std::atexit(shutdown_telemetry);

    // Chain to the tracer/metrics env hooks (SZP_TRACE / SZP_STATS).
    obs::init_from_env();
    return true;
  }();
  (void)done;
}

}  // namespace szp::obs::telemetry
