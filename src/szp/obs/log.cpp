#include "szp/obs/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string_view>

#include "szp/obs/json.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::obs {

const char* log_level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "info";
}

LogLevel parse_log_level(std::string_view s) {
  if (s == "trace" || s == "0") return LogLevel::kTrace;
  if (s == "debug" || s == "1") return LogLevel::kDebug;
  if (s == "info" || s == "2") return LogLevel::kInfo;
  if (s == "warn" || s == "warning" || s == "3") return LogLevel::kWarn;
  if (s == "error" || s == "4") return LogLevel::kError;
  if (s == "off" || s == "none" || s == "5") return LogLevel::kOff;
  return LogLevel::kInfo;
}

struct Logger::Impl {
  mutable Mutex mutex;
  std::ofstream json_sink SZP_GUARDED_BY(mutex);
  bool stderr_sink SZP_GUARDED_BY(mutex) = true;
  // Token-bucket rate limit: refill `limit` tokens each wall second.
  std::uint64_t limit SZP_GUARDED_BY(mutex) = 200;
  std::uint64_t tokens SZP_GUARDED_BY(mutex) = 200;
  std::uint64_t window_start_ns SZP_GUARDED_BY(mutex) = 0;
  std::uint64_t pending_suppressed SZP_GUARDED_BY(mutex) = 0;
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> suppressed{0};
};

Logger& Logger::instance() {
  static Logger* l = new Logger();  // leaked: usable from exit handlers
  return *l;
}

Logger::Impl& Logger::impl() const {
  static Impl* i = new Impl();
  return *i;
}

bool Logger::set_json_sink(const std::string& path) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  if (im.json_sink.is_open()) im.json_sink.close();
  if (path.empty()) return true;
  im.json_sink.open(path, std::ios::out | std::ios::app);
  return im.json_sink.is_open();
}

void Logger::set_stderr_sink(bool on) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  im.stderr_sink = on;
}

void Logger::set_rate_limit(std::uint64_t per_sec) {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  im.limit = per_sec > 0 ? per_sec : 1;
  im.tokens = im.limit;
}

void Logger::log(LogLevel lvl, const char* component,
                 const std::string& message) {
  Impl& im = impl();
  const std::uint64_t ts = now_ns();
  const std::uint64_t trace_id = current_trace_id();

  std::uint64_t report_suppressed = 0;
  {
    const LockGuard lock(im.mutex);
    // Refill the token bucket once per wall second.
    if (ts - im.window_start_ns >= 1'000'000'000ull) {
      im.window_start_ns = ts;
      im.tokens = im.limit;
    }
    if (im.tokens == 0) {
      ++im.pending_suppressed;
      im.suppressed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    --im.tokens;
    report_suppressed = im.pending_suppressed;
    im.pending_suppressed = 0;

    if (im.json_sink.is_open()) {
      im.json_sink << "{\"ts_ns\": " << ts << ", \"level\": \""
                   << log_level_name(lvl) << "\", \"component\": ";
      write_json_string(im.json_sink, component);
      im.json_sink << ", \"trace_id\": " << trace_id << ", \"msg\": ";
      write_json_string(im.json_sink, message);
      if (report_suppressed > 0) {
        im.json_sink << ", \"suppressed\": " << report_suppressed;
      }
      im.json_sink << "}\n";
    }
    if (im.stderr_sink) {
      // Diagnostics go to stderr, never stdout: stdout belongs to data
      // outputs like --metrics-json.
      std::ostream& os = std::cerr;
      os << "[szp " << log_level_name(lvl) << ' ' << component << ']';
      if (trace_id != 0) os << " (trace=" << trace_id << ')';
      os << ' ' << message;
      if (report_suppressed > 0) {
        os << " [" << report_suppressed << " records suppressed]";
      }
      os << '\n';
    }
  }
  im.records.fetch_add(1, std::memory_order_relaxed);
  telemetry::builtins().log_records.fetch_add(1, std::memory_order_relaxed);
  if (lvl >= LogLevel::kWarn) {
    telemetry::builtins().errors.fetch_add(lvl >= LogLevel::kError ? 1 : 0,
                                           std::memory_order_relaxed);
    // Warnings and errors ride into the flight recorder so crash
    // bundles carry them; the component literal is the event name.
    fr::record(lvl >= LogLevel::kError ? fr::Kind::kError : fr::Kind::kLog,
               component, static_cast<std::uint64_t>(lvl), 0);
  }
}

void Logger::logf(LogLevel lvl, const char* component, const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  log(lvl, component, std::string(buf));
}

std::uint64_t Logger::records() const {
  return impl().records.load(std::memory_order_relaxed);
}

std::uint64_t Logger::suppressed() const {
  return impl().suppressed.load(std::memory_order_relaxed);
}

void Logger::flush() {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  if (im.json_sink.is_open()) im.json_sink.flush();
}

}  // namespace szp::obs
