// Wall-clock span tracer for the host/device pipeline.
//
// Complements gpusim::Trace (which *counts* bytes/ops for the perfmodel)
// with *when* things happened: nestable RAII spans, instant events and
// begin/end pairs, recorded into the per-thread event lanes
// (szp/obs/lane.hpp) with a wall clock and a stable small thread id. The chrome_trace exporter turns a
// recording into Perfetto / chrome://tracing JSON where gpusim worker
// threads appear as thread-block lanes.
//
// Overhead contract: with tracing disabled (the default) every
// instrumentation site costs exactly one relaxed atomic load and branch —
// no clock read, no allocation, no lock — so the Tier-1 perf figures are
// unaffected. Enable via Tracer::set_enabled(true) or the SZP_TRACE
// environment variable (see init_from_env).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "szp/obs/lane.hpp"

namespace szp::obs {

/// One lane's trace events, returned by Tracer::collect().
struct ThreadEvents {
  std::uint32_t tid = 0;
  std::string thread_name;
  std::uint64_t overwritten = 0;  // events lost to ring wrap-around
  std::vector<Event> events;     // in recording order
};

/// The tracer's view of the lanes: the lanes holding events of the
/// current trace, which survive thread exit until clear() so that the
/// short-lived gpusim worker threads keep their lanes in the export.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { set_observer(detail::kTracing, on); }
  [[nodiscard]] bool enabled() const { return tracing_enabled(); }

  /// Record a trace event into the calling thread's lane. The enabled
  /// check is the caller's job (the Span/instant helpers do it).
  void record(const Event& e) { push(e, true); }

  /// Snapshot every lane of the current trace (exited threads' too).
  /// Exact under concurrent pushes: a slot the owner overwrote while it
  /// was copied is dropped and counted as overwritten.
  [[nodiscard]] std::vector<ThreadEvents> collect() const;

  /// Total events currently held in the current trace's lanes.
  [[nodiscard]] std::size_t event_count() const;

  /// Events lost to ring wrap-around in the current trace's lanes since
  /// the last clear(). Nonzero means exported traces have holes.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Drop all recorded events and release exited threads' lanes.
  void clear() { clear_lanes(); }

 private:
  Tracer() = default;
};

// ------------------------------------------------------------ helpers ----

/// Tag for request-tier spans: the API entry points and pipeline jobs.
/// They record whenever the flight recorder or the tracer is on, and keep
/// the per-lane active-span stack the crash handler reports.
struct RequestTier {};
inline constexpr RequestTier kRequest{};

/// RAII complete-span ('X'): clocks construction..destruction. A plain
/// span records only while tracing; a request-tier span also records a
/// span_begin event and while only the flight recorder is on.
class Span {
 public:
  Span(const char* cat, const char* name, const char* arg1_name = nullptr,
       std::uint64_t arg1 = 0, const char* arg2_name = nullptr,
       std::uint64_t arg2 = 0) {
    if (tracing_enabled()) open(false, cat, name, arg1_name, arg1, arg2_name,
                                arg2);
  }
  Span(RequestTier, const char* cat, const char* name,
       const char* arg1_name = nullptr, std::uint64_t arg1 = 0) {
    if ((observers() & (detail::kTracing | detail::kRecording)) != 0) {
      open(true, cat, name, arg1_name, arg1, nullptr, 0);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// End the span before scope exit (idempotent).
  void close() {
    if (active_) finish();
  }

 private:
  void open(bool request, const char* cat, const char* name,
            const char* arg1_name, std::uint64_t arg1, const char* arg2_name,
            std::uint64_t arg2);
  void finish();

  bool active_ = false;
  bool request_ = false;
  union {
    Event e_;  // constructed by open(): a disabled span stores nothing
  };
};

/// RAII begin/end pair ('B'/'E') — used for long-lived phases (kernel
/// launches, API entry points) so nested X spans from other threads stay
/// readable in the viewer.
class BeginEndSpan {
 public:
  BeginEndSpan(const char* cat, const char* name, const char* arg1_name,
               std::uint64_t arg1) {
    if (!tracing_enabled()) return;
    active_ = true;
    cat_ = cat;
    name_ = name;
    Event e;
    e.cat = cat;
    e.name = name;
    e.ph = Phase::kBegin;
    e.ts_ns = now_ns();
    e.arg1_name = arg1_name;
    e.arg1 = arg1;
    e.trace_id = current_trace_id();
    Tracer::instance().record(e);
  }
  BeginEndSpan(const char* cat, const char* name)
      : BeginEndSpan(cat, name, nullptr, 0) {}
  BeginEndSpan(const BeginEndSpan&) = delete;
  BeginEndSpan& operator=(const BeginEndSpan&) = delete;
  ~BeginEndSpan() {
    if (!active_) return;
    Event e;
    e.cat = cat_;
    e.name = name_;
    e.ph = Phase::kEnd;
    e.ts_ns = now_ns();
    e.trace_id = current_trace_id();
    Tracer::instance().record(e);
  }

 private:
  bool active_ = false;
  const char* cat_ = "";
  const char* name_ = "";
};

/// Zero-duration marker.
inline void instant(const char* cat, const char* name,
                    const char* arg1_name = nullptr, std::uint64_t arg1 = 0,
                    const char* arg2_name = nullptr, std::uint64_t arg2 = 0) {
  if (!tracing_enabled()) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.ph = Phase::kInstant;
  e.ts_ns = now_ns();
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  e.trace_id = current_trace_id();
  Tracer::instance().record(e);
}

/// Emit a complete span from an explicit start/duration (for call sites
/// that accumulate time across loop iterations before emitting).
inline void complete(const char* cat, const char* name, std::uint64_t ts_ns,
                     std::uint64_t dur_ns, const char* arg1_name = nullptr,
                     std::uint64_t arg1 = 0, const char* arg2_name = nullptr,
                     std::uint64_t arg2 = 0) {
  if (!tracing_enabled()) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.ph = Phase::kComplete;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  e.trace_id = current_trace_id();
  Tracer::instance().record(e);
}

/// Process the SZP_TRACE / SZP_STATS environment variables once:
///   SZP_TRACE=<path>  enable the tracer; write Chrome-trace JSON to
///                     <path> at process exit.
///   SZP_STATS=1       enable the metrics registry; print the text
///                     summary to stderr at process exit.
/// Idempotent and cheap; the bench harness calls it on every run.
void init_from_env();

}  // namespace szp::obs
