// Always-on flight recorder: a black box of recent structured events.
//
// The recorder is a reader and writer of the per-thread event lanes
// (szp/obs/lane.hpp): kernel launches, stream ops, fault/salvage events,
// errors and log records land in the calling thread's ring next to the
// request-tier spans (obs::Span with obs::kRequest). Pushes are
// lock-free and owner-only, and the lane list is immortal, so a reader —
// including the crash handler running in a signal context — walks it
// without locks or allocation. Readers tolerate a torn in-flight slot on
// a live thread: this is a crash-dump black box, not a precise trace.
//
// Overhead contract: with recording disabled every instrumentation site
// costs one relaxed atomic load and branch; enabled, a push is a clock
// read plus a handful of plain stores.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "szp/obs/lane.hpp"

namespace szp::obs::fr {

/// The one-branch fast path: every recording site checks this first.
[[nodiscard]] inline bool recording_enabled() {
  return (obs::detail::g_mode.load(std::memory_order_relaxed) &
          obs::detail::kRecording) != 0;
}

inline void set_enabled(bool on) { set_observer(obs::detail::kRecording, on); }

using obs::Kind;

namespace detail {
void record_impl(Kind k, const char* name, std::uint64_t a, std::uint64_t b);
}  // namespace detail

/// Record one event into the calling thread's lane.
inline void record(Kind k, const char* name, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
  if (!recording_enabled()) return;
  detail::record_impl(k, name, a, b);
}

/// Total events ever recorded / lost to wrap-around, across all lanes.
[[nodiscard]] std::uint64_t event_count();
[[nodiscard]] std::uint64_t dropped_events();

/// Drop all recorded events and span stacks (obs::clear_lanes()).
inline void clear() { clear_lanes(); }

/// JSON dump of every lane: {"threads": [{tid, name, dropped,
/// active_spans, events: [...]}, ...]}. Same shape the crash handler
/// emits inside a bundle.
void write_json(std::ostream& os);

/// Async-signal-safe variant of write_json: formats with nothing but
/// integer printing and write(2). Used by the crash handler; also handy
/// for tests. Returns false if any write failed.
bool dump_to_fd(int fd);

}  // namespace szp::obs::fr
