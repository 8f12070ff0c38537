// One per-thread event lane, shared by the span tracer, the flight
// recorder and the host profiler.
//
// A thread registers once, on the first thing any of them records, as a
// lane in an immortal, push-only intrusive list. The lane holds:
//   * the thread's id and name;
//   * one event ring: owner-only pushes claim a slot (`head`), fill it,
//     then release-store `seq`, so readers — the Chrome-trace exporter,
//     the flight-recorder dump and the crash handler in a signal context
//     — walk it without locks or allocation;
//   * the request-tier active-span stack the crash handler reports;
//   * the host profiler's bucket and task accumulators.
//
// The ring's capacity follows the mode: kRecordingCapacity while only
// recording, kTracingCapacity while tracing. Enabling the tracer grows
// every lane; clear_lanes() re-derives it. An exited thread's lane is
// kept while it holds trace events (until clear_lanes()) or host-profile
// samples (until the profiler's reset()); otherwise the next new thread
// reuses it, so the list stays as long as the live threads.
//
// Overhead contract: every instrumentation site first reads the one mode
// word (a relaxed load and a branch); nothing here runs while its
// observer is off.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "szp/obs/trace_id.hpp"

namespace szp::obs {

/// Nanoseconds on a monotonic clock, relative to process start.
[[nodiscard]] std::uint64_t now_ns();

namespace detail {
/// Observer bits of the mode word.
inline constexpr unsigned kTracing = 1;
inline constexpr unsigned kRecording = 2;
inline constexpr unsigned kHostprof = 4;
/// Inline so every fast-path check inlines into its site.
inline std::atomic<unsigned> g_mode{0};
}  // namespace detail

/// The observers that are on (detail::kTracing | kRecording | kHostprof).
[[nodiscard]] inline unsigned observers() {
  return detail::g_mode.load(std::memory_order_relaxed);
}

[[nodiscard]] inline bool tracing_enabled() {
  return (detail::g_mode.load(std::memory_order_relaxed) & detail::kTracing) !=
         0;
}

/// Turn one observer bit on or off. Turning tracing on grows every lane's
/// ring to kTracingCapacity (dropping what a smaller ring held).
void set_observer(unsigned bit, bool on);

/// Chrome trace-event phases (the exporter writes the letter); kNone
/// marks recorder-only events, which the Chrome trace skips.
enum class Phase : char {
  kNone = '\0',
  kComplete = 'X',  // span with ts + dur
  kBegin = 'B',     // begin/end pair (matched by name, same thread)
  kEnd = 'E',
  kInstant = 'i',
};

/// What an event is, as the flight-recorder dump names it.
enum class Kind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kKernel = 2,
  kStreamOp = 3,
  kMemcpy = 4,
  kFault = 5,
  kSalvage = 6,
  kError = 7,
  kLog = 8,
  kRequest = 9,
  kTrace = 10,  // a trace-tier span, instant or begin/end marker
};

[[nodiscard]] const char* kind_name(Kind k);

/// One recorded event. Names, categories and arg names must be string
/// literals (or otherwise immortal): events store the pointer, and the
/// crash handler dereferences it after a fault.
struct Event {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;    // kComplete only
  std::uint64_t trace_id = 0;  // current_trace_id() at record time
  const char* cat = "";
  const char* name = "";
  const char* arg1_name = nullptr;  // nullptr = absent
  std::uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
  Kind kind = Kind::kTrace;
  Phase ph = Phase::kNone;
};

inline constexpr std::size_t kRecordingCapacity = 256;
inline constexpr std::size_t kTracingCapacity = std::size_t{1} << 15;
/// Request-tier spans tracked per lane; deeper nesting is still counted
/// but the names are not retained.
inline constexpr std::size_t kMaxSpanDepth = 16;
inline constexpr std::size_t kThreadNameMax = 48;  // with the NUL
inline constexpr unsigned kLaneBuckets = 8;        // hostprof::kNumBuckets

/// One thread's lane. Public so readers can walk the list; every field a
/// reader touches is an atomic or immutable after registration, and the
/// ring's slots are written and read through std::atomic_ref.
struct Lane {
  /// `state` bits; a lane with state 0 is free for the next new thread.
  static constexpr std::uint32_t kLive = 1;       // owning thread running
  static constexpr std::uint32_t kTraceHold = 2;  // in the current trace
  static constexpr std::uint32_t kProfHold = 4;   // sampled since reset()

  std::uint32_t id = 0;   // stable small id, registration order
  Lane* next = nullptr;   // immutable once published
  Event* slots = nullptr; // kTracingCapacity slots, allocated untouched
  std::atomic<std::uint32_t> state{kLive};
  std::atomic<char> name[kThreadNameMax] = {};
  std::atomic<std::uint64_t> seq{0};   // events ever pushed (published)
  std::atomic<std::uint64_t> head{0};  // events whose write has begun
  std::atomic<std::uint64_t> cap{kRecordingCapacity};
  std::atomic<const char*> span_stack[kMaxSpanDepth] = {};
  std::atomic<std::uint32_t> span_depth{0};
  std::array<std::atomic<std::uint64_t>, kLaneBuckets> prof_ns{};
  std::atomic<std::uint64_t> prof_tasks{0};
  std::atomic<std::uint64_t> prof_batches{0};
  std::atomic<std::uint64_t> prof_start_ns{0};
  std::atomic<std::uint64_t> prof_end_ns{0};

  /// Event number `i` (must be within the ring window; owner may race).
  [[nodiscard]] Event load(std::uint64_t i) const;
  /// The thread name; async-signal-safe into a fixed buffer.
  void copy_name(char (&out)[kThreadNameMax]) const;
  [[nodiscard]] std::string thread_name() const;
};

/// Head of the lane list (newest first).
[[nodiscard]] Lane* lanes();

/// The calling thread's lane, registering it on first use.
[[nodiscard]] Lane& local_lane();

/// Owner-only push into the calling thread's lane. `hold_trace` marks
/// the lane as part of the current trace.
void push(const Event& e, bool hold_trace);

/// Events pushed into lanes that were since reused by another thread, so
/// that a total over the lanes stays monotonic until clear_lanes().
[[nodiscard]] std::uint64_t reused_lane_events();

/// Drop every lane's events and span stack, release the trace hold of
/// exited threads' lanes, and re-derive ring capacity from the mode.
void clear_lanes();

/// Label the calling thread in traces, dumps and profiles (truncated to
/// kThreadNameMax - 1 bytes). With `overwrite` false, only an unnamed
/// lane takes the name. A no-op while every observer is off.
void set_thread_name(std::string_view name, bool overwrite = true);

}  // namespace szp::obs
