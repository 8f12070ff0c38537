#include "szp/obs/lane.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <new>

namespace szp::obs {

std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSpanBegin: return "span_begin";
    case Kind::kSpanEnd: return "span_end";
    case Kind::kKernel: return "kernel";
    case Kind::kStreamOp: return "stream_op";
    case Kind::kMemcpy: return "memcpy";
    case Kind::kFault: return "fault";
    case Kind::kSalvage: return "salvage";
    case Kind::kError: return "error";
    case Kind::kLog: return "log";
    case Kind::kRequest: return "request";
    case Kind::kTrace: return "trace";
  }
  return "unknown";
}

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// Ring slots are plain Events on zero pages that are mapped on first
// touch, so a lane costs only the slots its ring cycles through. Every
// access goes through atomic_ref: a reader racing the owner reads stale,
// new or zero values, never a torn word. Stores release and loads
// acquire (plain moves on x86), so a reader that reads a value the
// owner stored also sees the owner's earlier `head` claim.
template <class T>
void put(T& field, T v) {
  std::atomic_ref<T>(field).store(v, std::memory_order_release);
}
template <class T>
T get(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_acquire);
}

std::atomic<Lane*> g_head{nullptr};
std::atomic<std::uint32_t> g_next_id{0};
std::atomic<std::uint64_t> g_reused_events{0};

std::uint64_t derived_capacity() {
  return tracing_enabled() ? kTracingCapacity : kRecordingCapacity;
}

/// Reset a lane's ring to the mode's capacity (span stack untouched).
void reset_ring(Lane& l) {
  l.seq.store(0, kRelaxed);
  l.head.store(0, kRelaxed);
  l.cap.store(derived_capacity(), kRelaxed);
}

/// Claim a free lane, or register a new one. The claimant owns it.
Lane* claim_lane() {
  for (Lane* l = lanes(); l != nullptr; l = l->next) {
    std::uint32_t free = 0;
    if (l->state.load(kRelaxed) != 0 ||
        !l->state.compare_exchange_strong(free, Lane::kLive,
                                          std::memory_order_acquire,
                                          kRelaxed)) {
      continue;
    }
    // The host-profile accumulators are already zero: Profiler::reset()
    // zeroes them before it releases the hold that kept the lane.
    g_reused_events.fetch_add(l->seq.load(kRelaxed), kRelaxed);
    reset_ring(*l);
    l->span_depth.store(0, kRelaxed);
    l->name[0].store('\0', kRelaxed);
    return l;
  }
  void* slots = ::mmap(nullptr, kTracingCapacity * sizeof(Event),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  if (slots == MAP_FAILED) throw std::bad_alloc();
  Lane* l = new Lane();  // immortal: signal-context readers walk the list
  l->slots = static_cast<Event*>(slots);
  l->id = g_next_id.fetch_add(1, kRelaxed);
  reset_ring(*l);
  Lane* old = g_head.load(kRelaxed);
  do {
    l->next = old;
  } while (!g_head.compare_exchange_weak(old, l, std::memory_order_release,
                                         kRelaxed));
  return l;
}

/// Releases the thread's lane at thread exit: a lane with no hold is
/// free for the next new thread; a held one stays until its hold clears.
struct LaneHandle {
  Lane* lane = nullptr;
  ~LaneHandle() {
    if (lane == nullptr) return;
    if ((lane->state.load(kRelaxed) & Lane::kProfHold) != 0) {
      lane->prof_end_ns.store(now_ns(), kRelaxed);
    }
    lane->state.fetch_and(~Lane::kLive, std::memory_order_release);
  }
};

}  // namespace

void set_observer(unsigned bit, bool on) {
  if (!on) {
    detail::g_mode.fetch_and(~bit, kRelaxed);
    return;
  }
  const unsigned was = detail::g_mode.fetch_or(bit, kRelaxed);
  if (bit != detail::kTracing || (was & detail::kTracing) != 0) return;
  for (Lane* l = lanes(); l != nullptr; l = l->next) {
    if (l->cap.load(kRelaxed) < kTracingCapacity) reset_ring(*l);
  }
}

Event Lane::load(std::uint64_t i) const {
  const Event& s = slots[i & (cap.load(kRelaxed) - 1)];
  Event e;
  e.ts_ns = get(s.ts_ns);
  e.dur_ns = get(s.dur_ns);
  e.trace_id = get(s.trace_id);
  // A never-written slot (a ring resized under a racing owner) is zero.
  e.cat = get(s.cat) != nullptr ? get(s.cat) : "";
  e.name = get(s.name) != nullptr ? get(s.name) : "";
  e.arg1_name = get(s.arg1_name);
  e.arg1 = get(s.arg1);
  e.arg2_name = get(s.arg2_name);
  e.arg2 = get(s.arg2);
  e.kind = get(s.kind);
  e.ph = get(s.ph);
  return e;
}

void Lane::copy_name(char (&out)[kThreadNameMax]) const {
  for (std::size_t i = 0; i < kThreadNameMax; ++i) {
    out[i] = name[i].load(kRelaxed);
  }
  out[kThreadNameMax - 1] = '\0';
}

std::string Lane::thread_name() const {
  char buf[kThreadNameMax];
  copy_name(buf);
  return buf;
}

Lane* lanes() { return g_head.load(std::memory_order_acquire); }

Lane& local_lane() {
  thread_local LaneHandle handle;
  if (handle.lane == nullptr) handle.lane = claim_lane();
  return *handle.lane;
}

void push(const Event& e, bool hold_trace) {
  Lane& l = local_lane();
  if (hold_trace && (l.state.load(kRelaxed) & Lane::kTraceHold) == 0) {
    l.state.fetch_or(Lane::kTraceHold, kRelaxed);
  }
  const std::uint64_t s = l.seq.load(kRelaxed);
  Event& slot = l.slots[s & (l.cap.load(kRelaxed) - 1)];
  // A reader that sees any of this slot's new stores also sees head > s,
  // so its re-read of head after copying tells it the slot was being
  // overwritten.
  l.head.store(s + 1, kRelaxed);
  put(slot.ts_ns, e.ts_ns);
  put(slot.dur_ns, e.dur_ns);
  put(slot.trace_id, e.trace_id);
  put(slot.cat, e.cat);
  put(slot.name, e.name);
  put(slot.arg1_name, e.arg1_name);
  put(slot.arg1, e.arg1);
  put(slot.arg2_name, e.arg2_name);
  put(slot.arg2, e.arg2);
  put(slot.kind, e.kind);
  put(slot.ph, e.ph);
  l.seq.store(s + 1, std::memory_order_release);
}

std::uint64_t reused_lane_events() {
  return g_reused_events.load(kRelaxed);
}

void clear_lanes() {
  g_reused_events.store(0, kRelaxed);
  for (Lane* l = lanes(); l != nullptr; l = l->next) {
    reset_ring(*l);
    l->span_depth.store(0, kRelaxed);
    l->state.fetch_and(~Lane::kTraceHold, kRelaxed);
  }
}

void set_thread_name(std::string_view name, bool overwrite) {
  const unsigned mode = observers();
  if (mode == 0) return;
  Lane& l = local_lane();
  if (!overwrite && l.name[0].load(kRelaxed) != '\0') return;
  const std::size_t n = std::min(name.size(), kThreadNameMax - 1);
  for (std::size_t i = 0; i < n; ++i) l.name[i].store(name[i], kRelaxed);
  l.name[n].store('\0', kRelaxed);
  // A lane named while tracing shows in the trace even if it records
  // nothing (its thread-name row).
  if ((mode & detail::kTracing) != 0) {
    l.state.fetch_or(Lane::kTraceHold, kRelaxed);
  }
}

}  // namespace szp::obs
