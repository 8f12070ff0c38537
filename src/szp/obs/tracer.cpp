#include "szp/obs/tracer.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "szp/obs/chrome_trace.hpp"
#include "szp/obs/log.hpp"
#include "szp/obs/metrics.hpp"
#include "szp/util/env.hpp"

namespace szp::obs {

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();  // leaked: usable from exit handlers
  return *t;
}

void Span::open(bool request, const char* cat, const char* name,
                const char* arg1_name, std::uint64_t arg1,
                const char* arg2_name, std::uint64_t arg2) {
  active_ = true;
  request_ = request;
  std::construct_at(&e_);
  e_.cat = cat;
  e_.name = name;
  e_.arg1_name = arg1_name;
  e_.arg1 = arg1;
  e_.arg2_name = arg2_name;
  e_.arg2 = arg2;
  e_.ts_ns = now_ns();
  e_.trace_id = current_trace_id();
  if (!request) return;
  Lane& lane = local_lane();
  const std::uint32_t d = lane.span_depth.load(std::memory_order_relaxed);
  if (d < kMaxSpanDepth) {
    lane.span_stack[d].store(name, std::memory_order_relaxed);
  }
  lane.span_depth.store(d + 1, std::memory_order_release);
  Event begin = e_;
  begin.kind = Kind::kSpanBegin;
  push(begin, false);
}

void Span::finish() {
  active_ = false;
  e_.dur_ns = now_ns() - e_.ts_ns;
  e_.ph = Phase::kComplete;
  if (request_) {
    e_.kind = Kind::kSpanEnd;
    Lane& lane = local_lane();
    const std::uint32_t d = lane.span_depth.load(std::memory_order_relaxed);
    if (d > 0) lane.span_depth.store(d - 1, std::memory_order_release);
  }
  push(e_, !request_ || tracing_enabled());
}

namespace {

/// Lanes holding events of the current trace.
template <class F>
void for_each_traced_lane(F&& f) {
  for (const Lane* l = lanes(); l != nullptr; l = l->next) {
    if ((l->state.load(std::memory_order_acquire) & Lane::kTraceHold) != 0) {
      f(*l);
    }
  }
}

}  // namespace

std::vector<ThreadEvents> Tracer::collect() const {
  std::vector<ThreadEvents> out;
  for_each_traced_lane([&](const Lane& l) {
    ThreadEvents te;
    te.tid = l.id;
    te.thread_name = l.thread_name();
    const std::uint64_t seq = l.seq.load(std::memory_order_acquire);
    const std::uint64_t cap = l.cap.load(std::memory_order_relaxed);
    std::uint64_t first = seq > cap ? seq - cap : 0;
    std::vector<Event> copied;
    copied.reserve(seq - first);
    for (std::uint64_t i = first; i < seq; ++i) copied.push_back(l.load(i));
    // Slots the owner began to overwrite while they were copied are
    // dropped: event `head - 1` goes over event `head - 1 - cap`.
    const std::uint64_t head = l.head.load(std::memory_order_relaxed);
    const std::uint64_t exact = head > cap ? head - cap : 0;
    const std::uint64_t skip = exact > first ? std::min(exact, seq) - first : 0;
    first += skip;
    te.overwritten = first;
    for (std::uint64_t k = skip; k < copied.size(); ++k) {
      if (copied[k].ph != Phase::kNone) te.events.push_back(copied[k]);
    }
    out.push_back(std::move(te));
  });
  std::sort(out.begin(), out.end(),
            [](const ThreadEvents& a, const ThreadEvents& b) {
              return a.tid < b.tid;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for_each_traced_lane([&](const Lane& l) {
    n += std::min(l.seq.load(std::memory_order_acquire),
                  l.cap.load(std::memory_order_relaxed));
  });
  return n;
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t n = 0;
  for_each_traced_lane([&](const Lane& l) {
    const std::uint64_t seq = l.seq.load(std::memory_order_acquire);
    const std::uint64_t cap = l.cap.load(std::memory_order_relaxed);
    if (seq > cap) n += seq - cap;
  });
  return n;
}

namespace {

void flush_env_outputs() {
  // All diagnostics route through the logger, whose text sink is
  // stderr: stdout stays reserved for data outputs (--metrics-json -).
  const std::string path = trace_env_path();
  if (!path.empty()) {
    if (write_chrome_trace_file(path)) {
      SZP_LOG_INFO("obs", "wrote trace to %s (%zu events)", path.c_str(),
                   Tracer::instance().event_count());
      const std::uint64_t dropped = Tracer::instance().dropped_events();
      if (dropped > 0) {
        SZP_LOG_WARN("obs",
                     "%llu events dropped to ring wrap-around; the trace "
                     "has holes (shorten the recording)",
                     static_cast<unsigned long long>(dropped));
      }
    } else {
      SZP_LOG_ERROR("obs", "FAILED to write trace to %s", path.c_str());
    }
  }
  if (stats_env_enabled() && log_enabled(LogLevel::kInfo)) {
    std::ostringstream ss;
    ss << "metrics summary:\n";
    Registry::instance().write_text(ss);
    Logger::instance().log(LogLevel::kInfo, "obs", ss.str());
  }
}

}  // namespace

void init_from_env() {
  static const bool done = [] {
    bool hooked = false;
    if (!trace_env_path().empty()) {
      Tracer::instance().set_enabled(true);
      hooked = true;
    }
    if (stats_env_enabled()) {
      Registry::instance().set_enabled(true);
      hooked = true;
    }
    if (hooked) std::atexit(flush_env_outputs);
    return true;
  }();
  (void)done;
}

}  // namespace szp::obs
