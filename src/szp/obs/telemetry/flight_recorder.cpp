#include "szp/obs/telemetry/flight_recorder.hpp"

#include <unistd.h>

#include <ostream>

namespace szp::obs::fr {

namespace detail {

void record_impl(Kind k, const char* name, std::uint64_t a, std::uint64_t b) {
  Event e;
  e.ts_ns = now_ns();
  e.trace_id = current_trace_id();
  e.name = name;
  e.arg1 = a;
  e.arg2 = b;
  e.kind = k;
  push(e, false);
}

}  // namespace detail

std::uint64_t event_count() {
  std::uint64_t n = reused_lane_events();
  for (const Lane* l = lanes(); l != nullptr; l = l->next) {
    n += l->seq.load(std::memory_order_acquire);
  }
  return n;
}

std::uint64_t dropped_events() {
  std::uint64_t n = 0;
  for (const Lane* l = lanes(); l != nullptr; l = l->next) {
    const std::uint64_t seq = l->seq.load(std::memory_order_acquire);
    const std::uint64_t cap = l->cap.load(std::memory_order_relaxed);
    if (seq > cap) n += seq - cap;
  }
  return n;
}

// ------------------------------------------------------------- dumps ----
//
// Both dump paths walk the same data; the fd path restricts itself to
// async-signal-safe operations (write(2) + integer formatting into a
// stack buffer), the ostream path produces byte-identical JSON so the
// crash-bundle schema has one shape.

namespace {

/// Bounded, allocation-free JSON writer over a raw fd.
struct FdWriter {
  int fd;
  char buf[1024];
  std::size_t len = 0;
  bool ok = true;

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ::ssize_t w = ::write(fd, buf + off, len - off);
      if (w <= 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    len = 0;
  }
  void ch(char c) {
    if (len >= sizeof(buf)) flush();
    buf[len++] = c;
  }
  void str(const char* s) {
    for (; *s != '\0'; ++s) ch(*s);
  }
  /// JSON string with minimal escaping (names are literals we control,
  /// but stay strict anyway).
  void jstr(const char* s) {
    ch('"');
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        ch('\\');
        ch(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        ch(' ');
      } else {
        ch(c);
      }
    }
    ch('"');
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    std::size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
};

/// Shared dump walk, parameterized over the two writers via a tiny
/// emit interface so the JSON stays byte-identical.
template <class W>
void dump_lanes(W& w) {
  w.str("{\"schema\": \"szp.flight_recorder.v1\", \"threads\": [");
  bool first_lane = true;
  for (const Lane* l = lanes(); l != nullptr; l = l->next) {
    w.str(first_lane ? "\n" : ",\n");
    first_lane = false;
    const std::uint64_t seq = l->seq.load(std::memory_order_acquire);
    const std::uint64_t cap = l->cap.load(std::memory_order_relaxed);
    const std::uint64_t kept = seq < cap ? seq : cap;
    char name[kThreadNameMax];
    l->copy_name(name);
    w.str("{\"tid\": ");
    w.u64(l->id);
    w.str(", \"name\": ");
    w.jstr(name);
    w.str(", \"alive\": ");
    w.str((l->state.load(std::memory_order_relaxed) & Lane::kLive) != 0
              ? "true"
              : "false");
    w.str(", \"dropped\": ");
    w.u64(seq - kept);
    w.str(", \"active_spans\": [");
    const std::uint32_t depth = l->span_depth.load(std::memory_order_acquire);
    const std::uint32_t shown =
        depth < kMaxSpanDepth ? depth
                              : static_cast<std::uint32_t>(kMaxSpanDepth);
    for (std::uint32_t i = 0; i < shown; ++i) {
      if (i > 0) w.str(", ");
      const char* span = l->span_stack[i].load(std::memory_order_relaxed);
      w.jstr(span != nullptr ? span : "");
    }
    w.str("], \"events\": [");
    for (std::uint64_t i = seq - kept; i < seq; ++i) {
      // Oldest first; a span_end is stamped at its end.
      const Event e = l->load(i);
      w.str(i > seq - kept ? ",\n  " : "\n  ");
      w.str("{\"ts_ns\": ");
      w.u64(e.ts_ns + e.dur_ns);
      w.str(", \"kind\": ");
      w.jstr(kind_name(e.kind));
      w.str(", \"name\": ");
      w.jstr(e.name);
      w.str(", \"trace_id\": ");
      w.u64(e.trace_id);
      w.str(", \"a\": ");
      w.u64(e.arg1);
      w.str(", \"b\": ");
      w.u64(e.arg2);
      w.str("}");
    }
    w.str("]}");
  }
  w.str("\n]}");
}

/// ostream adapter with the same emit interface as FdWriter.
struct OsWriter {
  std::ostream& os;
  void str(const char* s) { os << s; }
  void jstr(const char* s) {
    os << '"';
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        os << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os << ' ';
      } else {
        os << c;
      }
    }
    os << '"';
  }
  void u64(std::uint64_t v) { os << v; }
};

}  // namespace

void write_json(std::ostream& os) {
  OsWriter w{os};
  dump_lanes(w);
  os << '\n';
}

bool dump_to_fd(int fd) {
  FdWriter w{fd};
  dump_lanes(w);
  w.ch('\n');
  w.flush();
  return w.ok;
}

}  // namespace szp::obs::fr
