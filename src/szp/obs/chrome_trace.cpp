#include "szp/obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "szp/obs/json.hpp"
#include "szp/obs/tracer.hpp"

namespace szp::obs {

namespace {

/// Chrome traces use microsecond timestamps; emit fractional µs to keep
/// nanosecond resolution.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
     << static_cast<char>('0' + (ns % 100) / 10)
     << static_cast<char>('0' + ns % 10);
}

struct FlatEvent {
  const Event* e;
  std::uint32_t tid;
};

void write_event(std::ostream& os, const FlatEvent& fe) {
  const Event& e = *fe.e;
  os << "{\"name\": ";
  write_json_string(os, e.name);
  os << ", \"cat\": ";
  write_json_string(os, e.cat);
  os << ", \"ph\": \"" << static_cast<char>(e.ph) << "\", \"ts\": ";
  write_us(os, e.ts_ns);
  if (e.ph == Phase::kComplete) {
    os << ", \"dur\": ";
    write_us(os, e.dur_ns);
  }
  if (e.ph == Phase::kInstant) os << ", \"s\": \"t\"";
  os << ", \"pid\": 1, \"tid\": " << fe.tid;
  if (e.arg1_name != nullptr || e.arg2_name != nullptr || e.trace_id != 0) {
    os << ", \"args\": {";
    bool any = false;
    if (e.arg1_name != nullptr) {
      write_json_string(os, e.arg1_name);
      os << ": " << e.arg1;
      any = true;
    }
    if (e.arg2_name != nullptr) {
      if (any) os << ", ";
      write_json_string(os, e.arg2_name);
      os << ": " << e.arg2;
      any = true;
    }
    if (e.trace_id != 0) {
      if (any) os << ", ";
      os << "\"trace_id\": " << e.trace_id;
    }
    os << '}';
  }
  os << '}';
}

/// Flow events ('s'/'t'/'f') stitching spans that share a trace ID into
/// one request arrow across threads. Each flow event binds to its span
/// by thread + timestamp.
void write_flow_event(std::ostream& os, const FlatEvent& fe, char ph,
                      bool ending) {
  const Event& e = *fe.e;
  os << "{\"name\": \"request\", \"cat\": \"flow\", \"ph\": \"" << ph
     << "\", \"id\": " << e.trace_id << ", \"ts\": ";
  write_us(os, e.ts_ns);
  if (ending) os << ", \"bp\": \"e\"";
  os << ", \"pid\": 1, \"tid\": " << fe.tid << '}';
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  const std::vector<ThreadEvents> threads = Tracer::instance().collect();

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };

  // Process-name metadata so the single-process trace groups under "szp"
  // instead of a bare pid in the viewer.
  sep();
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"szp\"}}";

  // Thread-name metadata rows: explicit names first, then a default so
  // every lane is labeled in the viewer.
  for (const ThreadEvents& t : threads) {
    sep();
    const std::string label = t.thread_name.empty()
                                  ? "thread-" + std::to_string(t.tid)
                                  : t.thread_name;
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << t.tid << ", \"args\": {\"name\": ";
    write_json_string(os, label);
    os << "}}";
    if (t.overwritten > 0) {
      sep();
      os << "{\"name\": \"ring_overwrote\", \"cat\": \"obs\", \"ph\": "
            "\"i\", \"s\": \"t\", \"ts\": 0.000, \"pid\": 1, \"tid\": "
         << t.tid << ", \"args\": {\"events\": " << t.overwritten << "}}";
    }
  }

  // Flatten and sort by timestamp so viewers that expect ordered input
  // (and humans reading the raw JSON) get a chronological stream.
  std::vector<FlatEvent> flat;
  for (const ThreadEvents& t : threads) {
    for (const Event& e : t.events) flat.push_back({&e, t.tid});
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const FlatEvent& a, const FlatEvent& b) {
                     return a.e->ts_ns < b.e->ts_ns;
                   });
  for (const FlatEvent& fe : flat) {
    sep();
    write_event(os, fe);
  }

  // Flow linkage: for every trace ID seen on 2+ spans, connect the
  // spans in timestamp order with 's' → 't'... → 'f' flow events so the
  // viewer draws one request arrow across engine / pipeline / stream
  // lanes. Only span-shaped events anchor a flow step (B/E pairs would
  // otherwise double-count a phase).
  std::map<std::uint64_t, std::vector<const FlatEvent*>> flows;
  for (const FlatEvent& fe : flat) {
    if (fe.e->trace_id == 0) continue;
    if (fe.e->ph != Phase::kComplete && fe.e->ph != Phase::kBegin) continue;
    flows[fe.e->trace_id].push_back(&fe);
  }
  for (const auto& [trace_id, steps] : flows) {
    if (steps.size() < 2) continue;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      sep();
      const bool last = i + 1 == steps.size();
      const char ph = i == 0 ? 's' : (last ? 'f' : 't');
      write_flow_event(os, *steps[i], ph, last);
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace szp::obs
