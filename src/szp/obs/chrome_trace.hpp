// Chrome trace-event JSON exporter (the format Perfetto and
// chrome://tracing load). Events come out of the per-thread event lanes;
// each recording thread becomes one trace lane, so the per-thread-block
// spans of gpusim kernel launches render as a thread-block timeline.
//
// Format reference: the Trace Event Format's JSON-object form —
// {"traceEvents": [...], "displayTimeUnit": "ms"} with "X"/"B"/"E"/"i"
// phase events carrying microsecond timestamps.
#pragma once

#include <iosfwd>
#include <string>

namespace szp::obs {

/// Serialize everything currently recorded by Tracer::instance().
/// Events are sorted by timestamp; thread-name metadata ('M') events and
/// a drop-count annotation per wrapped ring are included.
void write_chrome_trace(std::ostream& os);

/// write_chrome_trace to a file; returns false on I/O failure.
bool write_chrome_trace_file(const std::string& path);

}  // namespace szp::obs
