// The one JSON string and number writer for obs output (Chrome trace,
// metrics registry, structured log, both profiler reports).
#pragma once

#include <iosfwd>
#include <string_view>

namespace szp::obs {

/// Writes `s` as a quoted JSON string: `"` and `\` are backslash-escaped
/// and every byte below 0x20 becomes `\u00XX`, so no control character
/// reaches the output raw. Other bytes pass through unchanged.
void write_json_string(std::ostream& os, std::string_view s);

/// Fixed `%.9g` rendering, so a given double always serializes the same
/// way regardless of stream state.
void write_json_number(std::ostream& os, double v);

}  // namespace szp::obs
