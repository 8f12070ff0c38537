#include "szp/obs/json.hpp"

#include <cstdio>
#include <ostream>

namespace szp::obs {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

}  // namespace szp::obs
