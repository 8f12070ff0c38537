#include "szp/obs/profiling.hpp"

#include <ostream>

namespace szp::obs {

ProfilerOptions options_from_string(std::string_view spec) {
  ProfilerOptions o;
  if (spec.empty() || spec == "0" || spec == "off") return o;
  o.enabled = true;
  if (spec == "1" || spec == "on") return o;
  o.export_path.assign(spec);
  return o;
}

void write_json_hist(std::ostream& os, const HistSnapshot& h,
                     const char* indent) {
  os << "{\n"
     << indent << "  \"count\": " << h.count << ",\n"
     << indent << "  \"sum\": " << h.sum << ",\n"
     << indent << "  \"max\": " << h.max << ",\n"
     << indent << "  \"pow2_buckets\": [";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    os << (i ? ", " : "") << h.buckets[i];
  }
  os << "]\n" << indent << "}";
}

}  // namespace szp::obs
