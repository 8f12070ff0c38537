// Extension bench: random-access decompression cost. cuSZp's independent
// blocks mean a region decodes without the rest of the stream, and the
// v2 footer's per-group payload offsets let the decoder seek: it reads the
// header, the footer and only the checksum groups covering the region
// (their length bytes and payload). This bench shows the payload the
// range needs, the bytes the decoder actually fetched, and the wall time,
// as the range grows.
#include <chrono>
#include <iostream>

#include "szp/core/random_access.hpp"
#include "szp/core/serial.hpp"
#include "szp/data/registry.hpp"
#include "szp/util/env.hpp"
#include "szp/util/table.hpp"

int main() {
  using namespace szp;
  using Clock = std::chrono::steady_clock;
  const auto field = data::make_field(data::Suite::kNyx, 0, bench_scale());
  core::Params p;
  p.error_bound = 1e-3;
  const auto stream =
      core::compress_serial(field.values, p, field.value_range());
  const size_t n = field.count();

  // Counts what the decoder fetches from the in-memory stream.
  size_t fetched = 0;
  const core::StreamFetch counting = [&](size_t off, size_t len) {
    fetched += len;
    return std::span<const byte_t>(stream).subspan(off, len);
  };

  std::cout << "=== Extension: random-access decompression ===\n"
            << "field " << field.dims.to_string() << ", compressed "
            << stream.size() << " bytes\n\n";
  Table t({"range elems", "payload read B", "payload read %", "bytes read",
           "bytes read %", "wall ms"});
  const auto pct = [&](size_t bytes) {
    return 100.0 * static_cast<double>(bytes) /
           static_cast<double>(stream.size());
  };
  for (const size_t range : {size_t{32}, size_t{1024}, size_t{32768},
                             n / 4, n}) {
    const size_t begin = (n - range) / 2;
    fetched = 0;
    const auto t0 = Clock::now();
    const auto part =
        core::decompress_range(counting, stream.size(), begin, begin + range);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const size_t bytes =
        core::range_payload_bytes(stream, begin, begin + range);
    t.row()
        .cell(static_cast<long long>(part.size()))
        .cell(static_cast<long long>(bytes))
        .cell(pct(bytes), 2)
        .cell(static_cast<long long>(fetched))
        .cell(pct(fetched), 2)
        .cell(ms, 3);
  }
  t.print(std::cout);
  std::cout << "\nExtracting 32 elements reads the header, the footer and one\n"
               "checksum group (at most 256 length bytes and their payload);\n"
               "no pass over the whole length array.\n";
  return 0;
}
