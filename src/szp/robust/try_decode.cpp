#include "szp/robust/try_decode.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <type_traits>

#include "szp/core/block_codec.hpp"
#include "szp/core/compressor.hpp"
#include "szp/core/format.hpp"
#include "szp/obs/metrics.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/crc32c.hpp"

namespace szp::robust {

namespace {

using core::ChecksumFooter;
using core::Header;

/// Parse a header without throwing, classifying each failure mode along
/// the way (Header::deserialize collapses them all into format_error).
Status classify_header(std::span<const byte_t> stream, Header& h,
                       std::string& detail) {
  if (stream.size() < Header::kSize) {
    detail = "stream shorter than a header";
    return Status::kTruncated;
  }
  std::uint32_t magic;
  std::memcpy(&magic, stream.data(), sizeof(magic));
  if (magic != Header::kMagic) {
    detail = "not a cuSZp stream";
    return Status::kBadMagic;
  }
  std::uint16_t version;
  std::memcpy(&version, stream.data() + 4, sizeof(version));
  if (version != Header::kVersionV1 && version != Header::kVersion) {
    detail = "unsupported stream version " + std::to_string(version);
    return Status::kUnsupportedVersion;
  }
  if (version >= 2) {
    std::uint32_t stored;
    std::memcpy(&stored, stream.data() + Header::kCrcOffset, sizeof(stored));
    if (stored != crc32c(stream.first(Header::kCrcOffset))) {
      detail = "header CRC mismatch";
      return Status::kHeaderCorrupt;
    }
  }
  try {
    h = Header::deserialize(stream);
  } catch (const format_error& e) {
    detail = e.what();
    return Status::kBadHeaderField;
  }
  return Status::kOk;
}

/// Locate and parse the v2 footer: first at the offset the length bytes
/// imply, then (corrupt length bytes shift that) by scanning the tail for
/// a self-verifying footer. Returns its absolute offset via `footer_off`.
std::optional<ChecksumFooter> find_footer(std::span<const byte_t> stream,
                                          size_t payload_base,
                                          size_t computed_off_or_npos,
                                          size_t& footer_off) {
  if (computed_off_or_npos != static_cast<size_t>(-1) &&
      computed_off_or_npos <= stream.size()) {
    try {
      auto f = ChecksumFooter::deserialize(
          stream.subspan(computed_off_or_npos));
      footer_off = computed_off_or_npos;
      return f;
    } catch (const format_error&) {
    }
  }
  if (stream.size() < payload_base + ChecksumFooter::kFixedBytes) {
    return std::nullopt;
  }
  for (size_t off = stream.size() - ChecksumFooter::kFixedBytes;;) {
    std::uint32_t magic;
    std::memcpy(&magic, stream.data() + off, sizeof(magic));
    if (magic == ChecksumFooter::kMagic) {
      try {
        auto f = ChecksumFooter::deserialize(stream.subspan(off));
        footer_off = off;
        return f;
      } catch (const format_error&) {
      }
    }
    if (off == payload_base) break;
    --off;
  }
  return std::nullopt;
}

template <typename T>
DecodeReport try_decode_impl(std::span<const byte_t> stream,
                             std::vector<T>* out, const DecodeOptions& opts) {
  DecodeReport rep;
  if (out) out->clear();

  Header h;
  rep.status = classify_header(stream, h, rep.detail);
  if (!rep.ok()) return rep;
  if (out && h.is_f64() != std::is_same_v<T, double>) {
    rep.status = Status::kTypeMismatch;
    rep.detail = h.is_f64() ? "stream holds f64 data" : "stream holds f32 data";
    return rep;
  }

  const unsigned L = h.block_len;
  const size_t n = h.num_elements;
  const size_t nblocks = core::num_blocks(n, L);
  const size_t base = core::payload_offset(nblocks);
  rep.num_elements = n;
  rep.num_blocks = nblocks;
  rep.checksummed = h.checksummed();

  // The stream must physically contain its length area before anything is
  // sized from the header — a corrupt v1 header can claim any element
  // count, and this bound caps it by the bytes actually present.
  if (stream.size() < base) {
    rep.status = Status::kTruncated;
    rep.detail = "length area truncated";
    return rep;
  }

  auto mark_corrupt = [&](size_t first, size_t last) {
    if (first >= last) return;
    if (!rep.corrupt_blocks.empty() &&
        rep.corrupt_blocks.back().last_block == first) {
      rep.corrupt_blocks.back().last_block = last;
    } else {
      rep.corrupt_blocks.push_back({first, last});
    }
  };

  const auto lengths = stream.subspan(core::lengths_offset(), nblocks);
  core::BlockScratch scratch;
  // Salvage keeps what decoded; otherwise a defect leaves `out` empty.
  const auto finish = [&] {
    if (!rep.ok() && out) {
      if (opts.salvage) {
        rep.salvaged = true;
      } else {
        out->clear();
      }
    }
    return rep;
  };

  if (out) out->assign(n, T{0});
  if (!h.checksummed()) {
    // ---- v1: structural validation only; no re-alignment is possible
    // past the first defect, so salvage keeps the prefix.
    const core::LengthScan s =
        core::scan_lengths(lengths, h, 0, nblocks, stream.size() - base);
    if (out) {
      core::decode_blocks<T>(h, 0, lengths.first(s.end),
                             stream.subspan(base, s.bytes), 0, *out, scratch);
    }
    if (s.end < nblocks) {
      rep.status = s.bad_byte ? Status::kBadLengthByte : Status::kTruncated;
      rep.detail = (s.bad_byte ? "invalid length byte at block "
                               : "payload truncated at block ") +
                   std::to_string(s.end);
      mark_corrupt(s.end, nblocks);
    } else if (base + s.bytes != stream.size()) {
      rep.status = Status::kSizeMismatch;
      rep.detail = "bytes after the last block";
    }
    return finish();
  }

  // ---- v2: verify and decode group by group, re-aligning from the
  // footer's per-group payload offsets after any corrupt group.
  const core::LengthScan all = core::scan_lengths(lengths, h, 0, nblocks);
  const size_t computed_off =
      all.bad_byte ? static_cast<size_t>(-1) : base + all.bytes;

  size_t footer_off = 0;
  const auto footer = find_footer(stream, base, computed_off, footer_off);
  const unsigned gb = h.checksum_group_blocks;
  rep.groups_total = core::num_checksum_groups(nblocks, gb);

  if (!footer || footer->group_blocks != gb ||
      footer->crcs.size() != rep.groups_total) {
    // No trustworthy footer: nothing in the stream can be vouched for.
    rep.status = footer ? Status::kSizeMismatch : Status::kFooterMissing;
    rep.detail = footer ? "footer layout disagrees with header"
                        : "no usable checksum footer";
    rep.groups_bad = rep.groups_total;
    mark_corrupt(0, nblocks);
    for (size_t g = 0; opts.want_groups && g < rep.groups_total; ++g) {
      rep.groups.push_back({g, g * gb, std::min(nblocks, (g + 1) * size_t{gb}),
                            false});
    }
    return finish();
  }

  for (size_t g = 0; g < rep.groups_total; ++g) {
    const size_t first = g * gb;
    const size_t last = std::min(nblocks, first + gb);
    const size_t pb = base + footer->offsets[g];
    const size_t pe = g + 1 < rep.groups_total
                          ? base + footer->offsets[g + 1]
                          : footer_off;
    bool ok = footer->offsets[g] <= footer_off - base && pb <= pe &&
              pe <= footer_off && footer_off <= stream.size();
    if (ok) {
      const core::LengthScan s =
          core::scan_lengths(lengths, h, first, last, pe - pb);
      ok = s.end == last && pb + s.bytes == pe;
    }
    const core::GroupSpan span{first, last, pb, pe};
    if (ok) {
      ok = footer->crcs[g] == core::checksum_group_crc(span.lengths_in(stream),
                                                       span.payload_in(stream));
    }
    if (opts.want_groups) rep.groups.push_back({g, first, last, ok});
    if (!ok) {
      ++rep.groups_bad;
      mark_corrupt(first, last);
      if (rep.ok()) {
        rep.status = Status::kChecksumMismatch;
        rep.detail = "checksum mismatch in group " + std::to_string(g);
      }
      continue;
    }
    if (out) {
      core::decode_blocks<T>(h, first, span.lengths_in(stream),
                             span.payload_in(stream), 0, *out, scratch);
    }
  }
  // A v2 stream ends at its footer, as a v1 stream ends at its last block.
  if (rep.ok() && footer_off + footer->bytes() != stream.size()) {
    rep.status = Status::kSizeMismatch;
    rep.detail = "bytes after the footer";
  }
  return finish();
}

/// Surface salvage outcomes through the metrics registry so fuzz runs and
/// CLI `--stats` can report fault-tolerance behaviour in aggregate. One
/// branch when collection is off.
void record_decode_report(const DecodeReport& rep) {
  // Always-on black-box + error accounting (independent of the metrics
  // registry: fault evidence must survive into crash bundles).
  if (!rep.ok()) {
    obs::fr::record(obs::fr::Kind::kFault, to_string(rep.status),
                    rep.groups_bad);
    obs::telemetry::builtins().errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (rep.salvaged) {
    obs::fr::record(obs::fr::Kind::kSalvage, "salvaged_stream",
                    rep.groups_bad);
  }
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static auto& calls = reg.counter("robust.try_decompress.calls");
  static auto& ok = reg.counter("robust.try_decompress.ok");
  static auto& failed = reg.counter("robust.try_decompress.failed");
  static auto& corrupt_groups = reg.counter("robust.corrupt_groups");
  static auto& corrupt_blocks = reg.counter("robust.corrupt_blocks");
  static auto& salvaged = reg.counter("robust.salvaged_streams");
  calls.add();
  if (rep.ok()) ok.add(); else failed.add();
  corrupt_groups.add(rep.groups_bad);
  std::uint64_t blocks = 0;
  for (const auto& r : rep.corrupt_blocks) blocks += r.last_block - r.first_block;
  corrupt_blocks.add(blocks);
  if (rep.salvaged) salvaged.add();
}

template <typename T>
DecodeReport guarded(std::span<const byte_t> stream, std::vector<T>* out,
                     const DecodeOptions& opts) {
  const obs::Span span("api", "try_decompress", "bytes", stream.size());
  try {
    const DecodeReport rep = try_decode_impl<T>(stream, out, opts);
    record_decode_report(rep);
    return rep;
  } catch (const std::exception& e) {
    // try_decode_impl validates before it trusts; reaching here is a bug,
    // but the no-throw contract still holds.
    DecodeReport rep;
    rep.status = Status::kInternalError;
    rep.detail = e.what();
    if (out) out->clear();
    record_decode_report(rep);
    return rep;
  }
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kTruncated: return "truncated";
    case Status::kBadMagic: return "bad magic";
    case Status::kUnsupportedVersion: return "unsupported version";
    case Status::kHeaderCorrupt: return "header corrupt";
    case Status::kBadHeaderField: return "bad header field";
    case Status::kTypeMismatch: return "type mismatch";
    case Status::kBadLengthByte: return "bad length byte";
    case Status::kFooterMissing: return "footer missing";
    case Status::kChecksumMismatch: return "checksum mismatch";
    case Status::kSizeMismatch: return "size mismatch";
    case Status::kInternalError: return "internal error";
  }
  return "unknown";
}

DecodeReport verify_stream(std::span<const byte_t> stream, bool want_groups) {
  DecodeOptions opts;
  opts.want_groups = want_groups;
  return guarded<float>(stream, nullptr, opts);
}

DecodeReport try_decompress(std::span<const byte_t> stream,
                            std::vector<float>& out,
                            const DecodeOptions& opts) {
  return guarded<float>(stream, &out, opts);
}

DecodeReport try_decompress_f64(std::span<const byte_t> stream,
                                std::vector<double>& out,
                                const DecodeOptions& opts) {
  return guarded<double>(stream, &out, opts);
}

}  // namespace szp::robust

namespace szp {

robust::DecodeReport Compressor::try_decompress(
    std::span<const byte_t> stream, std::vector<float>& out,
    const robust::DecodeOptions& opts) const {
  return robust::try_decompress(stream, out, opts);
}

robust::DecodeReport Compressor::try_decompress_f64(
    std::span<const byte_t> stream, std::vector<double>& out,
    const robust::DecodeOptions& opts) const {
  return robust::try_decompress_f64(stream, out, opts);
}

}  // namespace szp
