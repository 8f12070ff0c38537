// Archive tool: pack fields into an archive, inspect it, extract or
// point-query fields, and scrub/repair damage.
//
// Archives come in two shapes:
//   * a DIRECTORY holds a sharded v2 archive (crash-consistent, journaled
//     ingest, content-addressed shards — the default for pack/demo);
//   * a path ending in .szpa holds a legacy v1 single-blob archive
//     (still fully readable, and written when pack/demo targets *.szpa).
//
//   szp_archive pack <out-dir|out.szpa> <rel_bound> <file.f32:d0xd1[xd2]>...
//   szp_archive demo <out-dir|out.szpa> <rel_bound> <suite>
//   szp_archive list <archive>
//   szp_archive extract <archive> <field-name> <out.f32>
//   szp_archive query <dir> <field-name> <begin> <end> [out.f32]
//   szp_archive scrub <dir>
//   szp_archive repair <dir>
//
// pack/demo options: --backend serial|parallel|device, --threads <n>
// (parallel ingest across fields), --shard-mb <n> (v2 shard payload
// budget). The archive bytes are identical for every backend/thread
// setting.
//
// Exit codes:
//   0  success / archive intact
//   1  damage detected, but every damaged entry is salvageable (scrub),
//      or corrupt input rejected (pack/list/extract/query)
//   2  usage error
//   3  I/O failure (errno reported)
//   4  unrecoverable damage: at least one entry cannot be salvaged
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "szp/archive/archive.hpp"
#include "szp/archive/archive_v2.hpp"
#include "szp/archive/layout.hpp"
#include "szp/archive/scrub.hpp"
#include "szp/data/registry.hpp"
#include "szp/obs/telemetry/telemetry.hpp"
#include "szp/robust/io.hpp"

namespace {

using namespace szp;

data::Dims parse_dims(const std::string& spec) {
  data::Dims dims;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t next = spec.find('x', pos);
    if (next == std::string::npos) next = spec.size();
    dims.extents.push_back(std::stoull(spec.substr(pos, next - pos)));
    pos = next + 1;
  }
  return dims;
}

bool is_blob_path(const std::string& path) {
  return path.size() >= 5 &&
         path.compare(path.size() - 5, 5, ".szpa") == 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: szp_archive pack <out-dir|out.szpa> <rel> <f32:dims>...\n"
      "       szp_archive demo <out-dir|out.szpa> <rel> <suite>\n"
      "       szp_archive list <archive>\n"
      "       szp_archive extract <archive> <field> <out.f32>\n"
      "       szp_archive query <dir> <field> <begin> <end> [out.f32]\n"
      "       szp_archive scrub <dir>\n"
      "       szp_archive repair <dir>\n"
      "options (pack/demo): --backend serial|parallel|device,"
      " --threads <n>, --shard-mb <n>\n"
      "\n"
      "A directory target is a sharded v2 archive (journaled, "
      "crash-consistent);\na *.szpa target is the legacy single-blob "
      "format.\n"
      "\n"
      "exit codes: 0 ok/intact, 1 damaged but salvageable (or corrupt\n"
      "input rejected), 2 usage, 3 I/O failure, 4 unrecoverable damage\n");
  return 2;
}

void list_v1(const archive::Reader& r) {
  std::printf("%-24s %-16s %-4s %12s %8s\n", "field", "dims", "type",
              "bytes", "CR");
  for (const auto& e : r.entries()) {
    std::printf("%-24s %-16s %-4s %12llu %8.2f\n", e.name.c_str(),
                e.dims.to_string().c_str(), e.f64 ? "f64" : "f32",
                static_cast<unsigned long long>(e.stream_bytes),
                e.compression_ratio());
  }
}

void list_v2(const archive::ArchiveReader& r) {
  std::printf("generation %llu, %zu shards, %zu entries\n",
              static_cast<unsigned long long>(r.generation()),
              r.index().shards.size(), r.entries().size());
  std::printf("%-24s %-16s %-4s %12s %8s  %s\n", "field", "dims", "type",
              "bytes", "CR", "shard");
  for (const auto& e : r.entries()) {
    std::printf("%-24s %-16s %-4s %12llu %8.2f  %s\n", e.name.c_str(),
                e.dims.to_string().c_str(), archive::to_string(e.dtype),
                static_cast<unsigned long long>(e.stream_bytes),
                e.compression_ratio(),
                r.index().shards[e.shard_index].file_name().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  szp::obs::telemetry::init_from_env();
  std::string backend_name = "serial";
  unsigned threads = 0;
  size_t shard_mb = 4;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--backend") {
      if (++i >= argc) return usage();
      backend_name = argv[i];
    } else if (a == "--threads") {
      if (++i >= argc) return usage();
      threads = static_cast<unsigned>(std::strtoul(argv[i], nullptr, 10));
    } else if (a == "--shard-mb") {
      if (++i >= argc) return usage();
      shard_mb = static_cast<size_t>(std::strtoul(argv[i], nullptr, 10));
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string target = argv[2];
  robust::RealFs fs;

  if (cmd == "pack" || cmd == "demo") {
    if (argc < 5) return usage();
    core::Params p;
    p.mode = core::ErrorMode::kRel;
    p.error_bound = std::strtod(argv[3], nullptr);

    std::vector<data::Field> fields;
    if (cmd == "demo") {
      for (const auto& info : data::all_suites()) {
        if (info.name == argv[4]) {
          for (auto& f : data::make_suite(info.id, 0.5)) {
            fields.push_back(std::move(f));
          }
        }
      }
      if (fields.empty()) return usage();
    } else {
      for (int i = 4; i < argc; ++i) {
        const std::string spec = argv[i];
        const size_t colon = spec.rfind(':');
        if (colon == std::string::npos) return usage();
        const std::string path = spec.substr(0, colon);
        fields.push_back(
            data::load_f32(path, parse_dims(spec.substr(colon + 1)), path));
      }
    }

    if (is_blob_path(target)) {
      archive::Writer w(p, engine::backend_from_name(backend_name), threads);
      for (const auto& f : fields) w.add(f);
      const size_t count = w.num_fields();
      const auto blob = std::move(w).finish();
      archive::save_archive(target, blob);
      std::printf("packed %zu fields into %s (%zu bytes, v1 blob)\n", count,
                  target.c_str(), blob.size());
      return 0;
    }
    archive::WriterOptions opts;
    opts.params = p;
    opts.backend = engine::backend_from_name(backend_name);
    opts.threads = threads;
    opts.shard_budget_bytes = shard_mb << 20;
    archive::ArchiveWriter w(fs, target, opts);
    for (const auto& f : fields) w.add(f);
    const size_t count = w.num_pending();
    const auto gen = w.commit();
    const archive::ArchiveReader check(fs, target);
    std::printf(
        "packed %zu fields into %s (generation %llu, %zu shards, "
        "%llu bytes)\n",
        count, target.c_str(), static_cast<unsigned long long>(gen),
        check.index().shards.size(),
        static_cast<unsigned long long>(check.archive_bytes()));
    return 0;
  }

  if (cmd == "list") {
    if (is_blob_path(target)) {
      list_v1(archive::load_archive(target));
    } else {
      list_v2(archive::ArchiveReader(fs, target));
    }
    return 0;
  }

  if (cmd == "extract") {
    if (argc != 5) return usage();
    data::Field field;
    if (is_blob_path(target)) {
      field = archive::load_archive(target).extract(std::string(argv[3]));
    } else {
      field = archive::ArchiveReader(fs, target).extract(std::string(argv[3]));
    }
    data::save_f32(argv[4], field);
    std::printf("extracted %s (%s) -> %s\n", field.name.c_str(),
                field.dims.to_string().c_str(), argv[4]);
    return 0;
  }

  if (cmd == "query") {
    if (argc < 6 || argc > 7) return usage();
    const archive::ArchiveReader r(fs, target);
    const size_t entry = r.entry_index(argv[3]);
    const size_t begin = std::stoull(argv[4]);
    const size_t end = std::stoull(argv[5]);
    // The query's own I/O, after the index read that opening performs.
    const archive::IoStats opened = r.io_stats();
    const auto values = r.extract_range(entry, begin, end);
    const auto reads = r.io_stats().reads - opened.reads;
    const auto bytes = r.io_stats().bytes_read - opened.bytes_read;
    const auto total = r.archive_bytes();
    std::printf(
        "%s[%zu, %zu): %zu elements via %llu reads / %llu bytes "
        "(%.3f%% of the %llu-byte archive)\n",
        argv[3], begin, end, values.size(),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(bytes),
        total > 0 ? 100.0 * static_cast<double>(bytes) /
                        static_cast<double>(total)
                  : 0.0,
        static_cast<unsigned long long>(total));
    if (argc == 7) {
      data::Field out;
      out.name = argv[3];
      out.dims.extents = {values.size()};
      out.values = values;
      data::save_f32(argv[6], out);
      std::printf("wrote %zu elements -> %s\n", values.size(), argv[6]);
    }
    return 0;
  }

  if (cmd == "scrub") {
    archive::ScrubOptions opts;
    opts.want_groups = true;
    const auto report = archive::scrub(fs, target, opts);
    std::fputs(report.to_string().c_str(), stdout);
    if (!report.has_damage()) {
      if (report.has_garbage()) {
        std::printf("no damage; leftover garbage present (run repair)\n");
      }
      return 0;
    }
    if (report.fully_salvageable()) {
      std::printf("DAMAGED but salvageable — run: szp_archive repair %s\n",
                  target.c_str());
      return 1;
    }
    std::printf("UNRECOVERABLE damage: %zu entr%s cannot be salvaged\n",
                report.entries_unrecoverable,
                report.entries_unrecoverable == 1 ? "y" : "ies");
    return 4;
  }

  if (cmd == "repair") {
    const auto res = archive::repair(fs, target);
    if (!res.changed) {
      std::printf("archive is clean; nothing to repair\n");
      return 0;
    }
    std::printf(
        "repaired to generation %llu: %zu intact, %zu rebuilt "
        "(%zu salvaged lossily), %zu lost\n",
        static_cast<unsigned long long>(res.new_generation),
        res.entries_intact, res.entries_rebuilt, res.entries_salvaged,
        res.entries_lost);
    for (const auto& name : res.lost) {
      std::printf("  lost: %s\n", name.c_str());
    }
    if (res.index_rebuilt) std::printf("  index rebuilt from shard scan\n");
    if (res.shards_quarantined > 0) {
      std::printf("  %zu damaged shard(s) moved to %s\n",
                  res.shards_quarantined,
                  archive::layout::quarantine_dir(target).c_str());
    }
    if (res.orphans_removed + res.temps_removed > 0 || res.journal_cleared) {
      std::printf("  cleaned: %zu orphan shard(s), %zu temp file(s)%s\n",
                  res.orphans_removed, res.temps_removed,
                  res.journal_cleared ? ", stale journal" : "");
    }
    return res.entries_lost > 0 ? 4 : 0;
  }

  return usage();
} catch (const szp::robust::io_error& e) {
  // Real I/O failure: surface the syscall, path and errno.
  std::fprintf(stderr, "szp_archive: I/O failure: %s\n", e.what());
  return 3;
} catch (const szp::format_error& e) {
  // Corrupt archive or stream: fail cleanly with a pointed message (run
  // `szp_archive scrub` / `szp_verify` for diagnosis and salvage).
  std::fprintf(stderr, "szp_archive: corrupt or malformed input: %s\n",
               e.what());
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "szp_archive: %s\n", e.what());
  return 1;
}
