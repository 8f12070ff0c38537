#include "szp/archive/archive_v2.hpp"

#include <algorithm>
#include <utility>

#include "szp/archive/layout.hpp"
#include "szp/core/random_access.hpp"
#include "szp/engine/thread_pool.hpp"
#include "szp/robust/try_decode.hpp"

namespace szp::archive {

namespace {

void write_publish(robust::Fs& fs, const std::string& final_path,
                   const std::string& tmp_path,
                   std::span<const byte_t> bytes) {
  fs.write_file(tmp_path, bytes);
  fs.sync_file(tmp_path);
  fs.rename(tmp_path, final_path);
}

}  // namespace

// -------------------------------------------------------------- writer ----

ArchiveWriter::ArchiveWriter(robust::Fs& fs, std::string dir,
                             WriterOptions opts)
    : fs_(fs), dir_(std::move(dir)), opts_(opts) {
  opts_.params.validate();
}

void ArchiveWriter::add(const data::Field& field,
                        std::optional<double> value_range) {
  if (field.name.empty()) throw format_error("archive: empty field name");
  if (field.values.size() != field.dims.count()) {
    throw format_error("archive: field '" + field.name +
                       "' dims/value count mismatch");
  }
  for (const auto& p : pending_) {
    if (p.name == field.name) {
      throw format_error("archive: duplicate pending entry '" + field.name +
                         "'");
    }
  }
  PendingField p;
  p.name = field.name;
  p.dims = field.dims;
  p.dtype = Dtype::kF32;
  p.f32 = field.values;
  p.value_range = value_range;
  pending_.push_back(std::move(p));
}

void ArchiveWriter::add_f64(std::string name, data::Dims dims,
                            std::span<const double> values,
                            std::optional<double> value_range) {
  if (name.empty()) throw format_error("archive: empty field name");
  if (values.size() != dims.count()) {
    throw format_error("archive: field '" + name +
                       "' dims/value count mismatch");
  }
  for (const auto& p : pending_) {
    if (p.name == name) {
      throw format_error("archive: duplicate pending entry '" + name + "'");
    }
  }
  PendingField p;
  p.name = std::move(name);
  p.dims = std::move(dims);
  p.dtype = Dtype::kF64;
  p.f64.assign(values.begin(), values.end());
  p.value_range = value_range;
  pending_.push_back(std::move(p));
}

std::uint64_t ArchiveWriter::commit() {
  // Load the committed state this ingest extends. A damaged index is a
  // hard stop: ingesting over damage would publish an index that silently
  // drops entries — run `szp_archive repair` first.
  Index prev;
  if (fs_.exists(layout::index_path(dir_))) {
    prev = Index::deserialize(fs_.read_file(layout::index_path(dir_)));
  }
  for (const auto& p : pending_) {
    if (prev.find(p.name) != static_cast<size_t>(-1)) {
      throw format_error("archive: entry '" + p.name +
                         "' already committed");
    }
  }
  if (pending_.empty()) return prev.generation;

  // Compress every pending field. threads > 1 parallelises across fields
  // with per-task serial engines; shard bytes are identical to the serial
  // path because every backend emits byte-identical streams.
  std::vector<PendingStream> streams(pending_.size());
  const auto compress_one = [&](size_t i, engine::Engine& eng) {
    const PendingField& p = pending_[i];
    PendingStream s;
    s.name = p.name;
    s.dims = p.dims;
    s.dtype = p.dtype;
    if (p.dtype == Dtype::kF64) {
      s.stream = eng.compress_f64(p.f64, p.value_range).bytes;
    } else {
      s.stream = eng.compress(p.f32, p.value_range).bytes;
    }
    streams[i] = std::move(s);
  };
  if (opts_.threads > 1 && pending_.size() > 1) {
    engine::ThreadPool pool(opts_.threads);
    engine::EngineConfig cfg;
    cfg.params = opts_.params;
    pool.run(pending_.size(), [&](size_t i) {
      engine::Engine eng(cfg);
      compress_one(i, eng);
    });
  } else {
    engine::EngineConfig cfg;
    cfg.params = opts_.params;
    cfg.backend = opts_.backend;
    cfg.threads = opts_.threads;
    engine::Engine eng(cfg);
    for (size_t i = 0; i < pending_.size(); ++i) compress_one(i, eng);
  }

  auto packed = pack_shards(streams, opts_.shard_budget_bytes);

  Index next;
  next.generation = prev.generation + 1;
  next.shards = prev.shards;
  next.entries = prev.entries;
  for (auto& shard : packed) {
    const auto existing = std::find(next.shards.begin(), next.shards.end(),
                                    shard.ref);
    const auto shard_index = checked_cast<std::uint32_t>(
        existing == next.shards.end()
            ? next.shards.size()
            : static_cast<size_t>(existing - next.shards.begin()));
    if (existing == next.shards.end()) next.shards.push_back(shard.ref);
    for (auto& e : shard.entries) {
      e.shard_index = shard_index;
      next.entries.push_back(e);
    }
  }

  publish(fs_, dir_, next, packed);
  pending_.clear();
  return next.generation;
}

void publish(robust::Fs& fs, const std::string& dir, const Index& index,
             std::span<const PackedShard> new_shards) {
  fs.make_dirs(layout::shard_dir(dir));

  // 1. Journal the intent: target generation + every shard file this
  //    publish is about to create. Published atomically itself, so a
  //    half-written journal is never read back.
  Journal journal;
  journal.target_generation = index.generation;
  for (const auto& s : new_shards) journal.pending.push_back(s.ref);
  write_publish(fs, layout::journal_path(dir),
                dir + "/" + layout::kJournalTmpFile, journal.serialize());

  // 2. Shard files, each write-temp -> sync -> rename. Content-addressed
  //    names make this idempotent: a crash mid-sequence leaves complete
  //    shards (harmless, reused on retry) and at most one .tmp.
  for (const auto& s : new_shards) {
    const std::string path = layout::shard_path(dir, s.ref.file_name());
    write_publish(fs, path, path + layout::kTmpSuffix, s.file_bytes);
  }

  // 3. The index rename is the commit point: before it readers see the
  //    previous generation, after it the new one.
  write_publish(fs, layout::index_path(dir),
                dir + "/" + layout::kIndexTmpFile, index.serialize());

  // 4. Retire the journal; a crash before this leaves a stale journal
  //    whose target generation equals the committed one (scrub clears it).
  fs.remove(layout::journal_path(dir));
}

// -------------------------------------------------------------- reader ----

ArchiveReader::ArchiveReader(robust::Fs& fs, std::string dir)
    : fs_(fs), dir_(std::move(dir)) {
  if (!fs_.exists(layout::index_path(dir_))) {
    throw format_error("archive: no committed index in '" + dir_ + "'");
  }
  const auto bytes = fs_.read_file(layout::index_path(dir_));
  stats_.reads += 1;
  stats_.bytes_read += bytes.size();
  index_ = Index::deserialize(bytes);
  engine::EngineConfig cfg;
  engine_ = std::make_shared<engine::Engine>(cfg);
}

size_t ArchiveReader::entry_index(const std::string& name) const {
  const size_t i = index_.find(name);
  if (i == static_cast<size_t>(-1)) {
    throw format_error("archive: no entry named '" + name + "'");
  }
  return i;
}

const EntryInfo& ArchiveReader::entry_at(size_t i) const {
  if (i >= index_.entries.size()) {
    throw format_error("archive: entry index out of range");
  }
  return index_.entries[i];
}

std::string ArchiveReader::shard_path_of(const EntryInfo& e) const {
  return layout::shard_path(dir_, index_.shards[e.shard_index].file_name());
}

std::vector<byte_t> ArchiveReader::read_exact(const std::string& path,
                                              std::uint64_t offset,
                                              size_t n) const {
  auto bytes = fs_.read_range(path, offset, n);
  stats_.reads += 1;
  stats_.bytes_read += bytes.size();
  if (bytes.size() != n) {
    throw format_error("archive: short read from '" + path + "'");
  }
  return bytes;
}

std::vector<byte_t> ArchiveReader::read_stream(size_t i) const {
  const EntryInfo& e = entry_at(i);
  return read_exact(shard_path_of(e),
                    layout::kShardHeaderBytes + e.offset,
                    checked_cast<size_t>(e.stream_bytes));
}

data::Field ArchiveReader::extract(size_t i) const {
  const EntryInfo& e = entry_at(i);
  if (e.dtype != Dtype::kF32) {
    throw format_error("archive: entry '" + e.name +
                       "' is f64 (use extract_f64)");
  }
  data::Field f;
  f.name = e.name;
  f.dims = e.dims;
  f.values = engine_->decompress(read_stream(i));
  if (f.values.size() != e.dims.count()) {
    throw format_error("archive: entry '" + e.name +
                       "' element count does not match its dims");
  }
  return f;
}

data::Field ArchiveReader::extract(const std::string& name) const {
  return extract(entry_index(name));
}

std::vector<double> ArchiveReader::extract_f64(size_t i) const {
  const EntryInfo& e = entry_at(i);
  if (e.dtype != Dtype::kF64) {
    throw format_error("archive: entry '" + e.name +
                       "' is f32 (use extract)");
  }
  auto values = engine_->decompress_f64(read_stream(i));
  if (values.size() != e.dims.count()) {
    throw format_error("archive: entry '" + e.name +
                       "' element count does not match its dims");
  }
  return values;
}

std::vector<float> ArchiveReader::extract_range(size_t i, size_t begin,
                                                size_t end) const {
  const EntryInfo& e = entry_at(i);
  if (e.dtype != Dtype::kF32) {
    throw format_error("archive: extract_range on f64 entry '" + e.name +
                       "'");
  }
  const std::string path = shard_path_of(e);
  const std::uint64_t base = layout::kShardHeaderBytes + e.offset;
  // The range decoder seeks through the stream with one read per fetch:
  // header, footer, then the covering groups' length bytes and payload.
  // Each fetched buffer lives in `held` until the decode returns.
  std::vector<std::vector<byte_t>> held;
  const core::StreamFetch fetch = [&](size_t off, size_t len) {
    held.push_back(read_exact(path, base + off, len));
    return std::span<const byte_t>(held.back());
  };
  try {
    return core::decompress_range(
        fetch, checked_cast<size_t>(e.stream_bytes), begin, end);
  } catch (const format_error& ex) {
    throw format_error("archive: entry '" + e.name + "': " + ex.what());
  }
}

robust::DecodeReport ArchiveReader::try_extract(
    size_t i, data::Field& out, const robust::DecodeOptions& opts) const {
  out = data::Field{};
  if (i >= index_.entries.size()) {
    robust::DecodeReport rep;
    rep.status = robust::Status::kInternalError;
    rep.detail = "archive: entry index out of range";
    return rep;
  }
  const EntryInfo& e = index_.entries[i];
  out.name = e.name;
  out.dims = e.dims;
  if (e.dtype != Dtype::kF32) {
    robust::DecodeReport rep;
    rep.status = robust::Status::kTypeMismatch;
    rep.detail = "archive: entry '" + e.name + "' is f64";
    return rep;
  }
  std::vector<byte_t> stream;
  try {
    // Plain read_range (not read_exact): a truncated shard yields a short
    // stream that try_decompress classifies instead of an exception.
    stream = fs_.read_range(shard_path_of(e),
                            layout::kShardHeaderBytes + e.offset,
                            checked_cast<size_t>(e.stream_bytes));
    stats_.reads += 1;
    stats_.bytes_read += stream.size();
  } catch (const robust::io_error& ex) {
    robust::DecodeReport rep;
    rep.status = robust::Status::kTruncated;
    rep.detail = std::string("archive: shard unreadable: ") + ex.what();
    return rep;
  }
  return robust::try_decompress(stream, out.values, opts);
}

std::uint64_t ArchiveReader::archive_bytes() const {
  std::uint64_t total =
      static_cast<std::uint64_t>(index_.serialize().size());
  for (const auto& s : index_.shards) {
    total += layout::kShardHeaderBytes + s.payload_bytes;
  }
  return total;
}

}  // namespace szp::archive
