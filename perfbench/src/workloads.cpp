#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "szp/archive/archive_v2.hpp"
#include "szp/archive/layout.hpp"
#include "szp/core/random_access.hpp"
#include "szp/data/generators.hpp"
#include "szp/data/registry.hpp"
#include "szp/robust/io.hpp"

namespace perfbench {

using szp::byte_t;
using szp::Rng;
namespace archive = szp::archive;
namespace core = szp::core;
namespace data = szp::data;
namespace engine = szp::engine;

// ------------------------------------------------------------- helpers ----

Engines::Engines(const core::Params& params) {
  for (size_t i = 0; i < kBackends.size(); ++i) {
    engine::EngineConfig cfg;
    cfg.params = params;
    cfg.backend = kBackends[i];
    cfg.threads = kThreads;
    // One device, one stream: two streams would run two launches of 4
    // block workers each at once, twice the 4 vCPUs of the reference host.
    cfg.devices = 1;
    cfg.streams = 1;
    engines[i] = std::make_unique<engine::Engine>(cfg);
  }
}

engine::Engine& Engines::get(engine::BackendKind kind) {
  for (size_t i = 0; i < kBackends.size(); ++i) {
    if (kBackends[i] == kind) return *engines[i];
  }
  throw std::logic_error("perfbench: no engine for backend");
}

std::string gbps_name(const char* op, engine::BackendKind kind) {
  return std::string(op) + "." + std::string(engine::backend_name(kind));
}

bool check_decode(const data::Field& original, std::span<const float> decoded,
                  double eb_abs, RoundStats& stats) {
  if (decoded.size() != original.values.size()) return false;
  double max_err = 0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    const double err = std::abs(static_cast<double>(decoded[i]) -
                                static_cast<double>(original.values[i]));
    if (err > eb_abs) ++stats.violations;
    max_err = std::max(max_err, err);
  }
  stats.checked_elements += decoded.size();
  if (eb_abs > 0) {
    stats.max_err_over_eb = std::max(stats.max_err_over_eb, max_err / eb_abs);
  }
  return true;
}

Range point_query(Rng& rng, size_t n) {
  if (n <= kQueryLen) return {0, n};
  const size_t begin = rng.next_below(n - kQueryLen + 1);
  return {begin, begin + kQueryLen};
}

namespace {

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_slice(std::span<const float> got, std::span<const float> full,
                Range r) {
  return r.end <= full.size() &&
         same<float>(got, full.subspan(r.begin, r.end - r.begin));
}

double eb_of(std::span<const byte_t> stream) {
  return core::Header::deserialize(stream).eb_abs;
}

/// 0..n-1 in an order drawn from `rng`.
std::vector<size_t> shuffled(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

/// Backend visiting order for one (round, item): rotated so that no
/// backend always runs first on cold data.
size_t backend_at(size_t k, size_t rotation) {
  return (k + rotation) % kBackends.size();
}

void push_gbps(Samples& samples, const char* op, size_t b, size_t item,
               double bytes, double seconds) {
  samples.gbps[gbps_name(op, kBackends[b])].add(item, bytes, seconds);
}

// ------------------------------------------------------- bulk_snapshot ----

/// A few large fields round-tripped one at a time through each backend.
class BulkSnapshot final : public Workload {
  // RTM scale whose volume, with three same-sized HACC streams, makes one
  // round's raw input 120 MB (114 MiB): larger than the 105 MiB L3.
  static constexpr double kRtmScale = 10.0;
  static constexpr size_t kQueriesPerStep = 128;  // per field and backend

 public:
  double setup(std::uint64_t seed) override {
    params_ = core::Params{};
    params_.mode = core::ErrorMode::kRel;
    params_.error_bound = 1e-4;
    fields_.clear();
    const auto t0 = Clock::now();
    const data::Dims dims = data::scaled_dims(data::Suite::kRtm, kRtmScale);
    Rng rng(seed);
    // HACC velocity streams (the registry's bulk-flow and thermal-noise
    // parameters), same length as the RTM volume so the pools hit.
    for (const char* name : {"hacc_vx", "hacc_vy", "hacc_vz"}) {
      fields_.push_back(data::particle_stream(name, dims.count(),
                                              rng.next_u64(), 7600.0, 130.0));
    }
    data::RtmParams p;
    p.timestep = 1200;
    p.wave_speed = 1.4 * static_cast<double>(dims[0]) / 3600.0;
    fields_.push_back(
        data::rtm_wavefield("rtm_t1200", dims, rng.next_u64(), p));
    const double generate_s = seconds_since(t0);
    engines_ = std::make_unique<Engines>(params_);
    return generate_s;
  }

  void round(Rng& rng, Ledger& ledger, Samples& samples,
             RoundStats& stats) override {
    const Span round_span("round");
    const unsigned r = round_index_++;
    double raw = 0;
    for (size_t fi = 0; fi < fields_.size(); ++fi) {
      const data::Field& f = fields_[fi];
      raw += static_cast<double>(f.size_bytes());
      std::vector<byte_t> ref_stream;
      std::vector<float> ref_decode;
      for (size_t k = 0; k < kBackends.size(); ++k) {
        const size_t b = backend_at(k, r + fi);
        engine::Engine& eng = engines_->get(kBackends[b]);
        std::vector<byte_t> stream;
        ledger.run("bulk_snapshot compress", [&] {
          const auto t0 = Clock::now();
          {
            const Span s("engine.compress");
            stream = eng.compress(f.span()).bytes;
          }
          push_gbps(samples, "compress_gbps", b, fi,
                    static_cast<double>(f.size_bytes()), seconds_since(t0));
          const Span s("bench.check");
          if (ref_stream.empty()) {
            ref_stream = stream;
            return true;
          }
          return same<byte_t>(stream, ref_stream);
        });
        ledger.run("bulk_snapshot decompress", [&] {
          std::vector<float> decoded;
          const auto t0 = Clock::now();
          {
            const Span s("engine.decompress");
            decoded = eng.decompress(stream);
          }
          push_gbps(samples, "decompress_gbps", b, fi,
                    static_cast<double>(f.size_bytes()), seconds_since(t0));
          const Span s("bench.check");
          if (ref_decode.empty()) {
            const bool ok = check_decode(f, decoded, eb_of(stream), stats);
            ref_decode = std::move(decoded);
            return ok;
          }
          return same<float>(decoded, ref_decode);
        });
        // Queries after every round trip, so their samples spread over
        // the whole run instead of bunching where a host stall can hit
        // them all.
        for (size_t q = 0; q < kQueriesPerStep; ++q) {
          const Range rg = point_query(rng, f.count());
          ledger.run("bulk_snapshot range query", [&] {
            std::vector<float> got;
            const auto t0 = Clock::now();
            {
              const Span s("core.decompress_range");
              got = core::decompress_range(ref_stream, rg.begin, rg.end);
            }
            samples.query_us.push_back(seconds_since(t0) * 1e6);
            return same_slice(got, ref_decode, rg);
          });
        }
      }
      stats.stream_bytes += static_cast<double>(ref_stream.size());
    }
    stats.raw_bytes = raw;
  }

  void compress_pass(engine::BackendKind kind) override {
    engine::Engine& eng = engines_->get(kind);
    for (const auto& f : fields_) (void)eng.compress(f.span());
  }
};

// --------------------------------------------------------- field_batch ----

/// Hundreds of small fields of every suite through compress_batch, then
/// decompressed one by one.
class FieldBatch final : public Workload {
  static constexpr size_t kFieldsPerSuite = 32;
  // Small batches keep few small-call fan-outs in one sample, so a host
  // stall spoils a few samples instead of most of them.
  static constexpr size_t kBatch = 8;
  static constexpr size_t kQueriesPerBatch = 16;
  // Registry scales of the size ladder: every field stays below 200k
  // elements (800 kB), inside one core's 2 MiB L2.
  static constexpr std::array<double, 4> kScales = {0.02, 0.04, 0.08, 0.16};

 public:
  double setup(std::uint64_t seed) override {
    params_ = core::Params{};
    params_.mode = core::ErrorMode::kRel;
    params_.error_bound = 1e-2;
    fields_.clear();
    const auto t0 = Clock::now();
    Rng rng(seed);
    // Every (suite, field, ladder step) pairing is fixed; the seed jitters
    // each scale by +-10% (so shapes and values differ per seed), deals the
    // fields into batches, and sets the order the batches run in each round.
    for (const auto& info : data::all_suites()) {
      for (size_t j = 0; j < kFieldsPerSuite; ++j) {
        const double scale =
            kScales[j % kScales.size()] * rng.uniform(0.9, 1.1);
        data::Field f = data::make_field(info.id, j % info.num_fields, scale);
        f.name = info.name + "." + f.name + "." + std::to_string(j);
        fields_.push_back(std::move(f));
      }
    }
    order_ = shuffled(fields_.size(), rng);
    const double generate_s = seconds_since(t0);
    engines_ = std::make_unique<Engines>(params_);
    return generate_s;
  }

  void round(Rng& rng, Ledger& ledger, Samples& samples,
             RoundStats& stats) override {
    const Span round_span("round");
    const unsigned r = round_index_++;
    // The same batches every round, so each batch's call times form one
    // item of the throughput; only the order they run in changes.
    const size_t batches = (order_.size() + kBatch - 1) / kBatch;
    double raw = 0;
    for (const size_t bi : shuffled(batches, rng)) {
      const size_t first = bi * kBatch;
      const size_t count = std::min(kBatch, order_.size() - first);
      std::vector<std::span<const float>> batch;
      double bytes = 0;
      for (size_t j = 0; j < count; ++j) {
        batch.push_back(fields_[order_[first + j]].span());
        bytes += static_cast<double>(fields_[order_[first + j]].size_bytes());
      }
      raw += bytes;
      std::vector<std::vector<byte_t>> ref_streams;
      for (size_t k = 0; k < kBackends.size(); ++k) {
        const size_t b = backend_at(k, r + bi);
        engine::Engine& eng = engines_->get(kBackends[b]);
        ledger.run("field_batch compress_batch", [&] {
          std::vector<engine::CompressedStream> out;
          const auto t0 = Clock::now();
          {
            const Span s("engine.compress_batch");
            out = eng.compress_batch(batch);
          }
          push_gbps(samples, "compress_gbps", b, bi, bytes,
                    seconds_since(t0));
          const Span s("bench.check");
          if (out.size() != count) return false;
          if (ref_streams.empty()) {
            for (auto& o : out) ref_streams.push_back(std::move(o.bytes));
            return true;
          }
          for (size_t j = 0; j < count; ++j) {
            if (!same<byte_t>(out[j].bytes, ref_streams[j])) return false;
          }
          return true;
        });
      }
      if (ref_streams.size() != count) continue;  // every backend failed
      for (const auto& s : ref_streams) {
        stats.stream_bytes += static_cast<double>(s.size());
      }

      // Each field is its own decompress item, so a stall on one call
      // spoils only that call of that field.
      std::vector<std::vector<float>> ref_decodes(count);
      for (size_t j = 0; j < count; ++j) {
        for (size_t k = 0; k < kBackends.size(); ++k) {
          const size_t b = backend_at(k, r + bi + j);
          engine::Engine& eng = engines_->get(kBackends[b]);
          ledger.run("field_batch decompress", [&] {
            std::vector<float> decoded;
            const auto t0 = Clock::now();
            {
              const Span s("engine.decompress");
              decoded = eng.decompress(ref_streams[j]);
            }
            push_gbps(samples, "decompress_gbps", b, order_[first + j],
                      static_cast<double>(batch[j].size_bytes()),
                      seconds_since(t0));
            const Span s("bench.check");
            if (k == 0) {
              const bool ok =
                  check_decode(fields_[order_[first + j]], decoded,
                               eb_of(ref_streams[j]), stats);
              ref_decodes[j] = std::move(decoded);
              return ok;
            }
            return same<float>(decoded, ref_decodes[j]);
          });
        }
      }

      for (size_t q = 0; q < kQueriesPerBatch; ++q) {
        const size_t j = rng.next_below(count);
        const Range rg = point_query(rng, batch[j].size());
        ledger.run("field_batch range query", [&] {
          std::vector<float> got;
          const auto t0 = Clock::now();
          {
            const Span s("core.decompress_range");
            got = core::decompress_range(ref_streams[j], rg.begin, rg.end);
          }
          samples.query_us.push_back(seconds_since(t0) * 1e6);
          return same_slice(got, ref_decodes[j], rg);
        });
      }
    }
    stats.raw_bytes = raw;
  }

  void compress_pass(engine::BackendKind kind) override {
    engine::Engine& eng = engines_->get(kind);
    for (size_t first = 0; first < fields_.size(); first += kBatch) {
      std::vector<std::span<const float>> batch;
      const size_t last = std::min(first + kBatch, fields_.size());
      for (size_t j = first; j < last; ++j) {
        batch.push_back(fields_[order_[j]].span());
      }
      (void)eng.compress_batch(batch);
    }
  }

 private:
  std::vector<size_t> order_;  // fields in batch order: batch i is [8i, 8i+8)
};

// ------------------------------------------------------- archive_query ----

/// Journaled ingest of a corpus into a v2 archive on an in-memory Fs,
/// then a closed loop of point queries from one client.
class ArchiveQuery final : public Workload {
  static constexpr double kScale = 0.5;
  // 32 groups per round (one after each of 3 commits and 29 entries).
  static constexpr size_t kQueriesPerGroup = 32;
  static constexpr size_t kExtractEvery = 100;  // whole-field extract cadence
  static constexpr const char* kDir = "arc";

 public:
  double setup(std::uint64_t seed) override {
    params_ = core::Params{};
    params_.mode = core::ErrorMode::kRel;
    params_.error_bound = 1e-3;
    fields_.clear();
    const auto t0 = Clock::now();
    Rng rng(seed);
    // Every field of every suite, each scale jittered by +-10% from the seed.
    for (const auto& info : data::all_suites()) {
      for (size_t i = 0; i < info.num_fields; ++i) {
        data::Field f =
            data::make_field(info.id, i, kScale * rng.uniform(0.9, 1.1));
        f.name = info.name + "." + f.name;
        fields_.push_back(std::move(f));
      }
    }
    const double generate_s = seconds_since(t0);
    refs_.assign(fields_.size(), {});
    engines_ = std::make_unique<Engines>(params_);
    return generate_s;
  }

  void round(Rng& rng, Ledger& ledger, Samples& samples,
             RoundStats& stats) override {
    const Span round_span("round");
    const unsigned r = round_index_++;
    double raw = 0;
    for (const auto& f : fields_) raw += static_cast<double>(f.size_bytes());
    stats.raw_bytes = raw;

    // The first commit's archive serves the round's reads. Point queries
    // run in groups after every commit and after every entry's decodes,
    // so their samples spread over the whole round instead of bunching
    // where one host stall can hit them all.
    std::unique_ptr<szp::robust::MemFs> ref_fs;
    std::unique_ptr<archive::ArchiveReader> reader;
    std::vector<size_t> field_of;
    const auto query_group = [&] {
      if (reader) run_queries(*reader, field_of, rng, ledger, samples);
    };
    for (size_t k = 0; k < kBackends.size(); ++k) {
      const size_t b = backend_at(k, r);
      auto fs = std::make_unique<szp::robust::MemFs>();
      ledger.run("archive_query commit", [&] {
        const auto t0 = Clock::now();
        commit(*fs, kBackends[b]);
        push_gbps(samples, "compress_gbps", b, 0, raw, seconds_since(t0));
        const Span s("bench.check");
        if (!ref_fs) {
          ref_fs = std::move(fs);
          return true;
        }
        return same_archive(*ref_fs, *fs);
      });
      if (ref_fs && !reader) {
        ledger.run("archive_query open", [&] {
          reader = std::make_unique<archive::ArchiveReader>(*ref_fs, kDir);
          for (const auto& e : reader->entries()) {
            field_of.push_back(field_index(e.name));
            stats.stream_bytes += static_cast<double>(e.stream_bytes);
          }
          return field_of.size() == fields_.size();
        });
      }
      query_group();
    }
    if (!reader) return;

    // Each entry is its own decompress item, so a stall on one call
    // spoils only that call of that entry.
    for (size_t i = 0; i < field_of.size(); ++i) {
      const size_t fi = field_of[i];
      for (size_t k = 0; k < kBackends.size(); ++k) {
        const size_t b = backend_at(k, r + i);
        engine::Engine& eng = engines_->get(kBackends[b]);
        ledger.run("archive_query decode", [&] {
          std::vector<byte_t> stream;
          std::vector<float> decoded;
          const auto t0 = Clock::now();
          {
            const Span s("archive.read_stream");
            stream = reader->read_stream(i);
          }
          {
            const Span s("engine.decompress");
            decoded = eng.decompress(stream);
          }
          push_gbps(samples, "decompress_gbps", b, fi,
                    static_cast<double>(fields_[fi].size_bytes()),
                    seconds_since(t0));
          const Span s("bench.check");
          bool ok = true;
          if (k == 0) {
            ok = check_decode(fields_[fi], decoded, eb_of(stream), stats);
          }
          if (refs_[fi].empty()) {
            refs_[fi] = std::move(decoded);
            return ok;
          }
          return ok && same<float>(decoded, refs_[fi]);
        });
      }
      query_group();
    }
  }

  void compress_pass(engine::BackendKind kind) override {
    szp::robust::MemFs fs;
    commit(fs, kind);
  }

 private:
  void commit(szp::robust::Fs& fs, engine::BackendKind kind) const {
    const Span s("archive.commit");
    archive::WriterOptions opts;
    opts.params = params_;
    opts.backend = kind;
    opts.threads = kind == engine::BackendKind::kParallelHost ? kThreads : 1;
    archive::ArchiveWriter writer(fs, kDir, opts);
    for (const auto& f : fields_) writer.add(f);
    writer.commit();
  }

  /// One group of closed-loop point queries from a single client, plus a
  /// whole-field extract every kExtractEvery-th query. Results are checked
  /// against the stored full decode of the entry (made on first use).
  void run_queries(const archive::ArchiveReader& reader,
                   const std::vector<size_t>& field_of, Rng& rng,
                   Ledger& ledger, Samples& samples) {
    for (size_t q = 0; q < kQueriesPerGroup; ++q) {
      const size_t i = rng.next_below(field_of.size());
      const std::vector<float>& ref = reference(reader, i, field_of[i]);
      const Range rg = point_query(rng, fields_[field_of[i]].count());
      ledger.run("archive_query extract_range", [&] {
        std::vector<float> got;
        const auto t0 = Clock::now();
        {
          const Span s("archive.extract_range");
          got = reader.extract_range(i, rg.begin, rg.end);
        }
        samples.query_us.push_back(seconds_since(t0) * 1e6);
        return same_slice(got, ref, rg);
      });
      if (++queries_run_ % kExtractEvery == 0) {
        ledger.run("archive_query extract", [&] {
          const Span s("archive.extract");
          return same<float>(reader.extract(i).values, ref);
        });
      }
    }
  }

  const std::vector<float>& reference(const archive::ArchiveReader& reader,
                                      size_t entry, size_t field) {
    if (refs_[field].empty()) {
      try {
        refs_[field] = reader.extract(entry).values;
      } catch (const std::exception&) {
        // Left empty: every query on this entry then fails its check.
      }
    }
    return refs_[field];
  }

  size_t field_index(const std::string& name) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return i;
    }
    throw std::runtime_error("archive entry '" + name +
                             "' is not in the corpus");
  }

  /// Index and every shard file byte-identical.
  static bool same_archive(szp::robust::MemFs& a, szp::robust::MemFs& b) {
    const std::string index = archive::layout::index_path(kDir);
    if (a.read_file(index) != b.read_file(index)) return false;
    const std::string shards = archive::layout::shard_dir(kDir);
    const auto names = a.list_dir(shards);
    if (names != b.list_dir(shards)) return false;
    for (const auto& n : names) {
      if (a.read_file(shards + "/" + n) != b.read_file(shards + "/" + n)) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::vector<float>> refs_;  // full decode per field
  size_t queries_run_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "bulk_snapshot") return std::make_unique<BulkSnapshot>();
  if (name == "field_batch") return std::make_unique<FieldBatch>();
  if (name == "archive_query") return std::make_unique<ArchiveQuery>();
  return nullptr;
}

}  // namespace perfbench
