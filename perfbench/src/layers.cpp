#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "szp/archive/archive_v2.hpp"
#include "szp/core/device.hpp"
#include "szp/core/host_codec.hpp"
#include "szp/core/random_access.hpp"
#include "szp/core/stages.hpp"
#include "szp/gpusim/buffer.hpp"
#include "szp/obs/hostprof/hostprof.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/perfmodel/cost.hpp"
#include "szp/robust/io.hpp"
#include "szp/util/crc32c.hpp"

namespace perfbench {

using szp::byte_t;
namespace archive = szp::archive;
namespace core = szp::core;
namespace data = szp::data;
namespace engine = szp::engine;
namespace gpusim = szp::gpusim;
namespace hostprof = szp::obs::hostprof;

PoolCounts scratch_counts(Engines& engines) {
  PoolCounts c;
  for (const auto kind : kBackends) {
    engine::Backend& b = engines.get(kind).backend();
    engine::ScratchPool* pool = nullptr;
    if (auto* s = dynamic_cast<engine::SerialBackend*>(&b)) {
      pool = &s->scratch_pool();
    } else if (auto* p = dynamic_cast<engine::ParallelHostBackend*>(&b)) {
      pool = &p->scratch_pool();
    }
    if (pool != nullptr) {
      c.hits += static_cast<double>(pool->hits());
      c.misses += static_cast<double>(pool->misses());
    }
  }
  return c;
}

namespace {

double ratio_or_zero(double num, double den) { return den > 0 ? num / den : 0; }

double sample_gbps(const Samples& s, const std::string& name) {
  const auto it = s.gbps.find(name);
  return it == s.gbps.end() ? 0 : it->second.gbps();
}

// ---------------------------------------------------------- codec stages ----

struct StageNs {
  double qp = 0, lorenzo = 0, fe = 0, bb = 0, crc_per_byte = 0;
  double unbb = 0, inverse = 0;
  /// Seconds of the compress stages (QP, Lorenzo, FE, BB, CRC) spent on
  /// the first `closure_fields` fields: the stage part of the closure.
  double closure_s = 0;
};

/// Times the public core/stages.hpp functions on the workload's own
/// blocks, one stage at a time over chunks of 16 blocks (so a chunk's
/// working set stays in L1, as in the block codec's fused per-block
/// pass), in the order the block codec calls them.
/// Tail elements that do not fill a block are skipped.
StageNs time_stages(const std::vector<data::Field>& fields,
                    const std::vector<double>& ebs, const core::Params& params,
                    const std::vector<std::vector<byte_t>>& streams,
                    size_t closure_fields) {
  const size_t L = params.block_len;
  constexpr size_t kChunkBlocks = 16;
  std::vector<std::int32_t> q(kChunkBlocks * L), q2(kChunkBlocks * L);
  std::vector<std::uint32_t> mags(kChunkBlocks * L), mags2(kChunkBlocks * L);
  std::vector<byte_t> signs(kChunkBlocks * L / 8);
  std::vector<byte_t> planes(kChunkBlocks * 32 * L / 8);
  std::vector<unsigned> fl(kChunkBlocks);
  std::vector<float> out(kChunkBlocks * L);
  const auto blk = [L](auto& v, size_t k) {
    return std::span(v).subspan(k * L, L);
  };
  const auto sign_blk = [&](size_t k) {
    return std::span(signs).subspan(k * L / 8, L / 8);
  };
  const auto plane_blk = [&](size_t k) {
    return std::span(planes).subspan(k * 32 * L / 8, fl[k] * L / 8);
  };

  double t_qp = 0, t_lor = 0, t_fe = 0, t_bb = 0, t_unbb = 0, t_inv = 0;
  double elems = 0, closure_s = 0;
  for (size_t fi = 0; fi < fields.size(); ++fi) {
    const double before = t_qp + t_lor + t_fe + t_bb;
    const auto in = fields[fi].span();
    const double eb = ebs[fi];
    const size_t full_blocks = in.size() / L;
    for (size_t b0 = 0; b0 < full_blocks; b0 += kChunkBlocks) {
      const size_t nb = std::min(kChunkBlocks, full_blocks - b0);
      auto t = Clock::now();
      for (size_t k = 0; k < nb; ++k) {
        core::quantize(in.subspan((b0 + k) * L, L), eb, blk(q, k));
      }
      t_qp += seconds_since(t);
      t = Clock::now();
      if (params.lorenzo) {
        for (size_t k = 0; k < nb; ++k) {
          if (params.lorenzo_layers == 2) {
            core::lorenzo2_forward(blk(q, k));
          } else {
            core::lorenzo_forward(blk(q, k));
          }
        }
      }
      t_lor += seconds_since(t);
      t = Clock::now();
      for (size_t k = 0; k < nb; ++k) {
        core::split_signs(blk(q, k), blk(mags, k), sign_blk(k));
        fl[k] = core::fixed_length_of(blk(mags, k));
      }
      t_fe += seconds_since(t);
      t = Clock::now();
      for (size_t k = 0; k < nb; ++k) {
        if (fl[k] == 0) continue;
        core::bit_shuffle(blk(mags, k), fl[k], plane_blk(k));
      }
      t_bb += seconds_since(t);
      t = Clock::now();
      for (size_t k = 0; k < nb; ++k) {
        if (fl[k] == 0) {
          std::fill_n(q2.begin() + static_cast<std::ptrdiff_t>(k * L), L, 0);
          continue;
        }
        core::bit_unshuffle(plane_blk(k), fl[k], blk(mags2, k));
        core::apply_signs(blk(mags2, k), sign_blk(k), blk(q2, k));
      }
      t_unbb += seconds_since(t);
      t = Clock::now();
      for (size_t k = 0; k < nb; ++k) {
        if (params.lorenzo) core::lorenzo_inverse(blk(q2, k));
        core::dequantize(blk(q2, k), eb, blk(out, k));
      }
      t_inv += seconds_since(t);
      elems += static_cast<double>(nb * L);
    }
    if (fi < closure_fields) closure_s += t_qp + t_lor + t_fe + t_bb - before;
  }

  double crc_bytes = 0, t_crc = 0;
  for (size_t i = 0; i < streams.size(); ++i) {
    const auto t = Clock::now();
    const std::uint32_t crc = szp::crc32c(streams[i]);
    const double dt = seconds_since(t);
    if (crc == 0x5eed) crc_bytes += 0;  // keeps the call observable
    crc_bytes += static_cast<double>(streams[i].size());
    t_crc += dt;
    if (i < closure_fields) closure_s += dt;
  }

  StageNs ns;
  ns.qp = ratio_or_zero(t_qp * 1e9, elems);
  ns.lorenzo = ratio_or_zero(t_lor * 1e9, elems);
  ns.fe = ratio_or_zero(t_fe * 1e9, elems);
  ns.bb = ratio_or_zero(t_bb * 1e9, elems);
  ns.unbb = ratio_or_zero(t_unbb * 1e9, elems);
  ns.inverse = ratio_or_zero(t_inv * 1e9, elems);
  ns.crc_per_byte = ratio_or_zero(t_crc * 1e9, crc_bytes);
  ns.closure_s = closure_s;
  return ns;
}

/// Repetitions per field of the interleaved engine-vs-host timing.
constexpr size_t kReps = 3;

/// Number of leading fields that together hold at least `bytes`.
size_t prefix_fields(const std::vector<data::Field>& fields, double bytes) {
  size_t n = 0;
  for (double sum = 0; n < fields.size() && sum < bytes; ++n) {
    sum += static_cast<double>(fields[n].size_bytes());
  }
  return n;
}

}  // namespace

std::vector<Metric> measure_layers(Workload& w, const Samples& samples,
                                   std::uint64_t seed, Ledger& ledger) {
  const auto& fields = w.fields();
  const core::Params& params = w.params();
  engine::Engine& serial = w.engines().get(engine::BackendKind::kSerial);
  engine::Engine& device = w.engines().get(engine::BackendKind::kDevice);
  std::vector<Metric> out;
  const auto put = [&out](std::string name, double value, std::string unit) {
    out.push_back(Metric{std::move(name), value, std::move(unit), ""});
  };

  double raw = 0, elems = 0;
  std::vector<double> ebs;
  for (const auto& f : fields) {
    raw += static_cast<double>(f.size_bytes());
    elems += static_cast<double>(f.count());
    ebs.push_back(serial.eb_abs_for(f.span(), std::nullopt));
  }

  // gpusim + perfmodel: device counters of each Engine device call, the
  // kernel alone on resident buffers, and the A100 model of the counters.
  // The device streams feed the stage and stream-shape measurements.
  std::vector<std::vector<byte_t>> streams(fields.size());
  {
    const Span span("layers.device");
    gpusim::Device& dev = device.device();
    const szp::perfmodel::CostModel model(szp::perfmodel::a100());
    double launches = 0, dev_bytes = 0, memcpy_bytes = 0;
    double engine_dev_s = 0, kernel_s = 0, model_comp_s = 0, model_decomp_s = 0;
    for (size_t fi = 0; fi < fields.size(); ++fi) {
      const auto& f = fields[fi];
      ledger.run("layers device compress", [&] {
        gpusim::TraceSnapshot before = dev.snapshot();
        auto t0 = Clock::now();
        streams[fi] = device.compress(f.span()).bytes;
        engine_dev_s += seconds_since(t0);
        const gpusim::TraceSnapshot comp = dev.snapshot() - before;

        before = dev.snapshot();
        const auto decoded = device.decompress(streams[fi]);
        const gpusim::TraceSnapshot decomp = dev.snapshot() - before;

        const auto in = gpusim::to_device(dev, f.span());
        gpusim::DeviceBuffer<byte_t> cmp(
            dev, core::max_compressed_bytes(f.count(), params.block_len,
                                            params.checksum_group_blocks));
        t0 = Clock::now();
        const auto res = engine::device_compress(dev, in, f.count(), params,
                                                 ebs[fi], cmp);
        kernel_s += seconds_since(t0);

        launches += static_cast<double>(comp.kernel_launches);
        dev_bytes += static_cast<double>(comp.total_device_read_bytes() +
                                         comp.total_device_write_bytes());
        memcpy_bytes += static_cast<double>(comp.total_memcpy_bytes());
        model_comp_s += model.run(comp).end_to_end_s();
        model_decomp_s += model.run(decomp).end_to_end_s();
        return res.bytes == streams[fi].size() && decoded.size() == f.count();
      });
    }
    const double calls = static_cast<double>(fields.size());
    put("gpusim.kernel_share", ratio_or_zero(kernel_s, engine_dev_s),
        "fraction");
    put("gpusim.launches_per_call", ratio_or_zero(launches, calls),
        "launches/call");
    put("gpusim.device_bytes_per_elem", ratio_or_zero(dev_bytes, elems),
        "B/elem");
    put("gpusim.memcpy_bytes_per_elem", ratio_or_zero(memcpy_bytes, elems),
        "B/elem");
    put("perfmodel.modeled_comp_gbps", ratio_or_zero(raw / 1e9, model_comp_s),
        "GB/s");
    put("perfmodel.modeled_decomp_gbps",
        ratio_or_zero(raw / 1e9, model_decomp_s), "GB/s");
  }

  // engine: Engine serial compress vs core::compress_host on the serial
  // executor, interleaved per field, on the first 16 MB of fields.
  const size_t subset = prefix_fields(fields, 16e6);
  double engine_s = 0, host_s = 0;
  {
    const Span span("layers.engine_vs_host");
    core::HostScratch scratch;
    for (size_t fi = 0; fi < subset; ++fi) {
      std::vector<double> te, th;
      for (size_t rep = 0; rep < kReps; ++rep) {
        ledger.run("layers engine compress", [&] {
          auto t0 = Clock::now();
          const auto via_engine = serial.compress(fields[fi].span()).bytes;
          te.push_back(seconds_since(t0));
          t0 = Clock::now();
          const auto direct =
              core::compress_host(fields[fi].span(), params, ebs[fi],
                                  core::serial_executor(), scratch);
          th.push_back(seconds_since(t0));
          return via_engine == streams[fi] && direct == streams[fi];
        });
      }
      engine_s += median(te);
      host_s += median(th);
    }
  }

  StageNs ns;
  {
    const Span span("layers.stages");
    ns = time_stages(fields, ebs, params, streams, subset);
  }
  double zero_blocks = 0, blocks = 0, fl_sum = 0;
  for (const auto& s : streams) {
    if (s.empty()) continue;
    const core::StreamStats st = core::inspect_stream(s);
    zero_blocks += static_cast<double>(st.zero_blocks);
    blocks += static_cast<double>(st.num_blocks);
    fl_sum += st.mean_fixed_length *
              static_cast<double>(st.num_blocks - st.zero_blocks);
  }

  put("core.qp_ns_per_elem", ns.qp, "ns/elem");
  put("core.lorenzo_ns_per_elem", ns.lorenzo, "ns/elem");
  put("core.fe_ns_per_elem", ns.fe, "ns/elem");
  put("core.bb_ns_per_elem", ns.bb, "ns/elem");
  put("core.crc_ns_per_byte", ns.crc_per_byte, "ns/B");
  put("core.unbb_ns_per_elem", ns.unbb, "ns/elem");
  put("core.inverse_ns_per_elem", ns.inverse, "ns/elem");
  // Closure of the serial compress wall time: stages + engine overhead +
  // the remainder inside core::compress_host that no stage function covers
  // (block padding and scratch copies, payload scatter, header and footer).
  put("core.stage_share", ratio_or_zero(ns.closure_s, engine_s), "fraction");
  put("engine.overhead_share", ratio_or_zero(engine_s - host_s, engine_s),
      "fraction");
  put("core.unattributed_share",
      ratio_or_zero(host_s - ns.closure_s, engine_s), "fraction");
  put("core.zero_block_share", ratio_or_zero(zero_blocks, blocks), "fraction");
  put("core.mean_fixed_length", ratio_or_zero(fl_sum, blocks - zero_blocks),
      "bits");
  put("engine.overhead_us_per_call",
      ratio_or_zero((engine_s - host_s) * 1e6, static_cast<double>(subset)),
      "us/call");
  put("engine.parallel_efficiency",
      ratio_or_zero(sample_gbps(samples, "compress_gbps.parallel"),
                    kThreads * sample_gbps(samples, "compress_gbps.serial")),
      "fraction");

  // executor: the host profiler over the workload's own parallel compress.
  {
    const Span span("layers.hostprof");
    auto& prof = hostprof::Profiler::instance();
    prof.reset();
    prof.set_enabled(true);
    ledger.run("layers parallel compress", [&] {
      w.compress_pass(engine::BackendKind::kParallelHost);
      return true;
    });
    const hostprof::Snapshot snap = prof.snapshot();
    prof.set_enabled(false);
    double wait = 0, wall = 0;
    for (const auto& lane : snap.threads) {
      wait += static_cast<double>(
          lane.bucket_ns[static_cast<unsigned>(hostprof::Bucket::kQueueWait)]);
      wall += static_cast<double>(lane.wall_ns);
    }
    put("executor.queue_wait_share", ratio_or_zero(wait, wall), "fraction");
    put("executor.tasks_per_call",
        ratio_or_zero(
            static_cast<double>(snap.counter(hostprof::HostCounter::kTasks)),
            static_cast<double>(
                snap.counter(hostprof::HostCounter::kCompressCalls))),
        "tasks/call");
  }

  // archive: serial ingest of the workload's fields into an in-memory v2
  // archive, the share of it spent outside compression, and point queries
  // through the reader against the same ranges decoded straight from the
  // stream.
  {
    const Span span("layers.archive");
    szp::robust::MemFs fs;
    double compress_s = 0, commit_s = 0;
    ledger.run("layers archive commit", [&] {
      // The commit's serial compression, done alone on the same fields.
      bool ok = true;
      for (size_t fi = 0; fi < fields.size(); ++fi) {
        const auto t0 = Clock::now();
        const auto stream = serial.compress(fields[fi].span()).bytes;
        compress_s += seconds_since(t0);
        ok = ok && stream == streams[fi];
      }
      const auto t0 = Clock::now();
      archive::ArchiveWriter writer(fs, "layers",
                                    archive::WriterOptions{params});
      for (const auto& f : fields) writer.add(f);
      writer.commit();
      commit_s = seconds_since(t0);
      return ok;
    });
    put("archive.publish_share", 1 - ratio_or_zero(compress_s, commit_s),
        "fraction");

    std::vector<double> range_us, extract_us;
    double reads = 0, bytes_read = 0, stored = 0;
    ledger.run("layers archive queries", [&] {
      const archive::ArchiveReader reader(fs, "layers");
      stored = static_cast<double>(reader.archive_bytes());
      std::vector<std::vector<byte_t>> entry_streams;
      for (size_t i = 0; i < reader.entries().size(); ++i) {
        entry_streams.push_back(reader.read_stream(i));
      }
      szp::Rng rng(seed ^ 0x71a7e5ULL);
      constexpr size_t kQueries = 400;
      bool ok = true;
      for (size_t q = 0; q < kQueries; ++q) {
        const size_t i = rng.next_below(entry_streams.size());
        const Range rg = point_query(
            rng, static_cast<size_t>(reader.entries()[i].dims.count()));
        auto t0 = Clock::now();
        const auto direct =
            core::decompress_range(entry_streams[i], rg.begin, rg.end);
        range_us.push_back(seconds_since(t0) * 1e6);
        const archive::IoStats io0 = reader.io_stats();
        t0 = Clock::now();
        const auto via_reader = reader.extract_range(i, rg.begin, rg.end);
        extract_us.push_back(seconds_since(t0) * 1e6);
        reads += static_cast<double>(reader.io_stats().reads - io0.reads);
        bytes_read +=
            static_cast<double>(reader.io_stats().bytes_read - io0.bytes_read);
        ok = ok && direct == via_reader;
      }
      return ok;
    });
    const double queries = static_cast<double>(range_us.size());
    put("core.range_decode_us", median(range_us), "us");
    put("archive.query_overhead_us", median(extract_us) - median(range_us),
        "us");
    put("archive.bytes_read_per_query", ratio_or_zero(bytes_read, queries),
        "B/query");
    put("archive.reads_per_query", ratio_or_zero(reads, queries),
        "reads/query");
    put("archive.stored_bytes_per_raw", ratio_or_zero(stored, raw), "fraction");
  }

  // obs: SZP_TELEMETRY's flight recorder on vs off, interleaved passes of
  // serial compress over the same fields.
  {
    const Span span("layers.telemetry");
    std::vector<double> on, off;
    const auto t_start = Clock::now();
    for (unsigned pair = 0;
         pair < 3 || (pair < 20 && seconds_since(t_start) < 3.0); ++pair) {
      for (const bool tel : {pair % 2 == 0, pair % 2 != 0}) {
        szp::obs::fr::set_enabled(tel);
        const auto t0 = Clock::now();
        for (size_t i = 0; i < subset; ++i) {
          (void)serial.compress(fields[i].span());
        }
        (tel ? on : off).push_back(seconds_since(t0));
      }
    }
    szp::obs::fr::set_enabled(false);
    put("obs.telemetry_overhead_share",
        ratio_or_zero(median(on), median(off)) - 1, "fraction");
  }
  return out;
}

}  // namespace perfbench
