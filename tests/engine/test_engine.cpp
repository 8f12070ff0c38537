// Engine and backend tests: every backend must produce byte-identical
// streams and identical reconstructions on every registry dataset, for
// both stream format versions; the pools must actually reuse their
// entries; the thread pool must propagate task exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <thread>

#include "szp/core/serial.hpp"
#include "szp/data/registry.hpp"
#include "szp/engine/engine.hpp"
#include "szp/gpusim/pool.hpp"
#include "szp/perfmodel/cost.hpp"
#include "szp/perfmodel/hardware.hpp"

namespace szp::engine {
namespace {

std::vector<data::Field> sample_fields() {
  std::vector<data::Field> fields;
  for (const auto& info : data::all_suites()) {
    fields.push_back(data::make_field(info.id, 0, 0.02));
  }
  return fields;
}

core::Params rel_params(unsigned group_blocks = core::kChecksumGroupBlocks) {
  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  p.checksum_group_blocks = group_blocks;
  return p;
}

// ------------------------------------------------ backend equivalence ----

class BackendEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendEquivalence, StreamsByteIdenticalAcrossBackends) {
  // GetParam() = checksum group size; 0 exercises format v1 (no footer).
  const core::Params p = rel_params(GetParam());
  Engine serial({.params = p, .backend = BackendKind::kSerial});
  Engine parallel(
      {.params = p, .backend = BackendKind::kParallelHost, .threads = 4});
  Engine device({.params = p, .backend = BackendKind::kDevice});

  for (const auto& field : sample_fields()) {
    const double range = field.value_range();
    const auto ref = serial.compress(field.values, range);
    const auto par = parallel.compress(field.values, range);
    const auto dev = device.compress(field.values, range);
    EXPECT_EQ(ref.bytes, par.bytes) << field.name;
    EXPECT_EQ(ref.bytes, dev.bytes) << field.name;
    // And identical to the legacy serial entry point.
    EXPECT_EQ(ref.bytes, core::compress_serial(field.values, p, range))
        << field.name;

    const auto rec_ref = serial.decompress(ref.bytes);
    const auto rec_par = parallel.decompress(ref.bytes);
    const auto rec_dev = device.decompress(ref.bytes);
    EXPECT_EQ(rec_ref, rec_par) << field.name;
    EXPECT_EQ(rec_ref, rec_dev) << field.name;
  }
}

INSTANTIATE_TEST_SUITE_P(FormatVersions, BackendEquivalence,
                         ::testing::Values(0u, 16u,
                                           core::kChecksumGroupBlocks));

TEST(BackendEquivalenceF64, StreamsByteIdentical) {
  const core::Params p = rel_params();
  Engine serial({.params = p, .backend = BackendKind::kSerial});
  Engine parallel(
      {.params = p, .backend = BackendKind::kParallelHost, .threads = 4});
  Engine device({.params = p, .backend = BackendKind::kDevice});

  const auto field = data::make_field(data::Suite::kNyx, 1, 0.05);
  std::vector<double> values(field.values.begin(), field.values.end());
  const double range = field.value_range();

  const auto ref = serial.compress_f64(values, range);
  const auto par = parallel.compress_f64(values, range);
  const auto dev = device.compress_f64(values, range);
  EXPECT_EQ(ref.bytes, par.bytes);
  EXPECT_EQ(ref.bytes, dev.bytes);

  const auto rec_ref = serial.decompress_f64(ref.bytes);
  EXPECT_EQ(rec_ref, parallel.decompress_f64(ref.bytes));
  EXPECT_EQ(rec_ref, device.decompress_f64(ref.bytes));
}

TEST(BackendEquivalence, ManyThreadCountsAgree) {
  const auto field = data::make_field(data::Suite::kCesmAtm, 2, 0.05);
  const core::Params p = rel_params();
  const double range = field.value_range();
  const auto ref = core::compress_serial(field.values, p, range);
  for (const unsigned threads : {2u, 3u, 5u, 8u}) {
    Engine eng({.params = p,
                .backend = BackendKind::kParallelHost,
                .threads = threads});
    EXPECT_EQ(eng.compress(field.values, range).bytes, ref)
        << threads << " threads";
    EXPECT_EQ(eng.decompress(ref), core::decompress_serial(ref))
        << threads << " threads";
  }
}

TEST(BackendEquivalence, OutlierAndLorenzo2Configs) {
  // Non-default codec configs flow through the shared host codec too.
  const auto field = data::make_field(data::Suite::kHacc, 1, 0.03);
  const double range = field.value_range();
  for (const bool outlier : {false, true}) {
    core::Params p = rel_params();
    p.outlier_mode = outlier;
    p.lorenzo_layers = outlier ? 1 : 2;
    const auto ref = core::compress_serial(field.values, p, range);
    Engine par(
        {.params = p, .backend = BackendKind::kParallelHost, .threads = 4});
    EXPECT_EQ(par.compress(field.values, range).bytes, ref);
    EXPECT_EQ(par.decompress(ref), core::decompress_serial(ref));
  }
}

// ------------------------------------------------ pinned stream sizes ----

// Field 0 of every suite at scale 0.1, REL 1e-3: the exact stream size
// and the ratio printed to 6 significant digits, as the backend comparison
// runs have recorded them since format v2. A codec change that moves one
// byte of any suite's stream fails here.
struct PinnedStream {
  const char* suite;
  const char* field;
  size_t elements;
  size_t stream_bytes;
  const char* ratio;
};

constexpr PinnedStream kPinnedStreams[] = {
    {"Hurricane", "U", 40368, 22814, "7.07776"},
    {"NYX", "temperature", 50653, 37003, "5.47556"},
    {"QMCPack", "einspline_orbital_0", 85698, 38455, "8.91411"},
    {"RTM", "snapshot_t300", 75712, 14058, "21.5428"},
    {"HACC", "vx", 100000, 94453, "4.23491"},
    {"CESM-ATM", "CLDHGH", 40470, 7545, "21.4553"},
};

TEST(PinnedStreams, EverySuiteKeepsItsExactSizeOnEveryBackend) {
  const core::Params p = rel_params();
  Engine serial({.params = p, .backend = BackendKind::kSerial});
  Engine parallel(
      {.params = p, .backend = BackendKind::kParallelHost, .threads = 4});
  Engine device({.params = p, .backend = BackendKind::kDevice});
  const perfmodel::CostModel model(perfmodel::a100());

  const auto& suites = data::all_suites();
  ASSERT_EQ(suites.size(), std::size(kPinnedStreams));
  for (size_t s = 0; s < suites.size(); ++s) {
    const PinnedStream& pin = kPinnedStreams[s];
    SCOPED_TRACE(pin.suite);
    EXPECT_EQ(suites[s].name, pin.suite);
    const auto field = data::make_field(suites[s].id, 0, 0.1);
    EXPECT_EQ(field.name, pin.field);
    EXPECT_EQ(field.count(), pin.elements);
    EXPECT_EQ(field.size_bytes(), pin.elements * sizeof(float));

    const double range = field.value_range();
    const auto ref = serial.compress(field.values, range);
    EXPECT_EQ(ref.bytes.size(), pin.stream_bytes);
    EXPECT_EQ(parallel.compress(field.values, range).bytes, ref.bytes);
    const auto dev = device.compress(field.values, range);
    EXPECT_EQ(dev.bytes, ref.bytes);

    const double ratio = static_cast<double>(field.size_bytes()) /
                         static_cast<double>(ref.bytes.size());
    EXPECT_GT(ratio, 1.0);
    char six_digits[32];
    std::snprintf(six_digits, sizeof six_digits, "%g", ratio);
    EXPECT_STREQ(six_digits, pin.ratio);
    EXPECT_GT(model.end_to_end_gbps(dev.trace, field.size_bytes()), 0.0);
  }
}

// --------------------------------------------------------- batch API ----

TEST(EngineBatch, MatchesPerFieldCompression) {
  const core::Params p = rel_params();
  Engine eng(
      {.params = p, .backend = BackendKind::kParallelHost, .threads = 4});
  const auto fields = sample_fields();
  std::vector<std::span<const float>> views;
  views.reserve(fields.size());
  for (const auto& f : fields) views.push_back(f.values);

  const auto batch = eng.compress_batch(views);
  ASSERT_EQ(batch.size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(batch[i].bytes,
              core::compress_serial(fields[i].values, p,
                                    fields[i].value_range()))
        << fields[i].name;
  }
}

TEST(EngineBatch, SharedValueRangeAppliesToEveryField) {
  const core::Params p = rel_params();
  Engine eng({.params = p, .backend = BackendKind::kSerial});
  const auto fields = sample_fields();
  std::vector<std::span<const float>> views;
  for (const auto& f : fields) views.push_back(f.values);

  const double shared = 42.5;
  const auto batch = eng.compress_batch(views, shared);
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(batch[i].bytes,
              core::compress_serial(fields[i].values, p, shared))
        << fields[i].name;
  }
}

// ------------------------------------------------------ device engine ----

TEST(EngineDevice, RoundtripMatchesHostPath) {
  const core::Params p = rel_params();
  const auto field = data::make_field(data::Suite::kHurricane, 0, 0.05);
  const double range = field.value_range();
  Engine eng({.params = p, .backend = BackendKind::kDevice});
  auto rt = eng.device_roundtrip(field.values, range, /*keep_stream=*/true);
  EXPECT_EQ(rt.stream, core::compress_serial(field.values, p, range));
  EXPECT_EQ(rt.compressed_bytes, rt.stream.size());
  EXPECT_EQ(rt.reconstruction, core::decompress_serial(rt.stream));
  EXPECT_GT(rt.comp_trace.kernel_launches, 0u);
  EXPECT_GT(rt.decomp_trace.kernel_launches, 0u);
  EXPECT_DOUBLE_EQ(rt.eb_abs, core::resolve_eb(p, range));
}

TEST(EngineDevice, DeviceAccessorThrowsOnHostBackends) {
  Engine host({.params = rel_params(), .backend = BackendKind::kSerial});
  EXPECT_THROW((void)host.device(), format_error);
  Engine dev({.params = rel_params(), .backend = BackendKind::kDevice});
  EXPECT_NO_THROW((void)dev.device());
  EXPECT_THROW((void)host.device_roundtrip(std::vector<float>(64, 1.f)),
               format_error);
}

TEST(EngineDevice, PrecisionMismatchRejected) {
  Engine eng({.params = rel_params(), .backend = BackendKind::kDevice});
  const std::vector<float> data(256, 1.5f);
  const auto f32_stream = eng.compress(data, 10.0);
  EXPECT_THROW((void)eng.decompress_f64(f32_stream.bytes), format_error);
}

// ------------------------------------------------------- buffer pool ----

TEST(BufferPool, ReusesIdleBuffers) {
  gpusim::Device dev;
  gpusim::BufferPool<float> pool(dev);
  { auto a = pool.acquire(1024); }
  { auto b = pool.acquire(512); }   // fits in the idle 1024 entry
  { auto c = pool.acquire(1024); }
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BufferPool, GrowsIdleEntryInsteadOfLeaking) {
  gpusim::Device dev;
  gpusim::BufferPool<float> pool(dev);
  { auto a = pool.acquire(100); }
  { auto b = pool.acquire(5000); }  // idle entry too small: grown in place
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.allocations(), 2u);
  { auto c = pool.acquire(5000); }
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, ConcurrentLeases) {
  gpusim::Device dev;
  gpusim::BufferPool<float> pool(dev);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        auto lease = pool.acquire(64 + (t * 37 + i) % 512);
        auto& buf = lease.buffer();
        if (buf.size() < 64) failed = true;
        buf[0] = static_cast<float>(t);
        if (buf[0] != static_cast<float>(t)) failed = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed);
  // At most one entry per concurrently-live lease.
  EXPECT_LE(pool.size(), 8u);
  EXPECT_GT(pool.reuses(), 0u);
}

TEST(BufferPool, DevicePoolsReusedAcrossEngineCalls) {
  Engine eng({.params = rel_params(), .backend = BackendKind::kDevice});
  auto* backend = dynamic_cast<DeviceBackend*>(&eng.backend());
  ASSERT_NE(backend, nullptr);
  const auto field = data::make_field(data::Suite::kNyx, 0, 0.02);
  const double range = field.value_range();
  for (int i = 0; i < 4; ++i) {
    (void)eng.compress(field.values, range);
  }
  // First call allocates, later calls only reuse.
  EXPECT_GE(backend->byte_pool().reuses(), 3u);
  EXPECT_GE(backend->f32_pool().reuses(), 3u);
}

// ------------------------------------------------------ scratch pool ----

TEST(ScratchPool, HitsOnRepeatedShape) {
  // Any idle arena is a hit, whatever shape its last call had.
  ScratchPool pool;
  { auto a = pool.acquire(); }
  { auto b = pool.acquire(); }
  { auto c = pool.acquire(); }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ScratchPool, AlternatingCompressAndDecompressHit) {
  // Compress and decompress calls on one backend share its warm arena.
  Engine eng({.params = rel_params(), .backend = BackendKind::kSerial});
  auto* backend = dynamic_cast<SerialBackend*>(&eng.backend());
  ASSERT_NE(backend, nullptr);
  const auto field = data::make_field(data::Suite::kNyx, 0, 0.02);
  for (int i = 0; i < 3; ++i) {
    const auto cmp = eng.compress(field.values);
    (void)eng.decompress(cmp.bytes);
  }
  EXPECT_EQ(backend->scratch_pool().misses(), 1u);
  EXPECT_EQ(backend->scratch_pool().hits(), 5u);
}

TEST(ScratchPool, ConcurrentLeasesGetDistinctArenas) {
  ScratchPool pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_NE(&a.scratch(), &b.scratch());
  EXPECT_EQ(pool.size(), 2u);
}

// ------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.width(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.run(counts.size(), [&](size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(64,
               [&](size_t i) {
                 if (i == 13) throw format_error("boom");
               }),
      format_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> ran{0};
  pool.run(8, [&](size_t) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(17, [&](size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

}  // namespace
}  // namespace szp::engine
