// Host execution profiler suite: attribution accounting on real
// parallel-backend runs, deterministic-counter fingerprints, the JSON
// schema, and the disabled-path branch-cost guard (the hostprof analogue
// of obs/test_overhead.cpp).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "support/mini_json.hpp"
#include "szp/core/format.hpp"
#include "szp/data/registry.hpp"
#include "szp/engine/engine.hpp"
#include "szp/obs/hostprof/hostprof.hpp"
#include "szp/obs/hostprof/report.hpp"

namespace {

using namespace szp;
namespace hostprof = obs::hostprof;
using testsupport::JsonParser;
using testsupport::JsonValue;

core::Params test_params() {
  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  return p;
}

data::Field test_field() {
  // ~250k elements: enough blocks for every lane to claim work, fast
  // enough to roundtrip many times.
  return data::make_field(data::Suite::kHacc, 0, 0.25);
}

/// reset → one profiled compress+decompress roundtrip → snapshot.
hostprof::Snapshot profiled_roundtrip(const data::Field& field,
                                      unsigned threads) {
  auto& prof = hostprof::Profiler::instance();
  prof.reset();
  engine::Engine eng({.params = test_params(),
                      .backend = engine::BackendKind::kParallelHost,
                      .threads = threads});
  const double range = field.value_range();
  auto stream = eng.compress(field.values, range);
  const auto recon = eng.decompress(stream.bytes);
  EXPECT_EQ(recon.size(), field.values.size());
  return prof.snapshot();
}

class HostprofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hostprof::Profiler::instance().set_enabled(true);
    hostprof::Profiler::instance().reset();
  }
  void TearDown() override {
    hostprof::Profiler::instance().set_enabled(false);
    hostprof::Profiler::instance().reset();
  }
};

TEST_F(HostprofTest, OptionsParsing) {
  EXPECT_FALSE(hostprof::options_from_string("").enabled);
  EXPECT_FALSE(hostprof::options_from_string("0").enabled);
  EXPECT_FALSE(hostprof::options_from_string("off").enabled);
  EXPECT_TRUE(hostprof::options_from_string("1").enabled);
  EXPECT_TRUE(hostprof::options_from_string("1").export_path.empty());
  EXPECT_TRUE(hostprof::options_from_string("on").enabled);
  const auto o = hostprof::options_from_string("/tmp/hp.json");
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.export_path, "/tmp/hp.json");
}

TEST_F(HostprofTest, FourThreadRunAttributesEveryLane) {
  const data::Field field = test_field();
  const auto snap = profiled_roundtrip(field, 4);

  // One caller lane plus three worker lanes, all labeled.
  ASSERT_GE(snap.threads.size(), 4u);
  size_t workers = 0, callers = 0;
  for (const auto& t : snap.threads) {
    if (t.label.rfind("szp-worker-", 0) == 0) ++workers;
    if (t.label.rfind("szp-caller-", 0) == 0) ++callers;
  }
  EXPECT_EQ(workers, 3u);
  EXPECT_EQ(callers, 1u);

  // Attribution closes: every lane's wall is exactly bucket time + idle,
  // so percentages sum to 100 by construction.
  for (const auto& t : snap.threads) {
    std::uint64_t attributed = 0;
    for (const auto ns : t.bucket_ns) attributed += ns;
    EXPECT_EQ(t.wall_ns, attributed + t.idle_ns) << t.label;
  }

  // The codec stages all ran somewhere.
  const auto agg = hostprof::aggregate_attribution(snap);
  EXPECT_GT(agg.bucket(hostprof::Bucket::kQP), 0u);
  EXPECT_GT(agg.bucket(hostprof::Bucket::kFE), 0u);
  EXPECT_GT(agg.bucket(hostprof::Bucket::kBB), 0u);
  EXPECT_GT(agg.work_ns(), 0u);
  // A 4-lane run pays real executor overhead (dispatch + waits), so the
  // dominant non-work bucket is nameable.
  EXPECT_GT(agg.overhead_ns(), 0u);
  EXPECT_NE(hostprof::dominant_overhead(agg), "none");
}

TEST_F(HostprofTest, CountersAreExact) {
  const data::Field field = test_field();
  const auto snap = profiled_roundtrip(field, 4);
  const size_t nblocks =
      core::num_blocks(field.values.size(), test_params().block_len);

  EXPECT_EQ(snap.counter(hostprof::HostCounter::kCompressCalls), 1u);
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kDecompressCalls), 1u);
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kBlocksEncoded), nblocks);
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kBlocksDecoded), nblocks);
  // compress reads raw + writes stream; decompress reads stream + writes
  // raw — the two totals are equal for a full roundtrip.
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kBytesRead),
            snap.counter(hostprof::HostCounter::kBytesWritten));
  EXPECT_GT(snap.counter(hostprof::HostCounter::kBytesRead),
            field.size_bytes());
  // One compress + one decompress, each split into width-many chunks.
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kChunks), 2u * 4u);
  EXPECT_GT(snap.counter(hostprof::HostCounter::kBatches), 0u);
  EXPECT_GT(snap.counter(hostprof::HostCounter::kTasks), 0u);
  // Compress observed its 4 chunks in the size histograms.
  EXPECT_EQ(snap.chunk_blocks.count, 4u);
  std::uint64_t blocks_sum = snap.chunk_blocks.sum;
  EXPECT_EQ(blocks_sum, nblocks);
}

TEST_F(HostprofTest, FingerprintIsRunToRunIdentical) {
  const data::Field field = test_field();
  for (const unsigned threads : {1u, 4u}) {
    const std::string a =
        hostprof::counter_fingerprint(profiled_roundtrip(field, threads));
    const std::string b =
        hostprof::counter_fingerprint(profiled_roundtrip(field, threads));
    EXPECT_EQ(a, b) << "threads=" << threads;
    EXPECT_NE(a.find("\"blocks_encoded\""), std::string::npos);
  }
}

TEST_F(HostprofTest, ThreadMatrixCountersArePinned) {
  // HACC vx at field scale 2.5 (2.5M elements), three roundtrips per pool
  // width on a fresh pool: the executor's chunk/task/batch split and its
  // 64-byte false-sharing boundary count are exact functions of the field
  // and the width, and the stream is the same at every width.
  struct Pin {
    unsigned threads;
    std::uint64_t chunks, tasks, batches, false_shared_boundaries;
  };
  constexpr Pin kPins[] = {
      {1, 6, 12, 12, 0}, {2, 12, 24, 12, 3}, {4, 24, 48, 12, 9},
      {8, 48, 96, 12, 21}};
  constexpr size_t kStreamBytes = 2057825;

  const data::Field field = data::make_field(data::Suite::kHacc, 0, 2.5);
  ASSERT_EQ(field.name, "vx");
  ASSERT_EQ(field.count(), 2'500'000u);
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%g",
                static_cast<double>(field.size_bytes()) / kStreamBytes);
  EXPECT_STREQ(ratio, "4.8595");

  const double range = field.value_range();
  auto& prof = hostprof::Profiler::instance();
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.threads);
    prof.reset();  // drop the previous pool's dead worker lanes
    hostprof::Snapshot snap;
    {
      engine::Engine eng({.params = test_params(),
                          .backend = engine::BackendKind::kParallelHost,
                          .threads = pin.threads});
      for (int rep = 0; rep < 3; ++rep) {
        const auto stream = eng.compress(field.values, range);
        EXPECT_EQ(stream.bytes.size(), kStreamBytes);
        EXPECT_EQ(eng.decompress(stream.bytes).size(), field.count());
      }
      snap = prof.snapshot();
    }
    EXPECT_EQ(snap.threads.size(), pin.threads);
    EXPECT_EQ(snap.counter(hostprof::HostCounter::kChunks), pin.chunks);
    EXPECT_EQ(snap.counter(hostprof::HostCounter::kTasks), pin.tasks);
    EXPECT_EQ(snap.counter(hostprof::HostCounter::kBatches), pin.batches);
    EXPECT_EQ(snap.counter(hostprof::HostCounter::kFalseSharedBoundaries),
              pin.false_shared_boundaries);
    if (pin.threads > 1) {
      EXPECT_NE(hostprof::dominant_overhead(
                    hostprof::aggregate_attribution(snap)),
                "none");
    }
  }
}

TEST_F(HostprofTest, JsonReportParsesWithSchemaV1) {
  const data::Field field = test_field();
  const auto snap = profiled_roundtrip(field, 4);
  std::ostringstream os;
  hostprof::write_hostprof_json(os, snap);
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(os.str()).parse());

  const JsonValue* version = doc.find("szp_hostprof_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->num, 1.0);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* blocks = counters->find("blocks_encoded");
  ASSERT_NE(blocks, nullptr);
  EXPECT_EQ(static_cast<size_t>(blocks->num),
            core::num_blocks(field.values.size(), test_params().block_len));
  const JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->arr.size(), snap.threads.size());

  // Per-lane and summary attribution percentages must sum to ~100.
  const auto pct_sum = [](const JsonValue& attribution) {
    double sum = 0;
    for (const auto& [key, v] : attribution.obj) sum += v.num;
    return sum;
  };
  for (const auto& t : threads->arr) {
    const JsonValue* attr = t.find("attribution_pct");
    ASSERT_NE(attr, nullptr);
    EXPECT_NEAR(pct_sum(*attr), 100.0, 0.1);
  }
  const JsonValue* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  const JsonValue* attr = summary->find("attribution_pct");
  ASSERT_NE(attr, nullptr);
  EXPECT_NEAR(pct_sum(*attr), 100.0, 0.1);
  const JsonValue* dom = summary->find("dominant_overhead");
  ASSERT_NE(dom, nullptr);
  EXPECT_TRUE(dom->str == "queue_wait" || dom->str == "dispatch" ||
              dom->str == "barrier")
      << dom->str;
}

TEST_F(HostprofTest, ResetDropsDeadLanesAndZeroesCounters) {
  const data::Field field = test_field();
  (void)profiled_roundtrip(field, 4);  // pool destroyed: 3 dead lanes
  auto& prof = hostprof::Profiler::instance();
  prof.reset();
  const auto snap = prof.snapshot();
  for (const auto& t : snap.threads) EXPECT_TRUE(t.alive) << t.label;
  for (unsigned c = 0; c < hostprof::kNumHostCounters; ++c) {
    EXPECT_EQ(snap.counters[c], 0u);
  }
  EXPECT_EQ(snap.chunk_blocks.count, 0u);
}

// --- disabled-path guard (same contract as obs/test_overhead.cpp) -------

using Clock = std::chrono::steady_clock;
constexpr int kIters = 2'000'000;
constexpr double kMaxDisabledNsPerSite = 100.0;

double ns_per_iter(Clock::time_point t0, int iters) {
  const auto dt = Clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                 .count()) /
         iters;
}

TEST(HostprofOverhead, DisabledTimersAreBranchCheap) {
  hostprof::Profiler::instance().set_enabled(false);
  hostprof::Profiler::instance().reset();
  ASSERT_FALSE(hostprof::enabled());
  auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    const hostprof::ScopedTimer t(hostprof::Bucket::kQP);
  }
  double ns = ns_per_iter(t0, kIters);
  RecordProperty("ns_per_scoped_timer", std::to_string(ns));
  EXPECT_LT(ns, kMaxDisabledNsPerSite);

  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    hostprof::SplitTimer t(hostprof::Bucket::kQP);
    t.split(hostprof::Bucket::kFE);
  }
  ns = ns_per_iter(t0, kIters);
  RecordProperty("ns_per_split_timer", std::to_string(ns));
  // ctor + split + dtor: three disabled sites.
  EXPECT_LT(ns, 3 * kMaxDisabledNsPerSite);
}

TEST(HostprofOverhead, DisabledCounterSitesAreBranchCheapAndRecordNothing) {
  auto& prof = hostprof::Profiler::instance();
  prof.set_enabled(false);
  prof.reset();
  ASSERT_FALSE(hostprof::enabled());
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    // The product-code guard pattern around every counter update.
    if (hostprof::enabled()) {
      prof.count(hostprof::HostCounter::kTasks);
      prof.observe_chunk(1, 1);
    }
  }
  const double ns = ns_per_iter(t0, kIters);
  RecordProperty("ns_per_guarded_site", std::to_string(ns));
  EXPECT_LT(ns, kMaxDisabledNsPerSite);
  const auto snap = prof.snapshot();
  EXPECT_EQ(snap.counter(hostprof::HostCounter::kTasks), 0u);
  EXPECT_EQ(snap.chunk_blocks.count, 0u);
  for (const auto& t : snap.threads) {
    for (const auto b : t.bucket_ns) EXPECT_EQ(b, 0u);
  }
}

}  // namespace
