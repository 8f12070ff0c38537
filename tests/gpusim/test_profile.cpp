// gpusim kernel profiler tests: counter collection on the real device
// codec, JSON/text report schema, the derived perf-model section, the
// disabled fast path (empty snapshots + overhead budget) and composition
// with the sanitizer (profile counters identical with every checker on).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "szp/core/compressor.hpp"
#include "szp/data/registry.hpp"
#include "szp/gpusim/buffer.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/gpusim/profile/report.hpp"
#include "support/mini_json.hpp"

namespace {

using namespace szp;
namespace gs = gpusim;
namespace prof = gpusim::profile;
using testsupport::JsonParser;
using testsupport::JsonValue;

std::vector<float> make_data(size_t n = 64 * 1024) {
  std::vector<float> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.001) *
                                 10.0);
  }
  return data;
}

/// Compress + decompress `data` (the test field by default) on `dev`;
/// returns nothing — the caller reads the profiler.
void run_codec(gs::Device& dev, const core::Params& params,
               const std::vector<float>& data = make_data(),
               double value_range = 20.0) {
  Compressor c(params);
  auto d_in = gs::to_device<float>(dev, std::span<const float>(data));
  gs::DeviceBuffer<byte_t> d_cmp(
      dev, core::max_compressed_bytes(data.size(), params.block_len));
  gs::DeviceBuffer<float> d_out(dev, data.size());
  const auto comp =
      c.compress_on_device(dev, d_in, data.size(), value_range, d_cmp);
  (void)c.decompress_on_device(dev, d_cmp, d_out, comp.bytes);
  (void)gs::to_host(dev, d_out);
}

core::Params default_params() {
  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  return p;
}

const prof::LaunchProfile* find_launch(const prof::SessionProfile& s,
                                       const std::string& kernel) {
  for (const auto& lp : s.launches) {
    if (lp.kernel == kernel) return &lp;
  }
  return nullptr;
}

TEST(Profile, DeviceCodecCountersAreNonzero) {
  // Field 0 of every suite at scale 0.1: each roundtrip's two kernels
  // carry every stage's counters and wall time.
  for (const auto& suite : data::all_suites()) {
    SCOPED_TRACE(suite.name);
    const auto field = data::make_field(suite.id, 0, 0.1);
    gs::Device dev(4, gs::sanitize::Tools::none(), prof::Options::on());
    ASSERT_NE(dev.profiler(), nullptr);
    run_codec(dev, default_params(), field.values, field.value_range());
    const auto session = dev.profile_snapshot();

    ASSERT_GE(session.launches.size(), 2u);
    for (const auto& lp : session.launches) {
      EXPECT_GT(lp.wall_ns, 0u) << lp.kernel;
      EXPECT_TRUE(std::any_of(
          lp.stages.begin(), lp.stages.end(),
          [](const auto& sp) { return !sp.counters_empty() || sp.ns > 0; }))
          << lp.kernel;
    }
    for (const char* kernel : {"szp_compress", "szp_decompress"}) {
      const auto* lp = find_launch(session, kernel);
      ASSERT_NE(lp, nullptr) << kernel;
      EXPECT_GT(lp->grid_blocks, 0u);
      EXPECT_EQ(lp->blocks.executed, lp->grid_blocks);
      EXPECT_GT(lp->wall_ns, 0u);
      // Every paper stage must be attributed: bytes/ops and wall time.
      for (const gs::Stage st :
           {gs::Stage::kQuantPredict, gs::Stage::kFixedLenEncode,
            gs::Stage::kGlobalSync, gs::Stage::kBitShuffle}) {
        const auto& sp = lp->stages[static_cast<unsigned>(st)];
        EXPECT_FALSE(sp.counters_empty())
            << kernel << " stage " << gs::stage_name(st);
        EXPECT_GT(sp.ns, 0u) << kernel << " stage " << gs::stage_name(st);
      }
      // Warp primitives fire in QP/FE (shuffles) and the block reductions.
      std::uint64_t warp_total = 0;
      for (const auto c : lp->warp_ops) warp_total += c;
      EXPECT_GT(warp_total, 0u) << kernel;
      // cuSZp's kernels are warp-synchronous (one warp per block): any
      // nonzero barrier count would mean an accounting bug.
      EXPECT_EQ(lp->barriers, 0u) << kernel;
    }

    // The default chained scan publishes descriptors with release stores
    // and walks predecessors in the compression kernel.
    const auto* comp = find_launch(session, "szp_compress");
    EXPECT_GT(comp->atomic_stores, 0u);
    EXPECT_GT(comp->lookback_calls, 0u);
    EXPECT_EQ(comp->lookback_depth.count, comp->lookback_calls);

    // Buffer traffic and PCIe transfers were attributed.
    ASSERT_FALSE(session.buffers.empty());
    std::uint64_t buf_traffic = 0;
    for (const auto& b : session.buffers) {
      buf_traffic += b.read_bytes + b.write_bytes;
    }
    EXPECT_GT(buf_traffic, 0u);
    EXPECT_GT(session.memcpy.h2d_bytes, 0u);
    EXPECT_GT(session.memcpy.d2h_bytes, 0u);
    EXPECT_GT(session.memcpy.h2d_count, 0u);
  }
}

// The profile keeps no second copy of what the Trace counts: a launch's
// stage counters plus its lookback polling are that launch's own Trace
// diff (its timeline record), and the session's memcpy bytes are the
// Trace's, header and size readbacks included.
TEST(Profile, CountersMatchTheTrace) {
  for (const core::ScanAlgo scan :
       {core::ScanAlgo::kChained, core::ScanAlgo::kTwoPass}) {
    SCOPED_TRACE(scan == core::ScanAlgo::kChained ? "chained" : "two-pass");
    gs::Device dev(4, gs::sanitize::Tools::none(), prof::Options::on());
    dev.set_timeline_enabled(true);
    core::Params params = default_params();
    params.scan = scan;
    run_codec(dev, params);
    const auto session = dev.profile_snapshot();

    std::vector<gs::OpRecord> kernels;
    for (const auto& op : dev.timeline()) {
      if (op.kind == gs::OpKind::kKernel) kernels.push_back(op);
    }
    ASSERT_EQ(kernels.size(), session.launches.size());
    for (size_t i = 0; i < kernels.size(); ++i) {
      const auto& lp = session.launches[i];
      const gs::TraceSnapshot& diff = kernels[i].trace;
      SCOPED_TRACE(lp.kernel);
      EXPECT_EQ(lp.kernel, kernels[i].name);
      for (unsigned s = 0; s < gs::kNumStages; ++s) {
        const auto st = static_cast<gs::Stage>(s);
        const std::uint64_t polled =
            st == gs::Stage::kGlobalSync ? lp.lookback_read_bytes : 0;
        EXPECT_EQ(lp.stages[s].read_bytes + polled,
                  diff.stages[s].read_bytes)
            << gs::stage_name(st);
        EXPECT_EQ(lp.stages[s].write_bytes, diff.stages[s].write_bytes)
            << gs::stage_name(st);
        EXPECT_EQ(lp.stages[s].ops, diff.stages[s].ops) << gs::stage_name(st);
      }
    }

    const gs::TraceSnapshot total = dev.snapshot();
    EXPECT_EQ(session.memcpy.h2d_bytes, total.h2d_bytes);
    EXPECT_EQ(session.memcpy.d2h_bytes, total.d2h_bytes);
    EXPECT_EQ(session.memcpy.d2d_bytes, total.d2d_bytes);
  }
}

TEST(Profile, BarriersAndWarpOpsCountedInSyntheticKernel) {
  gs::Device dev(2, gs::sanitize::Tools::none(), prof::Options::on());
  gs::launch(dev, "synthetic", 4, [](const gs::BlockCtx& ctx) {
    ctx.block_barrier();
    ctx.warp_op("ballot_sync", prof::WarpOp::kBallot, 0xffffffffu);
    ctx.block_barrier();
  });
  const auto session = dev.profile_snapshot();
  const auto* lp = find_launch(session, "synthetic");
  ASSERT_NE(lp, nullptr);
  EXPECT_EQ(lp->barriers, 8u);  // 2 per block x 4 blocks
  EXPECT_EQ(lp->warp_ops[static_cast<unsigned>(prof::WarpOp::kBallot)], 4u);
}

TEST(Profile, JsonReportParsesAndSatisfiesSchema) {
  gs::Device dev(4, gs::sanitize::Tools::none(), prof::Options::on());
  run_codec(dev, default_params());
  const auto session = dev.profile_snapshot();

  std::ostringstream os;
  const prof::SessionProfile sessions[] = {session};
  prof::write_profile_json(os, sessions, prof::ReportOptions{});
  JsonValue doc;
  ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str().substr(0, 400);

  const JsonValue* version = doc.find("szp_profile_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->num, 1.0);
  const JsonValue* sess = doc.find("sessions");
  ASSERT_NE(sess, nullptr);
  ASSERT_EQ(sess->arr.size(), 1u);
  const JsonValue* launches = sess->arr[0].find("launches");
  ASSERT_NE(launches, nullptr);
  ASSERT_GE(launches->arr.size(), 2u);
  bool saw_compress = false;
  for (const auto& l : launches->arr) {
    const JsonValue* kernel = l.find("kernel");
    ASSERT_NE(kernel, nullptr);
    const JsonValue* counters = l.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* timing = l.find("timing");
    ASSERT_NE(timing, nullptr);
    EXPECT_GT(timing->find("wall_ns")->num, 0.0);
    if (kernel->str != "szp_compress") continue;
    saw_compress = true;
    const JsonValue* stages = counters->find("stages");
    ASSERT_NE(stages, nullptr);
    for (const char* st : {"QP", "FE", "GS", "BB"}) {
      ASSERT_NE(stages->find(st), nullptr) << st;
    }
    const JsonValue* sched = l.find("schedule");
    ASSERT_NE(sched, nullptr);
    const JsonValue* depth = sched->find("lookback_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_GT(depth->find("count")->num, 0.0);
  }
  EXPECT_TRUE(saw_compress);
  ASSERT_NE(sess->arr[0].find("buffers"), nullptr);
  ASSERT_NE(sess->arr[0].find("memcpy"), nullptr);
}

TEST(Profile, DerivedSectionUsesModelParams) {
  gs::Device dev(4, gs::sanitize::Tools::none(), prof::Options::on());
  run_codec(dev, default_params());
  const auto session = dev.profile_snapshot();

  prof::ModelParams model;
  model.gpu = "TestGPU";
  model.hbm_bandwidth = 1.5e12;
  model.pcie_bandwidth = 25e9;
  model.kernel_launch_s = 4e-6;
  model.op_cost.fill(1e-10);
  prof::ReportOptions opts;
  opts.model = &model;

  std::ostringstream os;
  const prof::SessionProfile sessions[] = {session};
  prof::write_profile_json(os, sessions, opts);
  const JsonValue doc = JsonParser(os.str()).parse();
  const JsonValue& launch0 = doc.find("sessions")->arr[0].find("launches")->arr[0];
  const JsonValue* derived = launch0.find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(derived->find("gpu")->str, "TestGPU");
  EXPECT_GT(derived->find("device_s")->num, 0.0);
  EXPECT_GT(derived->find("effective_gbps")->num, 0.0);
  EXPECT_GT(derived->find("arithmetic_intensity")->num, 0.0);
  const std::string bound = derived->find("bound")->str;
  EXPECT_TRUE(bound == "memory" || bound == "compute") << bound;

  // Same inputs through the direct API agree with the JSON.
  const auto dl = prof::derive_launch(session.launches[0], model);
  EXPECT_NEAR(dl.device_s, derived->find("device_s")->num,
              dl.device_s * 1e-6);
}

TEST(Profile, TextReportNamesKernelsAndStages) {
  gs::Device dev(2, gs::sanitize::Tools::none(), prof::Options::on());
  run_codec(dev, default_params());
  const auto session = dev.profile_snapshot();
  std::ostringstream os;
  const prof::SessionProfile sessions[] = {session};
  prof::write_profile_text(os, sessions, prof::ReportOptions{});
  const std::string text = os.str();
  EXPECT_NE(text.find("szp_compress"), std::string::npos);
  EXPECT_NE(text.find("szp_decompress"), std::string::npos);
  EXPECT_NE(text.find("QP"), std::string::npos);
  EXPECT_NE(text.find("lookback"), std::string::npos);
}

TEST(Profile, DisabledDeviceCollectsNothing) {
  gs::Device dev(2, gs::sanitize::Tools::none());  // env ignored, profiler off
  EXPECT_EQ(dev.profiler(), nullptr);
  run_codec(dev, default_params());
  const auto session = dev.profile_snapshot();
  EXPECT_TRUE(session.launches.empty());
  EXPECT_TRUE(session.buffers.empty());
  EXPECT_EQ(session.memcpy.h2d_bytes, 0u);
}

// Disabled-path budget, same contract (and bound) as the obs tracer: an
// instrumentation site with the profiler off is a null-pointer branch.
TEST(Profile, DisabledSitesAreBranchCheap) {
  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 2'000'000;
  constexpr double kMaxDisabledNsPerSite = 100.0;

  gs::Device dev(2, gs::sanitize::Tools::none());
  gs::BlockCtx ctx;
  ctx.trace = &dev.trace();
  ASSERT_EQ(ctx.prof, nullptr);

  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    ctx.stage_ns(gs::Stage::kQuantPredict, 1);
    ctx.atomic_store_op();
    ctx.lookback(1, 0);
    ctx.warp_op("shfl_sync", prof::WarpOp::kShfl, 0xffffffffu);
  }
  const auto dt = Clock::now() - t0;
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
      (4.0 * kIters);
  RecordProperty("ns_per_site", std::to_string(ns));
  EXPECT_LT(ns, kMaxDisabledNsPerSite);
}

// Satellite: profiler and sanitizer compose. Armed together they must
// neither deadlock nor double-count — the deterministic counters are
// identical with and without every checker on (views book requested
// bytes exactly once, before any shadow interaction).
TEST(Profile, ComposesWithSanitizer) {
  gs::Device plain(4, gs::sanitize::Tools::none(), prof::Options::on());
  run_codec(plain, default_params());
  const auto plain_session = plain.profile_snapshot();

  gs::Device checked(4, gs::sanitize::Tools::all(), prof::Options::on());
  run_codec(checked, default_params());
  const auto checked_session = checked.profile_snapshot();
  EXPECT_TRUE(checked.sanitize_report().empty())
      << checked.sanitize_report().to_string();

  const prof::SessionProfile a[] = {plain_session};
  const prof::SessionProfile b[] = {checked_session};
  EXPECT_EQ(prof::counter_fingerprint(a), prof::counter_fingerprint(b));
}

TEST(Profile, ResetProfileDropsCollectedData) {
  gs::Device dev(2, gs::sanitize::Tools::none(), prof::Options::on());
  run_codec(dev, default_params());
  ASSERT_FALSE(dev.profile_snapshot().launches.empty());
  dev.reset_profile();
  const auto session = dev.profile_snapshot();
  EXPECT_TRUE(session.launches.empty());
  EXPECT_EQ(session.memcpy.h2d_bytes, 0u);
}

TEST(ProfileOptions, SpecParsing) {
  EXPECT_FALSE(prof::options_from_string("").enabled);
  EXPECT_FALSE(prof::options_from_string("0").enabled);
  EXPECT_FALSE(prof::options_from_string("off").enabled);
  const auto collect = prof::options_from_string("1");
  EXPECT_TRUE(collect.enabled);
  EXPECT_TRUE(collect.export_path.empty());
  EXPECT_TRUE(prof::options_from_string("on").enabled);
  const auto path = prof::options_from_string("/tmp/p.json");
  EXPECT_TRUE(path.enabled);
  EXPECT_EQ(path.export_path, "/tmp/p.json");
}

}  // namespace
