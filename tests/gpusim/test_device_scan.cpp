// Device runtime: buffers, launches, trace accounting, and both prefix-sum
// implementations against std::exclusive_scan under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string_view>

#include "szp/gpusim/buffer.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/gpusim/scan.hpp"
#include "szp/util/rng.hpp"

namespace szp::gpusim {
namespace {

TEST(Device, AllocationLedger) {
  Device dev;
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  {
    DeviceBuffer<float> a(dev, 1000);
    EXPECT_EQ(dev.bytes_allocated(), 4000u);
    DeviceBuffer<std::uint64_t> b(dev, 10);
    EXPECT_EQ(dev.bytes_allocated(), 4080u);
    DeviceBuffer<float> c = std::move(a);
    EXPECT_EQ(dev.bytes_allocated(), 4080u);  // move does not double-count
  }
  EXPECT_EQ(dev.bytes_allocated(), 0u);
}

TEST(Device, CopiesAccountPcieTraffic) {
  Device dev;
  const std::vector<float> host(256, 1.5f);
  auto buf = to_device<float>(dev, host);
  EXPECT_EQ(dev.snapshot().h2d_bytes, 1024u);
  const auto back = to_host(dev, buf);
  EXPECT_EQ(dev.snapshot().d2h_bytes, 1024u);
  EXPECT_EQ(back, host);

  DeviceBuffer<float> other(dev, 256);
  copy_d2d(dev, other, buf, 256);
  EXPECT_EQ(dev.snapshot().d2d_bytes, 1024u);
}

TEST(Device, CopyOverflowThrows) {
  Device dev;
  DeviceBuffer<float> small(dev, 4);
  const std::vector<float> big(8, 0.0f);
  EXPECT_THROW(copy_h2d<float>(dev, small, big), format_error);
  std::vector<float> dst(2);
  EXPECT_THROW(copy_d2h<float>(dev, dst, small, 4), format_error);
}

TEST(Launch, CoversEveryBlockExactlyOnce) {
  Device dev;
  const size_t grid = 1000;
  std::vector<std::atomic<int>> hits(grid);
  launch(dev, "coverage", grid, [&](const BlockCtx& ctx) {
    hits[ctx.block_idx].fetch_add(1);
    EXPECT_EQ(ctx.grid_blocks, grid);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(dev.snapshot().kernel_launches, 1u);
}

TEST(Launch, LogsKernelNames) {
  Device dev(2, sanitize::Tools::none(), profile::Options::on());
  launch(dev, "alpha", 3, [](const BlockCtx&) {});
  launch(dev, "beta", 7, [](const BlockCtx&) {});
  const auto log = dev.profile_snapshot().launches;
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kernel, "alpha");
  EXPECT_EQ(log[0].grid_blocks, 3u);
  EXPECT_EQ(log[1].kernel, "beta");
}

TEST(Launch, PropagatesExceptions) {
  Device dev;
  EXPECT_THROW(launch(dev, "boom", 64,
                      [](const BlockCtx& ctx) {
                        if (ctx.block_idx == 13) {
                          throw format_error("boom");
                        }
                      }),
               format_error);
}

TEST(Launch, ZeroGridIsNoop) {
  Device dev;
  launch(dev, "empty", 0, [](const BlockCtx&) { FAIL(); });
  EXPECT_EQ(dev.snapshot().kernel_launches, 1u);
}

TEST(Trace, StageAccountingAndDiff) {
  Device dev;
  const auto before = dev.snapshot();
  launch(dev, "acct", 4, [&](const BlockCtx& ctx) {
    ctx.read(Stage::kQuantPredict, 100);
    ctx.write(Stage::kBitShuffle, 50);
    ctx.ops(Stage::kGlobalSync, 7);
  });
  const auto diff = dev.snapshot() - before;
  EXPECT_EQ(diff.stages[unsigned(Stage::kQuantPredict)].read_bytes, 400u);
  EXPECT_EQ(diff.stages[unsigned(Stage::kBitShuffle)].write_bytes, 200u);
  EXPECT_EQ(diff.stages[unsigned(Stage::kGlobalSync)].ops, 28u);
  EXPECT_EQ(diff.total_device_read_bytes(), 400u);
  EXPECT_EQ(diff.total_device_write_bytes(), 200u);
  EXPECT_EQ(diff.total_ops(), 28u);
}

TEST(Trace, StageNamesAreDistinct) {
  std::set<std::string_view> names;
  for (unsigned i = 0; i < kNumStages; ++i) {
    names.insert(stage_name(static_cast<Stage>(i)));
  }
  EXPECT_EQ(names.size(), kNumStages);
}

class ScanSize : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanSize, ChainedMatchesStdExclusiveScan) {
  const size_t n = GetParam();
  Device dev;
  Rng rng(n);
  std::vector<std::uint64_t> host(n);
  for (auto& v : host) v = rng.next_below(1000);
  std::vector<std::uint64_t> expected(n);
  std::exclusive_scan(host.begin(), host.end(), expected.begin(),
                      std::uint64_t{0});
  const std::uint64_t expected_total =
      std::accumulate(host.begin(), host.end(), std::uint64_t{0});

  auto buf = to_device<std::uint64_t>(dev, host);
  const auto total =
      chained_exclusive_scan(dev, buf, Stage::kGlobalSync, 64);
  EXPECT_EQ(total, expected_total);
  const auto out = to_host(dev, buf);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected[i]) << i;
}

TEST_P(ScanSize, TwoPassMatchesStdExclusiveScan) {
  const size_t n = GetParam();
  Device dev;
  Rng rng(n ^ 0x777);
  std::vector<std::uint64_t> host(n);
  for (auto& v : host) v = rng.next_below(1 << 16);
  std::vector<std::uint64_t> expected(n);
  std::exclusive_scan(host.begin(), host.end(), expected.begin(),
                      std::uint64_t{0});

  auto buf = to_device<std::uint64_t>(dev, host);
  const auto total = twopass_exclusive_scan(dev, buf, Stage::kGlobalSync, 64);
  EXPECT_EQ(total,
            std::accumulate(host.begin(), host.end(), std::uint64_t{0}));
  const auto out = to_host(dev, buf);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSize,
                         ::testing::Values(0u, 1u, 2u, 63u, 64u, 65u, 1000u,
                                           4096u, 100000u));

TEST(Scan, ChainedUsesOneKernelTwoPassUsesThree) {
  Device dev;
  DeviceBuffer<std::uint64_t> a(dev, 10000, 1);
  TraceSnapshot before = dev.snapshot();
  (void)chained_exclusive_scan(dev, a, Stage::kGlobalSync);
  EXPECT_EQ((dev.snapshot() - before).kernel_launches, 1u);

  DeviceBuffer<std::uint64_t> b(dev, 10000, 1);
  before = dev.snapshot();
  (void)twopass_exclusive_scan(dev, b, Stage::kGlobalSync);
  EXPECT_EQ((dev.snapshot() - before).kernel_launches, 3u);
}

TEST(Scan, ChainedStressManyRounds) {
  // Repeated runs exercise different block schedules of the lookback.
  Device dev;
  Rng rng(31337);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 512 + rng.next_below(4096);
    std::vector<std::uint64_t> host(n);
    for (auto& v : host) v = rng.next_below(100);
    const std::uint64_t expect_total =
        std::accumulate(host.begin(), host.end(), std::uint64_t{0});
    auto buf = to_device<std::uint64_t>(dev, host);
    ASSERT_EQ(chained_exclusive_scan(dev, buf, Stage::kGlobalSync, 32),
              expect_total);
  }
}

TEST(Scan, RejectsHugeAggregates) {
  Device dev;
  DeviceBuffer<std::uint64_t> buf(dev, 1, ~std::uint64_t{0});
  EXPECT_THROW((void)chained_exclusive_scan(dev, buf, Stage::kGlobalSync),
               format_error);
}

}  // namespace
}  // namespace szp::gpusim
