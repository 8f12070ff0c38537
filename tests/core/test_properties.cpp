// Parameterized property sweeps over the whole cuSZp configuration space:
// every (suite, REL bound, block length, feature toggles) combination must
// respect the error bound, roundtrip through the device path identically,
// and be stable under recompression.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "szp/core/compressor.hpp"
#include "szp/data/registry.hpp"
#include "szp/metrics/error.hpp"
#include "szp/util/rng.hpp"

namespace szp {
namespace {

using ParamTuple = std::tuple<data::Suite, double /*rel*/,
                              unsigned /*block_len*/, bool /*lorenzo*/,
                              bool /*shuffle*/>;

class CodecProperty : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(CodecProperty, ErrorBoundAndDeviceEquivalence) {
  const auto [suite, rel, block_len, lorenzo, shuffle] = GetParam();
  const auto field = data::make_field(suite, 0, 0.02);
  const double range = field.value_range();

  core::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = rel;
  p.block_len = block_len;
  p.lorenzo = lorenzo;
  p.bit_shuffle = shuffle;
  Compressor c(p);

  // 1. Error bound holds on the serial reference. The guarantee is
  // eb plus one float ULP of the reconstruction (as in the original SZ
  // family: the final r*2eb product is rounded to f32).
  const auto stream = c.compress(field.values, range);
  const auto recon = c.decompress(stream);
  ASSERT_EQ(recon.size(), field.count());
  const double eb = core::resolve_eb(p, range);
  double max_abs = 0;
  for (const float v : field.values) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
  }
  const double ulp_slack = max_abs * 1.2e-7;
  EXPECT_TRUE(metrics::error_bounded(field.values, recon, eb + ulp_slack));

  // 2. The single-kernel device path emits byte-identical streams.
  gpusim::Device dev;
  auto d_in = gpusim::to_device<float>(dev, field.values);
  gpusim::DeviceBuffer<byte_t> d_cmp(
      dev, core::max_compressed_bytes(field.count(), block_len));
  const auto res = c.compress_on_device(dev, d_in, field.count(), range, d_cmp);
  ASSERT_EQ(res.bytes, stream.size());
  const auto device_stream = gpusim::to_host(dev, d_cmp, res.bytes);
  ASSERT_TRUE(std::equal(stream.begin(), stream.end(), device_stream.begin()));

  // 3. Device decompression matches the serial reconstruction exactly.
  gpusim::DeviceBuffer<float> d_out(dev, field.count());
  (void)c.decompress_on_device(dev, d_cmp, d_out, res.bytes);
  const auto device_recon = gpusim::to_host(dev, d_out);
  for (size_t i = 0; i < recon.size(); ++i) {
    ASSERT_EQ(device_recon[i], recon[i]) << i;
  }

  // 4. Idempotence: recompressing the reconstruction is a fixed point.
  const auto stream2 = c.compress(recon, range);
  const auto recon2 = c.decompress(stream2);
  EXPECT_EQ(recon2, recon);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecProperty,
    ::testing::Combine(
        ::testing::Values(data::Suite::kHurricane, data::Suite::kNyx,
                          data::Suite::kRtm, data::Suite::kHacc,
                          data::Suite::kCesmAtm),
        ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4),
        ::testing::Values(32u), ::testing::Values(true),
        ::testing::Values(true)));

INSTANTIATE_TEST_SUITE_P(
    BlockLengths, CodecProperty,
    ::testing::Combine(::testing::Values(data::Suite::kHurricane,
                                         data::Suite::kHacc),
                       ::testing::Values(1e-2),
                       ::testing::Values(8u, 16u, 64u, 128u),
                       ::testing::Values(true), ::testing::Values(true)));

INSTANTIATE_TEST_SUITE_P(
    Toggles, CodecProperty,
    ::testing::Combine(::testing::Values(data::Suite::kNyx,
                                         data::Suite::kRtm),
                       ::testing::Values(1e-2, 1e-4), ::testing::Values(32u),
                       ::testing::Bool(), ::testing::Bool()));

class ScanEquivalence : public ::testing::TestWithParam<data::Suite> {};

TEST_P(ScanEquivalence, ChainedAndTwoPassEmitIdenticalStreams) {
  const auto field = data::make_field(GetParam(), 0, 0.02);
  const double range = field.value_range();
  core::Params p;
  p.error_bound = 1e-3;

  auto run = [&](core::ScanAlgo algo) {
    p.scan = algo;
    gpusim::Device dev;
    auto d_in = gpusim::to_device<float>(dev, field.values);
    gpusim::DeviceBuffer<byte_t> d_cmp(
        dev, core::max_compressed_bytes(field.count(), p.block_len));
    const auto res = core::compress_device(dev, d_in, field.count(), p,
                                           core::resolve_eb(p, range), d_cmp);
    return gpusim::to_host(dev, d_cmp, res.bytes);
  };

  EXPECT_EQ(run(core::ScanAlgo::kChained), run(core::ScanAlgo::kTwoPass));
}

// The ablation's BB compute is the chained kernel's: shuffle work per
// element of every non-zero block, whichever scan places the payloads.
TEST_P(ScanEquivalence, ChainedAndTwoPassCountTheSameBitShuffleOps) {
  const auto field = data::make_field(GetParam(), 0, 0.02);
  core::Params p;
  p.error_bound = 1e-3;

  auto bb_ops = [&](core::ScanAlgo algo) {
    p.scan = algo;
    gpusim::Device dev;
    auto d_in = gpusim::to_device<float>(dev, field.values);
    gpusim::DeviceBuffer<byte_t> d_cmp(
        dev, core::max_compressed_bytes(field.count(), p.block_len));
    const auto res = core::compress_device(
        dev, d_in, field.count(), p,
        core::resolve_eb(p, field.value_range()), d_cmp);
    return res.trace
        .stages[static_cast<unsigned>(gpusim::Stage::kBitShuffle)]
        .ops;
  };

  const std::uint64_t chained = bb_ops(core::ScanAlgo::kChained);
  EXPECT_GT(chained, 0u);
  EXPECT_EQ(chained, bb_ops(core::ScanAlgo::kTwoPass));
}

INSTANTIATE_TEST_SUITE_P(Suites, ScanEquivalence,
                         ::testing::Values(data::Suite::kHurricane,
                                           data::Suite::kNyx,
                                           data::Suite::kRtm));

TEST(CodecProperty, SingleKernelClaimHolds) {
  // The paper's central claim: one kernel for compression, one for
  // decompression, zero host stages, zero full-size PCIe round trips.
  const auto field = data::make_field(data::Suite::kNyx, 0, 0.02);
  core::Params p;
  Compressor c(p);
  gpusim::Device dev;
  auto d_in = gpusim::to_device<float>(dev, field.values);
  gpusim::DeviceBuffer<byte_t> d_cmp(
      dev, core::max_compressed_bytes(field.count(), p.block_len));
  const auto comp = c.compress_on_device(dev, d_in, field.count(),
                                         field.value_range(), d_cmp);
  EXPECT_EQ(comp.trace.kernel_launches, 1u);
  EXPECT_EQ(comp.trace.host_stages, 0u);
  EXPECT_LT(comp.trace.total_memcpy_bytes(), 64u);  // size readback only

  gpusim::DeviceBuffer<float> d_out(dev, field.count());
  const auto dec = c.decompress_on_device(dev, d_cmp, d_out, comp.bytes);
  EXPECT_EQ(dec.trace.kernel_launches, 1u);
  EXPECT_EQ(dec.trace.host_stages, 0u);
}

TEST(CodecProperty, WorstCaseIncompressibleInputFits) {
  // White noise at a tiny bound: CR < 1 is possible; the stream must stay
  // within max_compressed_bytes and still roundtrip.
  Rng rng(23);
  std::vector<float> data(4096);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 1e3);
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-2;
  Compressor c(p);
  const auto stream = c.compress(data);
  EXPECT_LE(stream.size(), core::max_compressed_bytes(4096, 32));
  const auto recon = c.decompress(stream);
  // Bound modulo one float ULP of the reconstruction (see sweep test).
  EXPECT_TRUE(
      metrics::error_bounded(data, recon, p.error_bound + 1e3 * 6 * 1.2e-7));
}

TEST(CodecProperty, NegatedInputNegatesReconstruction) {
  const auto field = data::make_field(data::Suite::kCesmAtm, 1, 0.02);
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-3;
  Compressor c(p);
  const auto recon = c.decompress(c.compress(field.values));
  auto negated = field.values;
  for (auto& v : negated) v = -v;
  const auto recon_neg = c.decompress(c.compress(negated));
  for (size_t i = 0; i < recon.size(); ++i) {
    ASSERT_FLOAT_EQ(recon_neg[i], -recon[i]);
  }
}

}  // namespace
}  // namespace szp
