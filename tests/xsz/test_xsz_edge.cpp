// xsz edge cases: REL mode, all-constant data, meta layout, robustness
// against corrupted streams.
#include <gtest/gtest.h>

#include "szp/baselines/xsz/xsz.hpp"
#include "szp/data/registry.hpp"
#include "szp/metrics/error.hpp"
#include "szp/util/rng.hpp"

namespace szp {
namespace {

TEST(XszEdge, RelModeResolvesRange) {
  const auto field = data::make_field(data::Suite::kNyx, 2, 0.03);
  xsz::Params p;
  p.mode = core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  const auto stream = xsz::compress_serial(field.values, p);
  const auto recon = xsz::decompress_serial(stream);
  const auto stats = metrics::compare(field.values, recon);
  EXPECT_LE(stats.max_rel_err, 1e-3 * (1 + 1e-9));
}

TEST(XszEdge, AllConstantDatasetIsOneFloatPerBlock) {
  const std::vector<float> data(1280, 42.5f);
  xsz::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-3;
  const auto stream = xsz::compress_serial(data, p);
  // Header + 10 meta bytes + 10 * 4-byte midpoints.
  EXPECT_EQ(stream.size(), xsz::Header::kSize + 10 + 40);
  EXPECT_DOUBLE_EQ(xsz::constant_block_fraction(stream), 1.0);
  const auto recon = xsz::decompress_serial(stream);
  for (const float v : recon) EXPECT_EQ(v, 42.5f);
}

TEST(XszEdge, CompressedSizeWithinWorstCaseBound) {
  Rng rng(41);
  std::vector<float> data(10000);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 1e4);
  xsz::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-3;
  const auto stream = xsz::compress_serial(data, p);
  EXPECT_LE(stream.size(), xsz::max_compressed_bytes(10000, p.block_len));
}

TEST(XszEdge, TruncatedStreamsThrow) {
  const auto field = data::make_field(data::Suite::kCesmAtm, 0, 0.02);
  xsz::Params p;
  const auto stream =
      xsz::compress_serial(field.values, p, field.value_range());
  for (const size_t keep : {size_t{0}, size_t{16}, xsz::Header::kSize,
                            stream.size() / 2}) {
    EXPECT_THROW((void)xsz::decompress_serial(
                     std::span<const byte_t>(stream.data(), keep)),
                 format_error)
        << keep;
  }
}

TEST(XszEdge, CorruptedMetaDoesNotCrash) {
  const auto field = data::make_field(data::Suite::kHurricane, 0, 0.02);
  xsz::Params p;
  const auto stream =
      xsz::compress_serial(field.values, p, field.value_range());
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    auto bad = stream;
    bad[xsz::Header::kSize + rng.next_below(100)] =
        static_cast<byte_t>(rng.next_below(256));
    try {
      const auto out = xsz::decompress_serial(bad);
      EXPECT_EQ(out.size(), field.count());
    } catch (const format_error&) {
      // acceptable outcome for corrupted input
    }
  }
}

TEST(XszEdge, FixedLengthAbove32IsRejected) {
  const auto field = data::make_field(data::Suite::kHurricane, 0, 0.02);
  xsz::Params p;
  const auto stream =
      xsz::compress_serial(field.values, p, field.value_range());
  gpusim::Device dev;
  gpusim::DeviceBuffer<float> d_out(dev, field.count());
  const size_t last = div_ceil(field.count(), size_t{p.block_len}) - 1;
  for (const unsigned meta : {33u, 63u, 64u, 100u, 127u}) {
    // The last block's payload is followed by enough bytes for any width,
    // so only the width check can reject it.
    auto bad = stream;
    bad[xsz::Header::kSize + last] = static_cast<byte_t>(meta);
    bad.resize(bad.size() + 128 * size_t{p.block_len} / 8, byte_t{0});
    EXPECT_THROW((void)xsz::decompress_serial(bad), format_error) << meta;
    auto d_cmp = gpusim::to_device<byte_t>(dev, bad);
    EXPECT_THROW((void)xsz::decompress_device(dev, d_cmp, d_out),
                 format_error)
        << meta;
  }
}

TEST(XszEdge, SmallerBlocksTrackDataBetter) {
  // Smaller xsz blocks flush less aggressively -> lower CR, higher PSNR
  // on smooth-but-not-constant data.
  const auto field = data::make_field(data::Suite::kCesmAtm, 1, 0.05);
  const double range = field.value_range();
  xsz::Params small, large;
  small.block_len = 32;
  large.block_len = 256;
  small.error_bound = large.error_bound = 1e-2;
  const auto s_small = xsz::compress_serial(field.values, small, range);
  const auto s_large = xsz::compress_serial(field.values, large, range);
  const auto psnr_small =
      metrics::compare(field.values, xsz::decompress_serial(s_small)).psnr;
  const auto psnr_large =
      metrics::compare(field.values, xsz::decompress_serial(s_large)).psnr;
  EXPECT_GE(psnr_small, psnr_large - 0.5);
}

TEST(XszEdge, DeviceDecompressHasHostPrePostStages) {
  const auto field = data::make_field(data::Suite::kNyx, 1, 0.02);
  xsz::Params p;
  gpusim::Device dev;
  auto d_in = gpusim::to_device<float>(dev, field.values);
  gpusim::DeviceBuffer<byte_t> d_cmp(
      dev, xsz::max_compressed_bytes(field.count(), p.block_len));
  const auto cres = xsz::compress_device(dev, d_in, field.count(), p,
                                         1e-3 * field.value_range(), d_cmp);
  gpusim::DeviceBuffer<float> d_out(dev, field.count());
  const auto before = dev.snapshot();
  const auto dres = xsz::decompress_device(dev, d_cmp, d_out);
  (void)cres;
  // Paper §5.2: decompression needs CPU pre- AND post-processing.
  EXPECT_GE(dres.trace.host_stages, 2u);
  EXPECT_GT(dres.trace.d2h_bytes, 0u);
  (void)before;
}

}  // namespace
}  // namespace szp
