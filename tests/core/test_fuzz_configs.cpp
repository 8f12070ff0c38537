// Fuzz-lite: 200 random (data shape, Params) configurations must all
// compress, decompress, respect the bound, and match between the serial
// and device paths; every other decoder (pooled host, no-throw, range,
// device) must reproduce the serial decode bit for bit. Catches
// interactions between toggles that the targeted tests miss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "szp/core/compressor.hpp"
#include "szp/core/host_codec.hpp"
#include "szp/core/random_access.hpp"
#include "szp/core/serial.hpp"
#include "szp/engine/thread_pool.hpp"
#include "szp/metrics/error.hpp"
#include "szp/robust/try_decode.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

std::vector<float> random_signal(Rng& rng, size_t n) {
  std::vector<float> v(n);
  const int kind = static_cast<int>(rng.next_below(4));
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0:  // white noise
        v[i] = static_cast<float>(rng.normal() * 100);
        break;
      case 1:  // random walk
        acc += rng.normal();
        v[i] = static_cast<float>(acc);
        break;
      case 2:  // sparse spikes on zeros
        v[i] = rng.next_below(50) == 0
                   ? static_cast<float>(rng.normal() * 1000)
                   : 0.0f;
        break;
      default:  // smooth oscillation
        v[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.01) *
                                  50.0);
        break;
    }
  }
  return v;
}

template <typename T>
::testing::AssertionResult bit_identical(std::span<const T> got,
                                         std::span<const T> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " != " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every host decoder must agree with the serial decode bit for bit: the
/// pooled decoder (3 slots, so the blocks span several chunks) and the
/// no-throw decoder.
template <typename T>
void expect_host_decoders_match(std::span<const byte_t> stream,
                                std::span<const T> want) {
  static engine::ThreadPool pool(3);
  HostScratch scratch;
  std::vector<T> pooled, salvaged;
  if constexpr (std::is_same_v<T, double>) {
    pooled = decompress_host_f64(stream, pool, scratch);
    ASSERT_TRUE(robust::try_decompress_f64(stream, salvaged).ok());
  } else {
    pooled = decompress_host(stream, pool, scratch);
    ASSERT_TRUE(robust::try_decompress(stream, salvaged).ok());
  }
  EXPECT_TRUE(bit_identical<T>(pooled, want)) << "decompress_host";
  EXPECT_TRUE(bit_identical<T>(salvaged, want)) << "try_decompress";
}

TEST(FuzzConfigs, TwoHundredRandomConfigurations) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.next_below(20000);
    const auto data = random_signal(rng, n);

    Params p;
    static const unsigned kLens[] = {8, 16, 32, 64, 128, 256};
    p.block_len = kLens[rng.next_below(6)];
    p.lorenzo = rng.next_below(2) == 0;
    p.lorenzo_layers = 1 + static_cast<unsigned>(rng.next_below(2));
    p.zero_block_bypass = rng.next_below(2) == 0;
    p.bit_shuffle = rng.next_below(2) == 0;
    p.outlier_mode = rng.next_below(2) == 0;
    p.scan = rng.next_below(2) == 0 ? ScanAlgo::kChained : ScanAlgo::kTwoPass;
    p.mode = ErrorMode::kAbs;
    p.error_bound = std::pow(10.0, -1.0 - static_cast<double>(rng.next_below(3)));

    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " L=" + std::to_string(p.block_len) +
                 " lorenzo=" + std::to_string(p.lorenzo) +
                 " layers=" + std::to_string(p.lorenzo_layers) +
                 " bypass=" + std::to_string(p.zero_block_bypass) +
                 " shuffle=" + std::to_string(p.bit_shuffle) +
                 " outlier=" + std::to_string(p.outlier_mode) +
                 " eb=" + std::to_string(p.error_bound));

    const auto stream = compress_serial(data, p);
    const auto recon = decompress_serial(stream);
    ASSERT_EQ(recon.size(), n);
    double max_abs = 0;
    for (const float v : data) {
      max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
    }
    ASSERT_TRUE(metrics::error_bounded(data, recon,
                                       p.error_bound + max_abs * 1.2e-7));
    expect_host_decoders_match<float>(stream, recon);
    // Own seed, so the trial configurations above stay as they were.
    Rng pick(0x5EED + static_cast<std::uint64_t>(trial));
    const size_t a = pick.next_below(n + 1);
    const size_t b = a + pick.next_below(n - a + 1);
    EXPECT_TRUE(bit_identical<float>(
        decompress_range(stream, a, b),
        std::span<const float>(recon).subspan(a, b - a)))
        << "decompress_range [" << a << ", " << b << ")";

    // Device equality on a random quarter of the trials (keeps runtime
    // reasonable while still covering every toggle combination over the
    // sweep).
    if (rng.next_below(4) == 0) {
      gpusim::Device dev(1 + static_cast<unsigned>(rng.next_below(8)));
      auto d_in = gpusim::to_device<float>(dev, data);
      gpusim::DeviceBuffer<byte_t> d_cmp(
          dev, max_compressed_bytes(n, p.block_len));
      const auto res = compress_device(dev, d_in, n, p, p.error_bound, d_cmp);
      ASSERT_EQ(res.bytes, stream.size());
      const auto device_stream = gpusim::to_host(dev, d_cmp, res.bytes);
      ASSERT_TRUE(
          std::equal(stream.begin(), stream.end(), device_stream.begin()));
      gpusim::DeviceBuffer<float> d_out(dev, n);
      (void)decompress_device(dev, d_cmp, d_out, res.bytes);
      EXPECT_TRUE(bit_identical<float>(gpusim::to_host(dev, d_out, n), recon))
          << "decompress_device";
    }
  }
}

TEST(FuzzConfigs, FiftyRandomF64Configurations) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.next_below(8000);
    std::vector<double> data(n);
    double acc = 0;
    for (auto& v : data) {
      acc += rng.normal();
      v = acc + rng.normal() * 1e-4;
    }
    Params p;
    static const unsigned kLens[] = {8, 32, 128};
    p.block_len = kLens[rng.next_below(3)];
    p.lorenzo = rng.next_below(2) == 0;
    p.lorenzo_layers = 1 + static_cast<unsigned>(rng.next_below(2));
    p.bit_shuffle = rng.next_below(2) == 0;
    p.outlier_mode = rng.next_below(2) == 0;
    p.mode = ErrorMode::kAbs;
    p.error_bound = std::pow(10.0, -2.0 - static_cast<double>(rng.next_below(3)));
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const auto stream = compress_serial_f64(data, p);
    const auto recon = decompress_serial_f64(stream);
    ASSERT_EQ(recon.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_LE(std::abs(data[i] - recon[i]), p.error_bound + 1e-10) << i;
    }
    expect_host_decoders_match<double>(stream, recon);
  }
}

}  // namespace
}  // namespace szp::core
