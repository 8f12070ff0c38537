// Truncation robustness and backward compatibility:
//   * every possible truncation of a v2 stream must throw format_error
//     from the throwing decoders (and report non-kOk from the try_ API),
//   * a golden v1 stream captured from the pre-integrity encoder must
//     still be produced and decoded bit-for-bit by today's code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "szp/core/random_access.hpp"
#include "szp/core/serial.hpp"
#include "szp/engine/engine.hpp"
#include "szp/robust/try_decode.hpp"

namespace {

using namespace szp;

std::vector<byte_t> make_stream(unsigned checksum_group_blocks,
                                std::vector<float>* data_out = nullptr) {
  std::vector<float> data(600);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::cos(0.05 * static_cast<double>(i)) * 3.0f;
  }
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-3;
  p.checksum_group_blocks = checksum_group_blocks;
  if (data_out != nullptr) *data_out = data;
  return core::compress_serial(data, p);
}

std::vector<byte_t> make_v2_stream(std::vector<float>* data_out = nullptr) {
  return make_stream(4, data_out);
}

TEST(TruncationSweep, SerialDecodeThrowsAtEveryByte) {
  const auto stream = make_v2_stream();
  for (size_t len = 0; len < stream.size(); ++len) {
    const std::span<const byte_t> prefix(stream.data(), len);
    EXPECT_THROW((void)core::decompress_serial(prefix), format_error)
        << "len " << len;
    std::vector<float> out;
    EXPECT_FALSE(robust::try_decompress(prefix, out, {}).ok())
        << "len " << len;
  }
  EXPECT_NO_THROW((void)core::decompress_serial(stream));
}

TEST(TruncationSweep, RangeDecodeThrowsAtEveryByte) {
  const auto stream = make_v2_stream();
  for (size_t len = 0; len < stream.size(); ++len) {
    const std::span<const byte_t> prefix(stream.data(), len);
    EXPECT_THROW((void)core::decompress_range(prefix, 50, 250), format_error)
        << "len " << len;
  }
  EXPECT_NO_THROW((void)core::decompress_range(stream, 50, 250));
}

TEST(TruncationSweep, AppendedByteIsRejectedByEveryDecoder) {
  // A v2 stream ends at its footer and a v1 stream at its last payload
  // byte: every throwing decoder rejects the same byte strings, and so
  // does try_decompress. A v1 range decode finds the end only when its
  // range reaches the last block.
  for (const unsigned group_blocks : {4u, 0u}) {
    SCOPED_TRACE(group_blocks);
    auto stream = make_stream(group_blocks);
    for (const auto kind :
         {engine::BackendKind::kSerial, engine::BackendKind::kParallelHost,
          engine::BackendKind::kDevice}) {
      engine::Engine eng({.backend = kind, .threads = 4});
      EXPECT_NO_THROW((void)eng.decompress(stream));
      stream.push_back(0);
      EXPECT_THROW((void)eng.decompress(stream), format_error)
          << engine::backend_name(kind);
      stream.pop_back();
    }
    EXPECT_NO_THROW((void)core::decompress_range(stream, 500, 600));
    stream.push_back(0);
    EXPECT_THROW((void)core::decompress_range(stream, 500, 600),
                 format_error);
    if (group_blocks > 0) {
      EXPECT_THROW((void)core::decompress_range(stream, 50, 250),
                   format_error);
      EXPECT_THROW((void)core::decompress_range(stream, 0, 0), format_error);
    }
    std::vector<float> out;
    EXPECT_EQ(robust::try_decompress(stream, out, {}).status,
              robust::Status::kSizeMismatch);
    stream.pop_back();
    EXPECT_TRUE(robust::try_decompress(stream, out, {}).ok());
  }
}

// Golden v1 stream captured from the encoder before the integrity footer
// existed (100 floats, ABS bound 1e-2, one all-zero block). Guards both
// directions of backward compatibility: today's encoder must still emit
// these exact bytes for checksum_group_blocks = 0, and today's decoders
// must accept them.
constexpr byte_t kGoldenV1[] = {
    0x53, 0x5a, 0x35, 0x70, 0x01, 0x00, 0x20, 0x00, 0x64, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x09, 0x08, 0x07,
    0x00, 0x00, 0xfe, 0xff, 0x0c, 0xd9, 0xbf, 0x9e, 0x5c, 0x0a, 0x7e, 0xaa,
    0x3c, 0xa1, 0x54, 0xb3, 0x02, 0x67, 0x98, 0x43, 0x00, 0x1f, 0xe0, 0x03,
    0xfe, 0x00, 0x00, 0xfc, 0xff, 0x00, 0x00, 0x00, 0x75, 0x01, 0x00, 0x00,
    0xad, 0x01, 0x00, 0x00, 0x9d, 0x00, 0x00, 0x00, 0x82, 0x00, 0x00, 0x00,
    0x81, 0x01, 0x00, 0x00, 0x7e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff,
    0xaf, 0x87, 0xf8, 0x3d, 0x87, 0x06, 0x38, 0x37, 0x1f, 0x52, 0xad, 0x39,
    0x01, 0x31, 0xce, 0xc1, 0x80, 0x0f, 0xf0, 0x01, 0xff, 0x00, 0x00, 0xfe,
    0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
    0x12, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00,
};

std::vector<float> golden_input() {
  std::vector<float> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.1 * static_cast<double>(i)) * 8.0f +
              (i > 70 ? 3.0f : 0.0f);
  }
  for (size_t i = 40; i < 64; ++i) data[i] = 0.0f;  // a run of zeros
  return data;
}

TEST(GoldenV1, EncoderStillEmitsIdenticalBytes) {
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-2;
  p.checksum_group_blocks = 0;  // legacy v1 stream
  const auto stream = core::compress_serial(golden_input(), p);
  ASSERT_EQ(stream.size(), sizeof(kGoldenV1));
  EXPECT_EQ(std::memcmp(stream.data(), kGoldenV1, sizeof(kGoldenV1)), 0);
}

TEST(GoldenV1, AllDecodersAgreeBitForBit) {
  const std::span<const byte_t> golden(kGoldenV1);
  const auto input = golden_input();

  const auto ref = core::decompress_serial(golden);
  ASSERT_EQ(ref.size(), input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    ASSERT_NEAR(ref[i], input[i], 1e-2 + 1e-6) << "element " << i;
  }
  for (size_t i = 40; i < 64; ++i) ASSERT_EQ(ref[i], 0.0f);

  std::vector<float> out;
  const auto rep = robust::try_decompress(golden, out);
  EXPECT_EQ(rep.status, robust::Status::kOk);
  EXPECT_FALSE(rep.checksummed);
  ASSERT_EQ(out.size(), ref.size());
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * 4), 0);

  // Ranges inside one block, across blocks, in the partial last block,
  // and empty at the end.
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{10, 90}, {33, 40}, {96, 100}, {100, 100}}) {
    const auto range = core::decompress_range(golden, begin, end);
    ASSERT_EQ(range.size(), end - begin);
    if (range.empty()) continue;  // memcmp must not see a null pointer
    EXPECT_EQ(std::memcmp(range.data(), ref.data() + begin,
                          range.size() * sizeof(float)),
              0)
        << "range [" << begin << ", " << end << ")";
  }

  const auto stats = core::inspect_stream(golden);
  EXPECT_EQ(stats.version, 1);
  EXPECT_EQ(stats.num_blocks, 4u);
  // The zero run (elements 40..63) straddles block 1 without filling it,
  // so no block takes the zero bypass.
  EXPECT_EQ(stats.zero_blocks, 0u);
  EXPECT_EQ(stats.footer_bytes, 0u);
  EXPECT_EQ(stats.checksum_groups, 0u);
}

}  // namespace
