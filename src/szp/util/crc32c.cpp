#include "szp/util/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "szp/util/cpu.hpp"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace szp {

namespace {

// Slicing-by-4 tables, generated at compile time from the reflected
// Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::array<std::uint32_t, 256>, 4> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
    t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
    t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t advance_portable(std::uint32_t state,
                               std::span<const byte_t> data) {
  size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    state ^= static_cast<std::uint32_t>(data[i]) |
             (static_cast<std::uint32_t>(data[i + 1]) << 8) |
             (static_cast<std::uint32_t>(data[i + 2]) << 16) |
             (static_cast<std::uint32_t>(data[i + 3]) << 24);
    state = kTables[3][state & 0xFFu] ^ kTables[2][(state >> 8) & 0xFFu] ^
            kTables[1][(state >> 16) & 0xFFu] ^ kTables[0][state >> 24];
  }
  for (; i < data.size(); ++i) {
    state = (state >> 8) ^ kTables[0][(state ^ data[i]) & 0xFFu];
  }
  return state;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC32C update
// as the tables, 8 bytes per step.
static_assert(std::endian::native == std::endian::little,
              "crc32 words are loaded in native byte order");

__attribute__((target("sse4.2"))) std::uint32_t advance_sse42(
    std::uint32_t state, std::span<const byte_t> data) {
  std::uint64_t crc = state;
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto s = static_cast<std::uint32_t>(crc);
  for (; i < data.size(); ++i) s = _mm_crc32_u8(s, data[i]);
  return s;
}
#endif

std::uint32_t advance(std::uint32_t state, std::span<const byte_t> data) {
#if defined(__x86_64__)
  if (cpu_features().sse42) return advance_sse42(state, data);
#endif
  return advance_portable(state, data);
}

}  // namespace

std::uint32_t crc32c(std::span<const byte_t> data) {
  return advance(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const byte_t> data) {
  return advance_portable(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

}  // namespace detail

void Crc32c::update(std::span<const byte_t> data) {
  state_ = advance(state_, data);
}

}  // namespace szp
