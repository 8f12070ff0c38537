// One cached probe of the running CPU's instruction-set extensions. The
// CRC32C and the codec stages select their hardware bodies through it,
// once per process; the portable bodies stay the fallback on other CPUs
// and on non-x86 builds. No build flag or -march is involved: the
// hardware bodies are compiled with per-function target attributes.
#pragma once

namespace szp {

struct CpuFeatures {
  bool sse42 = false;  // crc32 instruction
  bool avx2 = false;   // 256-bit integer SIMD
};

/// The features of the CPU this process runs on, probed on first use.
/// Always all-false off x86-64.
[[nodiscard]] const CpuFeatures& cpu_features();

}  // namespace szp
