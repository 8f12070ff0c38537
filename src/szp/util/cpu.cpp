#include "szp/util/cpu.hpp"

namespace szp {

const CpuFeatures& cpu_features() {
  static const CpuFeatures kFeatures = [] {
    CpuFeatures f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    return f;
  }();
  return kFeatures;
}

}  // namespace szp
