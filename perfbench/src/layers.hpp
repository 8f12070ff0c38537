// Per-layer measurements of the traced run: each layer's public functions
// timed or counted on the workload's own inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Scratch-pool hits and misses summed over the host backends' pools.
struct PoolCounts {
  double hits = 0, misses = 0;
};
[[nodiscard]] PoolCounts scratch_counts(Engines& engines);

/// Every per-layer metric the workload itself determines (the run-level
/// ones — set-up, canary, tracing overhead, bound violations — are added
/// by the caller). `samples` are the traced run's round samples.
[[nodiscard]] std::vector<Metric> measure_layers(Workload& w,
                                                 const Samples& samples,
                                                 std::uint64_t seed,
                                                 Ledger& ledger);

}  // namespace perfbench
