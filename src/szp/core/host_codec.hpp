// Host-side codec orchestration shared by the serial reference path and
// the engine's parallel-host backend. One implementation of the stream
// assembly — header build, per-block QP+FE into chunk arenas, exclusive
// prefix sum over CmpL_k, BB scatter at the synchronized offsets, footer
// emit — parameterized over an Executor so the same code runs on one
// thread (the reference) or a pool (the parallel-host backend). Streams
// are byte-identical regardless of the executor: the layout is a pure
// function of (data, params, eb).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "szp/core/block_codec.hpp"
#include "szp/core/format.hpp"

namespace szp::core {

/// Work executor for the host codec's data-parallel passes. The default
/// implementation runs tasks inline; the engine's thread pool overrides
/// `run` to fan tasks out to workers. `run` must not return before every
/// task has completed, and must propagate (one of) the task exceptions.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of tasks worth creating per pass (1 = serial).
  [[nodiscard]] virtual unsigned width() const { return 1; }

  virtual void run(size_t count, const std::function<void(size_t)>& task) {
    for (size_t i = 0; i < count; ++i) task(i);
  }
};

/// The process-wide inline executor (stateless).
[[nodiscard]] Executor& serial_executor();

/// Reusable host codec scratch. Grown on first use and reused across
/// calls so steady-state compression does no allocation; the engine pools
/// these (engine/scratch_pool.hpp).
struct HostScratch {
  /// Per-executor-slot working set: one lane's block codec scratch plus a
  /// payload arena that pass 1 fills and pass 2 scatters with one memcpy.
  struct Chunk {
    BlockScratch block;
    std::vector<byte_t> payload;  // grow-only; the call's bytes are the
                                  // first chunk_bytes[c]
  };

  std::vector<Chunk> chunks;
  std::vector<std::uint64_t> chunk_bytes;   // pass-1 payload total per chunk
  std::vector<std::uint64_t> chunk_offset;  // exclusive scan of chunk_bytes
};

/// Largest value range helper (REL-mode resolution); 0 for empty data.
[[nodiscard]] double value_range_of(std::span<const float> data);
[[nodiscard]] double value_range_of(std::span<const double> data);

/// Compress on the host. `eb_abs` is the resolved absolute bound. The
/// result is byte-identical to the serial reference stream for any
/// executor. `scratch` is grown as needed and reused across calls.
[[nodiscard]] std::vector<byte_t> compress_host(std::span<const float> data,
                                                const Params& params,
                                                double eb_abs, Executor& exec,
                                                HostScratch& scratch);
[[nodiscard]] std::vector<byte_t> compress_host(std::span<const double> data,
                                                const Params& params,
                                                double eb_abs, Executor& exec,
                                                HostScratch& scratch);

/// Decompress on the host (throws format_error on malformed streams, same
/// contract as decompress_serial).
[[nodiscard]] std::vector<float> decompress_host(std::span<const byte_t> stream,
                                                 Executor& exec,
                                                 HostScratch& scratch);
[[nodiscard]] std::vector<double> decompress_host_f64(
    std::span<const byte_t> stream, Executor& exec, HostScratch& scratch);

/// Exact compressed size without materializing the stream (one
/// quantization pass; parallelizes over the executor).
[[nodiscard]] size_t compressed_bytes_probe(std::span<const float> data,
                                            const Params& params,
                                            double eb_abs, Executor& exec,
                                            HostScratch& scratch);

}  // namespace szp::core
