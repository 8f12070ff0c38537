// The benchmark's workloads. Each drives the repository's public APIs from
// outside on inputs generated from the run's seed; the program sees only
// the generated data.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "szp/core/format.hpp"
#include "szp/data/field.hpp"
#include "szp/engine/engine.hpp"
#include "szp/util/rng.hpp"

namespace perfbench {

/// Width of the parallel backend's pool and of the archive's parallel
/// ingest pool, counting the caller. Half the reference host's 4 vCPUs: a
/// call that fans out waits for its slowest lane, and on a shared host
/// every lane is a vCPU the host may be running something else on at that
/// moment, so fewer lanes make fewer such waits. The device runs one
/// stream, whose launches use the gpusim default of one block worker per
/// hardware thread (4) while the caller waits; that is the most the
/// benchmark runs at once.
inline constexpr unsigned kThreads = 2;

inline constexpr std::array<szp::engine::BackendKind, 3> kBackends = {
    szp::engine::BackendKind::kSerial, szp::engine::BackendKind::kParallelHost,
    szp::engine::BackendKind::kDevice};

/// Elements per point query.
inline constexpr size_t kQueryLen = 256;

/// The three engines a workload measures, one per backend.
struct Engines {
  explicit Engines(const szp::core::Params& params);
  [[nodiscard]] szp::engine::Engine& get(szp::engine::BackendKind kind);

  std::array<std::unique_ptr<szp::engine::Engine>, kBackends.size()> engines;
};

/// Deterministic facts of one round's output (identical every round).
struct RoundStats {
  double raw_bytes = 0;
  double stream_bytes = 0;
  double max_err_over_eb = 0;
  std::uint64_t violations = 0;
  std::uint64_t checked_elements = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed` and build the engines; returns the
  /// seconds spent generating data.
  virtual double setup(std::uint64_t seed) = 0;

  /// One measured round. Every timed compress and decompress call goes to
  /// `samples.gbps` under its metric name and item; point-query latencies
  /// to `samples.query_us`.
  virtual void round(szp::Rng& rng, Ledger& ledger, Samples& samples,
                     RoundStats& stats) = 0;

  /// The workload's own compress path over all its inputs on one backend.
  virtual void compress_pass(szp::engine::BackendKind kind) = 0;

  [[nodiscard]] const std::vector<szp::data::Field>& fields() const {
    return fields_;
  }
  [[nodiscard]] const szp::core::Params& params() const { return params_; }
  [[nodiscard]] Engines& engines() { return *engines_; }

 protected:
  std::vector<szp::data::Field> fields_;
  szp::core::Params params_;
  std::unique_ptr<Engines> engines_;
  unsigned round_index_ = 0;
};

/// nullptr for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Throughput sample name, e.g. "compress_gbps.serial".
[[nodiscard]] std::string gbps_name(const char* op,
                                    szp::engine::BackendKind kind);

/// Decode check shared by the workloads: size matches and the bound
/// statistics of `decoded` against `original` under `eb_abs` are added to
/// `stats`. Violations are counted, not failed.
[[nodiscard]] bool check_decode(const szp::data::Field& original,
                                std::span<const float> decoded, double eb_abs,
                                RoundStats& stats);

/// A point query [begin, end) at a seeded offset of an n-element field.
struct Range {
  size_t begin = 0, end = 0;
};
[[nodiscard]] Range point_query(szp::Rng& rng, size_t n);

}  // namespace perfbench
