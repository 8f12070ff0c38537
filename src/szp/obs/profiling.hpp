// Pieces the two profilers share: the kernel profiler
// (szp/gpusim/profile/) and the host profiler (szp/obs/hostprof/). Both
// are armed by an environment value of the same shape and both report
// lock-free power-of-two histograms.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace szp::obs {

/// Profiler configuration, parsed from SZP_PROFILE / SZP_HOSTPROF.
struct ProfilerOptions {
  bool enabled = false;
  /// Armed by the environment (as opposed to explicit construction).
  bool from_env = false;
  /// Non-empty when the value named a file: the JSON report is written
  /// there at process exit.
  std::string export_path;

  [[nodiscard]] static ProfilerOptions off() { return {}; }
  [[nodiscard]] static ProfilerOptions on() {
    ProfilerOptions o;
    o.enabled = true;
    return o;
  }
};

/// Parse a profiler environment value: "" / "0" / "off" → disabled,
/// "1" / "on" → collect only, anything else → collect + export path.
[[nodiscard]] ProfilerOptions options_from_string(std::string_view spec);

/// Plain-value copy of an AtomicPow2Hist.
struct HistSnapshot {
  std::vector<std::uint64_t> buckets;  // pow2 buckets, bucket i ~ bit_width i
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
};

/// Writes `h` as the reports' JSON object (count, sum, max,
/// pow2_buckets), each key on its own line under `indent`.
void write_json_hist(std::ostream& os, const HistSnapshot& h,
                     const char* indent);

/// Power-of-two histogram with lock-free observation: bucket i counts
/// values v with bit_width(v) == i (bucket 0 = zero values; the last
/// bucket saturates when NBuckets < 65). Concurrent observes are relaxed
/// adds, so totals are order-independent and deterministic.
template <unsigned NBuckets = 65>
class AtomicPow2Hist {
 public:
  void observe(std::uint64_t v) {
    const unsigned w = static_cast<unsigned>(std::bit_width(v));
    buckets_[w < NBuckets ? w : NBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Trailing empty buckets are trimmed, so two runs with the same
  /// populated range serialize identically and compactly.
  [[nodiscard]] HistSnapshot snapshot() const {
    HistSnapshot out;
    out.buckets.resize(NBuckets);
    for (unsigned i = 0; i < NBuckets; ++i) {
      out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    while (!out.buckets.empty() && out.buckets.back() == 0) {
      out.buckets.pop_back();
    }
    out.count = count_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, NBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace szp::obs
