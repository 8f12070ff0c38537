// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, thread-safe and cheap enough to sit on codec hot paths.
//
// Like the tracer, collection is off by default and every instrument
// costs one relaxed atomic load + branch while disabled. Instruments are
// created on first use and live for the process lifetime, so call sites
// may cache the returned reference (e.g. in a function-local static).
//
// Domain metrics recorded by the library when enabled:
//   szp.encode.blocks / szp.encode.zero_blocks   zero-block ratio
//   szp.encode.fk                                 F_k bit-width histogram
//   szp.compress.calls/.in_bytes/.out_bytes       per-call volume
//   szp.compress.last_ratio                       compression ratio gauge
//   robust.*                                      salvage/corruption counts
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace szp::obs {

namespace detail {
inline std::atomic<bool> g_metrics{false};
}  // namespace detail

/// The one-branch fast path for every instrument.
[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (e.g. the most recent compression ratio).
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_value() const {
    return set_.load(std::memory_order_relaxed);
  }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0};
  std::atomic<bool> set_{false};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// bounds[i-1] <= v < bounds[i]; the final bucket is the overflow
/// (v >= bounds.back()). Also tracks count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Evenly spaced bounds: n buckets covering [lo, hi) plus overflow.
  [[nodiscard]] static std::vector<double> linear_bounds(double lo, double hi,
                                                         std::size_t n);
  /// Power-of-two bounds 1, 2, 4, ... 2^(n-1) plus overflow (bucket 0
  /// counts observations < 1, i.e. zero for integer inputs).
  [[nodiscard]] static std::vector<double> pow2_bounds(std::size_t n);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : sum() / static_cast<double>(c);
  }
  [[nodiscard]] double min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  /// Estimated q-quantile (q in [0, 1]) from the bucket counts: linear
  /// interpolation inside the covering bucket, with the open-ended edge
  /// buckets tightened by the tracked min/max. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }

  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
};

/// Name-keyed instrument registry (singleton: Registry::instance()).
class Registry {
 public:
  static Registry& instance();

  void set_enabled(bool on) {
    detail::g_metrics.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const { return metrics_enabled(); }

  /// Find-or-create. References stay valid for the process lifetime.
  /// Re-requesting a histogram ignores the (already fixed) bounds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Lookup without creation (nullptr if absent).
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Visit every instrument (sorted by name) under the registry lock.
  /// Callbacks must not re-enter the registry. Used by the Prometheus
  /// exposition renderer.
  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

  /// Zero every instrument (instruments themselves are kept).
  void reset();

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;
  /// Human-readable summary (sorted by name; empty instruments skipped).
  void write_text(std::ostream& os) const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace szp::obs
