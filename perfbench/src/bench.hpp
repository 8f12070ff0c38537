// Shared machinery of the repository benchmark: clocks and order
// statistics, the benchmark's own span recorder, operation accounting,
// the host-drift canary and the metric table printed at the end of a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> v);

/// Linearly interpolated quantile q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Restart the process's peak resident set count from its current
/// resident set (Linux /proc/self/clear_refs). Throws when it cannot.
void reset_peak_rss();

/// Largest resident set of this process since the last reset_peak_rss(),
/// in MB (VmHWM of /proc/self/status).
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- spans ----

/// In-memory span log kept by the benchmark around each call it makes
/// into a layer. Spans nest by call order on the benchmark thread; a
/// span's self time is its duration minus the time its child spans cover.
/// Disabled, a span costs one branch.
class SpanLog {
 public:
  struct Record {
    const char* name = nullptr;
    int parent = -1;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
  };
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its id, or -1 when disabled.
  int begin(const char* name);
  void end(int id);

  /// Per-name totals over every closed span, largest self time first.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON of every recorded span.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Record> records_;
};

SpanLog& spans();

/// RAII span on the global log.
class Span {
 public:
  explicit Span(const char* name) : id_(spans().begin(name)) {}
  ~Span() { spans().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------- accounting ----

/// Operations attempted and failed. An operation fails when it throws or
/// when its output does not match the reference it is checked against.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Run one operation; an exception counts it as failed (and is logged
  /// to stderr). Returns false on failure.
  template <typename F>
  bool run(const char* what, F&& op) {
    ++attempted;
    try {
      if (op()) return true;
      note_failure(what, "output mismatch");
    } catch (const std::exception& e) {
      note_failure(what, e.what());
    }
    ++failed;
    return false;
  }

 private:
  static void note_failure(const char* what, const char* why);
};

// -------------------------------------------------------------- canary ----

/// Host-drift canary: a memory-bound copy and a scalar dependency chain,
/// sampled between rounds so a slow host shows beside the metrics. Its
/// figures are reported, never used to rescale the others. Its copy
/// buffers live only inside sample(), so they are not resident during a
/// round.
class Canary {
 public:
  void sample();
  [[nodiscard]] double memcpy_gbps() const { return median(copy_gbps_); }
  [[nodiscard]] double scalar_mops() const { return median(scalar_mops_); }
  [[nodiscard]] size_t samples() const { return copy_gbps_.size(); }

 private:
  std::vector<double> copy_gbps_, scalar_mops_;
};

// ------------------------------------------------------------- metrics ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / derivation, for the text table only
};

/// Call times of one throughput metric, kept per item (a field, a batch,
/// a commit) across the rounds. The figure is the sum of the items' bytes
/// over the sum of their fastest call times: the throughput of a round in
/// which every call ran undisturbed. Host noise only ever adds time to a
/// call, so an item's fastest call moves only if every one of its calls
/// was disturbed; each item weighs as many bytes as it moves.
class Throughput {
 public:
  void add(size_t item, double bytes, double seconds);
  /// Sum of bytes / sum of per-item fastest seconds, in GB/s (0 if empty).
  [[nodiscard]] double gbps() const;
  [[nodiscard]] size_t items() const { return items_.size(); }
  [[nodiscard]] size_t calls() const;

 private:
  struct Item {
    double bytes = 0;
    std::vector<double> seconds;
  };
  std::map<size_t, Item> items_;
};

/// Samples gathered by the measured rounds.
struct Samples {
  std::map<std::string, Throughput> gbps;  // keyed by metric name
  std::vector<double> query_us;            // point-query latencies
};

}  // namespace perfbench
