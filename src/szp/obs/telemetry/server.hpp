// Periodic exposition snapshot: every period_ms, write the Prometheus
// text to a file (tmp + rename, so readers never see a torn snapshot),
// and once more at stop(). Any scraper that can read a file can poll it.
#pragma once

#include <string>

namespace szp::obs::telemetry {

class TelemetryServer {
 public:
  struct Options {
    /// Empty disables snapshots.
    std::string snapshot_path;
    int snapshot_period_ms = 1000;
  };

  static TelemetryServer& instance();

  /// Idempotent: an already-running writer is left alone, and an empty
  /// snapshot_path starts nothing.
  void start(const Options& opts);

  /// Stop the writer thread and write one final snapshot.
  void stop();

  [[nodiscard]] bool running() const;

 private:
  TelemetryServer() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace szp::obs::telemetry
