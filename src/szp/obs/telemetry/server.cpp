#include "szp/obs/telemetry/server.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "szp/obs/telemetry/exposition.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::obs::telemetry {

struct TelemetryServer::Impl {
  mutable Mutex mutex;
  CondVar wake;
  bool stopping SZP_GUARDED_BY(mutex) = false;
  bool running SZP_GUARDED_BY(mutex) = false;
  std::string snapshot_path SZP_GUARDED_BY(mutex);
  int snapshot_period_ms SZP_GUARDED_BY(mutex) = 1000;
  // Joined by stop(); raw std::thread is whitelisted for this file in
  // szp_lint (the pipeline/stream wrappers are built for work queues,
  // not a sleeping writer loop).
  std::thread thread;
};

TelemetryServer& TelemetryServer::instance() {
  static TelemetryServer* s = new TelemetryServer();
  return *s;
}

TelemetryServer::Impl& TelemetryServer::impl() const {
  static Impl* i = new Impl();
  return *i;
}

namespace {

/// Write the snapshot atomically: tmp file + rename.
void write_snapshot(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return;
    const std::string body = prometheus_text();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

void TelemetryServer::start(const Options& opts) {
  if (opts.snapshot_path.empty()) return;
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  if (im.running) return;
  im.snapshot_path = opts.snapshot_path;
  im.snapshot_period_ms =
      opts.snapshot_period_ms > 0 ? opts.snapshot_period_ms : 1000;
  im.running = true;
  im.stopping = false;
  im.thread = std::thread([this] {
    Impl& tim = impl();
    for (;;) {
      std::string path;
      int period_ms;
      {
        UniqueLock lk(tim.mutex);
        if (tim.stopping) break;
        path = tim.snapshot_path;
        period_ms = tim.snapshot_period_ms;
      }
      write_snapshot(path);
      {
        UniqueLock lk(tim.mutex);
        if (tim.stopping) break;
        tim.wake.wait_for(lk, std::chrono::milliseconds(period_ms));
      }
    }
  });
}

void TelemetryServer::stop() {
  Impl& im = impl();
  std::string final_snapshot;
  {
    const LockGuard lock(im.mutex);
    im.stopping = true;
    final_snapshot = im.snapshot_path;
    im.wake.notify_all();
  }
  if (im.thread.joinable()) im.thread.join();
  {
    const LockGuard lock(im.mutex);
    im.running = false;
    im.snapshot_path.clear();
  }
  if (!final_snapshot.empty()) write_snapshot(final_snapshot);
}

bool TelemetryServer::running() const {
  Impl& im = impl();
  const LockGuard lock(im.mutex);
  return im.running;
}

}  // namespace szp::obs::telemetry
