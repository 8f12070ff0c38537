#include "szp/gpusim/device.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "szp/gpusim/sanitize/checker.hpp"
#include "szp/gpusim/stream.hpp"

namespace szp::gpusim {

Device::Device(unsigned workers)
    : Device(workers, sanitize::tools_from_env(),
             profile::options_from_env()) {}

Device::Device(unsigned workers, sanitize::Tools devcheck)
    : Device(workers, devcheck, profile::Options::off()) {}

Device::Device(unsigned workers, sanitize::Tools devcheck,
               profile::Options prof)
    : workers_(workers) {
  if (workers_ == 0) {
    workers_ = std::max(2u, std::thread::hardware_concurrency());
  }
  if (devcheck.any()) {
    checker_ =
        std::make_unique<sanitize::Checker>(devcheck, &launches_in_flight_);
  }
  if (prof.enabled) {
    profiler_ =
        std::make_unique<profile::Profiler>(std::move(prof), workers_, trace_);
  }
  default_stream_ =
      std::unique_ptr<Stream>(new Stream(*this, "default", Stream::Inline{}));
}

Device::~Device() {
  default_stream_.reset();
  if (checker_ == nullptr || !checker_->abort_on_teardown()) return;
  checker_->finalize();
  if (checker_->finding_count() == 0) return;
  const std::string report = checker_->snapshot().to_string();
  // Abort path during teardown: write straight to stderr, with no logger
  // machinery between the findings and the abort.
  // szp-lint: allow(raw-log) teardown abort path writes directly to stderr
  std::fputs(report.c_str(), stderr);
  // szp-lint: allow(raw-log) teardown abort path writes directly to stderr
  std::fputs("devcheck: aborting at Device teardown (SZP_DEVCHECK set)\n",
             stderr);
  std::abort();
}

Stream& Device::default_stream() { return *default_stream_; }

void Device::register_stream(Stream* s) {
  const LockGuard lock(streams_mutex_);
  streams_.push_back(s);
}

void Device::unregister_stream(Stream* s) {
  const LockGuard lock(streams_mutex_);
  streams_.erase(std::remove(streams_.begin(), streams_.end(), s),
                 streams_.end());
}

void Device::synchronize() {
  std::vector<Stream*> streams;
  {
    const LockGuard lock(streams_mutex_);
    streams = streams_;
  }
  std::exception_ptr first;
  for (Stream* s : streams) {
    try {
      s->synchronize();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  // A full device sync is a global barrier: everything submitted so far
  // happens-before everything after, so the racecheck origin map can be
  // pruned down to a floor epoch.
  if (checker_ != nullptr) checker_->hb_device_sync();
  if (first) std::rethrow_exception(first);
}

std::vector<OpRecord> Device::timeline() const {
  const LockGuard lock(timeline_mutex_);
  return timeline_;
}

void Device::clear_timeline() {
  const LockGuard lock(timeline_mutex_);
  timeline_.clear();
}

void Device::append_op_record(OpRecord rec) {
  const LockGuard lock(timeline_mutex_);
  timeline_.push_back(std::move(rec));
}

void Device::set_post_kernel_hook(KernelHook hook) {
  const LockGuard lock(hook_mutex_);
  post_kernel_hook_ = std::make_shared<const KernelHook>(std::move(hook));
}

void Device::clear_post_kernel_hook() {
  const LockGuard lock(hook_mutex_);
  post_kernel_hook_.reset();
}

std::shared_ptr<const Device::KernelHook> Device::post_kernel_hook() const {
  const LockGuard lock(hook_mutex_);
  return post_kernel_hook_;
}

sanitize::Report Device::sanitize_report() const {
  return checker_ != nullptr ? checker_->snapshot() : sanitize::Report{};
}

void Device::sanitize_finalize() {
  if (checker_ != nullptr) checker_->finalize();
}

void Device::clear_sanitize_findings() {
  if (checker_ != nullptr) checker_->clear_findings();
}

profile::SessionProfile Device::profile_snapshot() const {
  return profiler_ != nullptr ? profiler_->snapshot()
                              : profile::SessionProfile{};
}

void Device::reset_profile() {
  if (launches_in_flight() != 0 || async_ops_pending() != 0) {
    throw std::logic_error(
        "Device::reset_profile: a kernel launch or async stream op is in "
        "flight; a concurrent kernel would mix pre- and post-reset counters "
        "(synchronize() first)");
  }
  if (profiler_ != nullptr) profiler_->reset();
}

TraceSnapshot Device::snapshot() const {
  if (launches_in_flight() != 0 || async_ops_pending() != 0) {
    throw std::logic_error(
        "Device::snapshot: a kernel launch or async stream op is in flight; "
        "counters would be torn (synchronize() first)");
  }
  return trace_.snapshot();
}

void Device::reset_trace() {
  if (launches_in_flight() != 0 || async_ops_pending() != 0) {
    throw std::logic_error(
        "Device::reset_trace: a kernel launch or async stream op is in "
        "flight; a concurrent kernel would mix pre- and post-reset counts "
        "(synchronize() first)");
  }
  trace_.reset();
  if (profiler_ != nullptr) profiler_->rebase_memcpy();
}

}  // namespace szp::gpusim
