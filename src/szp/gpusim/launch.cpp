#include "szp/gpusim/launch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "szp/gpusim/stream.hpp"
#include "szp/obs/telemetry/flight_recorder.hpp"
#include "szp/obs/tracer.hpp"
#include "szp/util/thread_annotations.hpp"

namespace szp::gpusim::detail {

namespace {
/// Keeps Device::launches_in_flight() accurate on every exit path; the
/// trace snapshot/reset guards depend on it.
struct LaunchScope {
  explicit LaunchScope(Device& d) : dev(d) { dev.begin_launch(); }
  ~LaunchScope() { dev.end_launch(); }
  Device& dev;
};
}  // namespace

void run_blocks(Device& dev, const char* kernel_name, size_t grid_blocks,
                const std::function<void(const BlockCtx&)>& body) {
  dev.count([](Trace& t) { t.add_kernel_launch(); });
  // Flight recorder: kernel_name is required to be a literal (launch
  // sites pass one), so storing the pointer is safe.
  obs::fr::record(obs::fr::Kind::kKernel, kernel_name, grid_blocks);
  // Kernel-level begin/end pair on the launching thread; per-block 'X'
  // spans land on the worker threads' lanes.
  const obs::BeginEndSpan kernel_span("kernel", kernel_name, "grid_blocks",
                                      grid_blocks);
  if (grid_blocks == 0) return;

  const unsigned workers = static_cast<unsigned>(
      std::min<size_t>(dev.workers(), grid_blocks));

  std::unique_ptr<sanitize::LaunchCheck> lc;
  if (sanitize::Checker* chk = dev.checker()) {
    lc = chk->begin_launch(kernel_name, grid_blocks, Stream::calling_slot());
  }
  std::shared_ptr<profile::LaunchProf> lp;
  // While profiling, a per-launch scope collects the launch's own Trace
  // diff: the profile's stage counters.
  std::optional<OpTraceScope> launch_counts;
  if (profile::Profiler* prof = dev.profiler()) {
    lp = prof->begin_launch(kernel_name, grid_blocks,
                            std::string(Stream::current_name()));
    launch_counts.emplace();
  }
  // Per-op attribution: the chain head is captured here, on the launching
  // thread, and handed to block workers through BlockCtx.
  OpTraceScope* const op_sink = OpTraceScope::current();

  using Clock = std::chrono::steady_clock;
  const Clock::time_point launch_t0 = Clock::now();

  std::atomic<size_t> next{0};
  std::exception_ptr first_error;
  Mutex error_mutex;
  std::atomic<bool> failed{false};

  auto worker_fn = [&](bool pooled) {
    if (pooled) obs::set_thread_name("gpusim-worker");
    const sanitize::KernelThreadScope kernel_thread;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= grid_blocks || failed.load(std::memory_order_relaxed)) return;
      BlockCtx ctx{i,       grid_blocks, &dev.trace(), &failed,
                   lc.get(), lp.get(),   op_sink};
      obs::Span block_span("block", kernel_name, "block", i);
      const Clock::time_point block_t0 =
          lp != nullptr ? Clock::now() : Clock::time_point{};
      try {
        body(ctx);
      } catch (...) {
        {
          const LockGuard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (lp != nullptr) {
        lp->block_done(i, static_cast<std::uint64_t>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - block_t0)
                                  .count()));
      }
    }
  };

  {
    const LaunchScope scope(dev);
    if (workers <= 1) {
      worker_fn(false);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back(worker_fn, true);
      }
      for (auto& t : pool) t.join();
    }
  }
  // The launch retired (or aborted): bump the sanitizer epoch on every
  // exit path so host accesses after the launch are ordered.
  if (lc != nullptr) dev.checker()->end_launch(*lc);
  // Archive the launch profile even on the error path: partial counters
  // are still useful for diagnosing the failed launch.
  if (lp != nullptr) {
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             launch_t0)
            .count());
    dev.profiler()->end_launch(lp, wall_ns, launch_counts->snapshot());
    launch_counts.reset();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Fault-injection hook (tests): corrupt device memory between pipeline
  // stages once the kernel has fully retired. Runs outside the launch
  // scope so hooks may snapshot the (now quiescent) trace. The shared_ptr
  // keeps the hook alive across the call even if the host clears it
  // concurrently (launches run on stream threads now).
  if (const auto hook = dev.post_kernel_hook()) {
    if (*hook) (*hook)(kernel_name);
  }
}

}  // namespace szp::gpusim::detail
